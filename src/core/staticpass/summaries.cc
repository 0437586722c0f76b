#include "core/staticpass/summaries.h"

#include <algorithm>
#include <utility>

#include "phpast/ast.h"
#include "phpast/visitor.h"
#include "support/strutil.h"

namespace uchecker::core::staticpass {

const std::set<std::string, std::less<>>& callback_builtins() {
  static const std::set<std::string, std::less<>> kSet{
      "call_user_func", "call_user_func_array", "array_map", "array_walk",
      "array_filter",   "usort",                "uasort",    "uksort",
      "array_reduce",   "preg_replace_callback", "register_shutdown_function",
      "extract",        "parse_str",            "eval",      "assert",
      "create_function",
  };
  return kSet;
}

namespace {

using phpast::Node;
using phpast::NodeKind;
using phpast::StmtPtr;

bool reads_attacker_input(std::string_view var) {
  return var == "_FILES" || var == "_POST" || var == "_GET" ||
         var == "_REQUEST" || var == "_COOKIE";
}

}  // namespace

SummaryStore::SummaryStore(const Program& program, const CallGraph& graph,
                           const SourceManager& sources,
                           const SinkRegistry& sinks,
                           const StaticPassOptions& options)
    : program_(program),
      graph_(graph),
      sources_(sources),
      sinks_(sinks),
      options_(options) {}

// Edges follow only calls the symbolic interpreter actually inlines:
// the callees Program::callee() resolves. Callback registrations,
// constructors (never run by the interpreter) and closures (never
// invoked) are not edges; the opaque ones count as escapes instead.
SummaryStore::LocalFacts SummaryStore::local_facts(
    const Program::FunctionInfo& info) const {
  LocalFacts local;
  if (info.decl == nullptr) {
    local.escapes = true;  // registry entry without a body
    return local;
  }
  for (const phpast::Param& p : info.decl->params) {
    // A by-ref parameter lets the body mutate the caller's scope,
    // which the summary environment does not model.
    if (p.by_ref) local.escapes = true;
  }
  std::set<std::string, std::less<>> callees;
  auto visit = [&](const Node& n) -> bool {
    switch (n.kind()) {
      case NodeKind::kFunctionDecl:
      case NodeKind::kClassDecl:
        return false;  // separately registered scopes
      case NodeKind::kClosure:
      case NodeKind::kIncludeExpr:
        local.escapes = true;
        return false;
      case NodeKind::kVariable: {
        const auto& v = static_cast<const phpast::Variable&>(n);
        if (reads_attacker_input(v.name)) local.files = true;
        return true;
      }
      case NodeKind::kCall: {
        const auto& call = static_cast<const phpast::Call&>(n);
        if (call.is_dynamic() || callback_builtins().count(call.callee) != 0) {
          local.escapes = true;
          return true;  // still scan the arguments
        }
        if (sinks_.is_sink(call.callee)) {
          local.sink = true;
          return true;
        }
        [[fallthrough]];
      }
      case NodeKind::kMethodCall:
      case NodeKind::kStaticCall:
        if (const Program::FunctionInfo* fn = program_.callee(n, sinks_)) {
          callees.insert(fn->name);
        }
        return true;
      default:
        return true;
    }
  };
  for (const StmtPtr& s : info.decl->body) {
    if (s != nullptr) phpast::walk(*s, visit);
  }
  local.callees.assign(callees.begin(), callees.end());
  return local;
}

// Iterative Tarjan SCC condensation from `start` over the functions not
// summarized yet. A component completes only after every component
// reachable from it, so its callees' facts are final when it is; one
// that an earlier query finished is an external callee like any other.
// Every node indexed here and not yet summarized is on the Tarjan stack.
void SummaryStore::summarize(const std::string& start) {
  std::map<std::string_view, int, std::less<>> index;
  std::map<std::string_view, int, std::less<>> low;
  std::vector<std::string_view> stack;
  int next_index = 0;

  struct Frame {
    std::string_view name;
    const LocalFacts* local = nullptr;
    std::size_t next = 0;
  };
  std::vector<Frame> frames;
  auto open_node = [&](const std::string& name) {
    const Program::FunctionInfo& info = program_.functions.find(name)->second;
    auto lit = locals_.emplace(name, local_facts(info)).first;
    index[lit->first] = low[lit->first] = next_index++;
    stack.push_back(lit->first);
    frames.push_back(Frame{lit->first, &lit->second, 0});
  };

  open_node(start);
  while (!frames.empty()) {
    Frame& f = frames.back();
    if (f.next < f.local->callees.size()) {
      const std::string& callee = f.local->callees[f.next];
      ++f.next;
      if (facts_.count(callee) != 0) continue;  // finished component
      auto iit = index.find(callee);
      if (iit == index.end()) {
        open_node(callee);  // invalidates f; loop re-reads
      } else {
        int& lw = low[f.name];
        lw = std::min(lw, iit->second);
      }
      continue;
    }
    const std::string_view done = f.name;
    frames.pop_back();
    if (!frames.empty()) {
      int& parent_low = low[frames.back().name];
      parent_low = std::min(parent_low, low[done]);
    }
    if (low[done] == index[done]) {
      std::vector<std::string> scc;
      while (true) {
        const std::string_view member = stack.back();
        stack.pop_back();
        scc.emplace_back(member);
        if (member == done) break;
      }
      std::sort(scc.begin(), scc.end());
      finish_component(std::move(scc));
    }
  }
}

void SummaryStore::finish_component(std::vector<std::string> members) {
  // Reachability bits are uniform within an SCC, so one union pass over
  // the members and their already-finalized external callees is the
  // fixpoint.
  bool recursive = members.size() > 1;
  bool sink = false;
  bool files = false;
  bool escapes = false;
  bool reaches = false;
  for (const std::string& m : members) {
    const LocalFacts& l = locals_.find(m)->second;
    sink = sink || l.sink;
    files = files || l.files;
    escapes = escapes || l.escapes;
    for (const std::string& c : l.callees) {
      if (c == m) recursive = true;  // self-loop
      if (std::find(members.begin(), members.end(), c) != members.end()) {
        continue;  // intra-SCC edge: bits already unioned above
      }
      const FunctionFacts& cf = facts_.find(c)->second;
      reaches = reaches || cf.reaches_sink;
      escapes = escapes || cf.escapes;
      files = files || cf.reads_files;
    }
  }
  reaches = reaches || sink;
  const int scc = static_cast<int>(sccs_.size());
  for (const std::string& m : members) {
    FunctionFacts ff;
    ff.name = m;
    ff.scc = scc;
    ff.recursive = recursive;
    ff.has_local_sink = locals_.find(m)->second.sink;
    ff.reaches_sink = reaches;
    ff.reads_files = files;
    ff.escapes = escapes;
    facts_.emplace(m, std::move(ff));
  }

  // UC107 witness chains: function -> ... -> sink-containing function.
  // Every function a chain can visit is in this component or a finished
  // one, so its facts are final.
  for (const std::string& m : members) {
    FunctionFacts& ff = facts_.find(m)->second;
    if (!ff.reaches_sink) continue;
    std::vector<std::string> chain;
    std::set<std::string, std::less<>> visited;
    std::string cur = m;
    while (chain.size() < 8) {
      chain.push_back(cur);
      visited.insert(cur);
      const LocalFacts& l = locals_.find(cur)->second;
      if (l.sink) break;
      std::string next;
      for (const std::string& c : l.callees) {
        if (visited.count(c) != 0) continue;
        if (facts_.find(c)->second.reaches_sink) {
          next = c;
          break;
        }
      }
      if (next.empty()) break;
      cur = std::move(next);
    }
    ff.sink_chain = std::move(chain);
  }
  sccs_.push_back(std::move(members));
}

const FunctionFacts* SummaryStore::facts(std::string_view lower_name) {
  auto it = facts_.find(lower_name);
  if (it == facts_.end()) {
    // Facts are kept under each declaration's own key, so a method's
    // bare name finds them through the registry.
    const Program::FunctionInfo* fn = program_.function(lower_name);
    if (fn == nullptr) return nullptr;
    it = facts_.find(fn->name);
    if (it == facts_.end()) {
      summarize(fn->name);
      it = facts_.find(fn->name);
    }
  }
  return &it->second;
}

bool SummaryStore::function_reaches_sink(std::string_view lower_name) {
  const FunctionFacts* f = facts(lower_name);
  return f != nullptr && (f->reaches_sink || f->escapes);
}

const SummaryInstance& SummaryStore::instantiate(
    std::string_view lower_name, const std::vector<AbsVal>& args) {
  std::string key(lower_name);
  key += '\n';
  for (const AbsVal& a : args) {
    key += absval_key(a);
    key += ';';
  }
  auto it = instances_.find(key);
  if (it != instances_.end()) {
    ++stats_.cache_hits;
    return it->second;
  }
  ++stats_.cache_misses;

  SummaryInstance inst;
  inst.return_value = top();
  const FunctionFacts* f = facts(lower_name);
  auto fit = program_.functions.find(lower_name);
  const std::string name(lower_name);
  if (f == nullptr || fit == program_.functions.end() ||
      fit->second.decl == nullptr) {
    inst.reason = "unknown function";
  } else if (f->recursive) {
    // Matches the interpreter, which replaces recursive calls with a
    // fresh unknown symbol instead of unrolling.
    inst.reason = "recursive function";
  } else if (f->escapes) {
    inst.reason = "body escapes static analysis";
  } else if (!in_progress_.insert(name).second) {
    inst.reason = "re-entrant instantiation";  // cycle backstop
  } else {
    inst = analyze_function_body(program_, graph_, *fit->second.decl, args,
                                 sources_, sinks_, options_, this);
    in_progress_.erase(name);
  }
  // std::map node stability keeps the returned reference valid across
  // later (including recursive) insertions.
  return instances_.emplace(std::move(key), std::move(inst)).first->second;
}

}  // namespace uchecker::core::staticpass
