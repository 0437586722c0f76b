#include "core/interp/interp.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "core/interp/builtins.h"
#include "core/interp/slice.h"
#include "phpast/visitor.h"
#include "support/fault_injector.h"
#include "support/scan_events.h"
#include "support/strutil.h"

namespace uchecker::core {

using phpast::BinaryOp;
using phpast::Expr;
using phpast::NodeKind;
using phpast::Stmt;
using phpast::UnaryOp;

namespace {

OpKind op_kind_for(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return OpKind::kAdd;
    case BinaryOp::kSub: return OpKind::kSub;
    case BinaryOp::kMul: return OpKind::kMul;
    case BinaryOp::kDiv: return OpKind::kDiv;
    case BinaryOp::kMod: return OpKind::kMod;
    case BinaryOp::kPow: return OpKind::kPow;
    case BinaryOp::kConcat: return OpKind::kConcat;
    case BinaryOp::kEqual: return OpKind::kEqual;
    case BinaryOp::kNotEqual: return OpKind::kNotEqual;
    case BinaryOp::kIdentical: return OpKind::kIdentical;
    case BinaryOp::kNotIdentical: return OpKind::kNotIdentical;
    case BinaryOp::kLess: return OpKind::kLess;
    case BinaryOp::kGreater: return OpKind::kGreater;
    case BinaryOp::kLessEqual: return OpKind::kLessEqual;
    case BinaryOp::kGreaterEqual: return OpKind::kGreaterEqual;
    case BinaryOp::kSpaceship: return OpKind::kSub;  // ordering proxy
    case BinaryOp::kAnd: return OpKind::kAnd;
    case BinaryOp::kOr: return OpKind::kOr;
    case BinaryOp::kXor: return OpKind::kXor;
    case BinaryOp::kBitAnd: return OpKind::kBitAnd;
    case BinaryOp::kBitOr: return OpKind::kBitOr;
    case BinaryOp::kBitXor: return OpKind::kBitXor;
    case BinaryOp::kShiftLeft: return OpKind::kShiftLeft;
    case BinaryOp::kShiftRight: return OpKind::kShiftRight;
    case BinaryOp::kCoalesce: return OpKind::kCoalesce;
    case BinaryOp::kInstanceof: return OpKind::kEqual;  // opaque boolean
  }
  return OpKind::kAdd;
}

Type result_type_for(OpKind op, Type lhs, Type rhs) {
  switch (op) {
    case OpKind::kConcat:
      return Type::kString;
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
    case OpKind::kDiv:
    case OpKind::kMod:
    case OpKind::kPow:
    case OpKind::kBitAnd:
    case OpKind::kBitOr:
    case OpKind::kBitXor:
    case OpKind::kShiftLeft:
    case OpKind::kShiftRight:
    case OpKind::kNegate:
      return (lhs == Type::kFloat || rhs == Type::kFloat) ? Type::kFloat
                                                          : Type::kInt;
    case OpKind::kEqual:
    case OpKind::kNotEqual:
    case OpKind::kIdentical:
    case OpKind::kNotIdentical:
    case OpKind::kLess:
    case OpKind::kGreater:
    case OpKind::kLessEqual:
    case OpKind::kGreaterEqual:
    case OpKind::kAnd:
    case OpKind::kOr:
    case OpKind::kXor:
    case OpKind::kNot:
      return Type::kBool;
    case OpKind::kCoalesce:
    case OpKind::kTernary:
      return lhs == rhs ? lhs : Type::kUnknown;
    case OpKind::kArrayAccess:
      return Type::kUnknown;
  }
  return Type::kUnknown;
}

// RAII fork-site event (Budget::events). Enters the site on construct
// entry and exits it on every exit path -- normal completion, early
// break, or budget abort -- so the profiler's cumulative/self
// bookkeeping stays balanced. One null test when no hook is attached.
class ForkSiteScope {
 public:
  ForkSiteScope(telemetry::ScanEvents* events, const std::vector<Env>& envs,
                profile::ForkKind kind, SourceLoc loc,
                std::string_view detail)
      : events_(events), envs_(envs) {
    if (events_ != nullptr) {
      events_->fork_enter(kind, loc.file.value, loc.line, detail,
                          envs_.size());
    }
  }
  ForkSiteScope(const ForkSiteScope&) = delete;
  ForkSiteScope& operator=(const ForkSiteScope&) = delete;
  ~ForkSiteScope() {
    if (events_ != nullptr) events_->fork_exit(envs_.size());
  }

 private:
  telemetry::ScanEvents* events_;
  const std::vector<Env>& envs_;
};

constexpr std::uint64_t kMaxWeight = std::numeric_limits<std::uint64_t>::max();

std::uint64_t add_weights(std::uint64_t a, std::uint64_t b) {
  return b > kMaxWeight - a ? kMaxWeight : a + b;
}

// Structural paths the environments stand for (merges keep the sum).
std::uint64_t total_weight(const std::vector<Env>& envs) {
  std::uint64_t sum = 0;
  for (const Env& env : envs) sum = add_weights(sum, env.weight());
  return sum;
}

}  // namespace

Interpreter::Interpreter(const Program& program, DiagnosticSink& diags,
                         Budget budget, const SinkRegistry& sinks)
    : program_(program), diags_(diags), budget_(budget), sink_registry_(sinks) {}

void Interpreter::push(Env& env, Label label) { env.stack().push_back(label); }

Label Interpreter::pop(Env& env) {
  if (env.stack().empty()) return kNoLabel;  // defensive; cleared stacks
  const Label label = env.stack().back();
  env.stack().pop_back();
  return label;
}

bool Interpreter::any_running() const {
  return std::any_of(envs_.begin(), envs_.end(),
                     [](const Env& e) { return e.running(); });
}

void Interpreter::check_budget() {
  stats_.peak_paths = std::max(stats_.peak_paths, envs_.size());
  if (envs_.size() > budget_.max_paths ||
      graph_.object_count() > budget_.max_objects) {
    aborted_ = true;
    if (!stats_.budget_exhausted && budget_.events != nullptr) {
      budget_.events->event(
          "budget_exhausted", std::to_string(envs_.size()) + " paths, " +
                                  std::to_string(graph_.object_count()) +
                                  " objects");
    }
    stats_.budget_exhausted = true;
  }
  // Wall-clock deadline, polled on a stride so the steady_clock read
  // stays off the per-statement fast path. 16 keeps worst-case overshoot
  // small (a handful of statements), which matters for tight deadlines.
  // Progress samples share the stride (the trace decimates them
  // further), so an attached hook adds no extra clock reads to the fast
  // path and an unattached one costs a single null test.
  if ((deadline_poll_++ & 0xF) == 0) {
    if (budget_.deadline.expired()) {
      aborted_ = true;
      if (!stats_.deadline_exceeded && budget_.events != nullptr) {
        budget_.events->event("deadline_exceeded");
      }
      stats_.deadline_exceeded = true;
    }
    if (budget_.events != nullptr) {
      budget_.events->progress(envs_.size(), graph_.object_count(),
                               graph_.memory_bytes());
    }
  }
}

Label Interpreter::fresh_symbol(std::string_view hint, Type type,
                                SourceLoc loc, bool tainted) {
  std::string name = "s_";
  name += hint;
  name += "_";
  name += std::to_string(++symbol_counter_);
  return graph_.add_symbol(std::move(name), type, loc, tainted);
}

Label Interpreter::files_entry_array(const std::string& field_key,
                                     SourceLoc loc) {
  const auto it = files_entries_.find(field_key);
  if (it != files_entries_.end()) return it->second;

  // Pre-structured $_FILES entry (paper §III-B4 / Fig. 6). The "name"
  // value is the concatenation of a filename stem, a literal dot, and an
  // extension symbol, so extension checks in the analyzed program bind
  // to exactly the symbol the destination constraint mentions.
  const std::string base = "files_" + field_key;
  const Label stem =
      graph_.add_symbol("s_" + base + "_filename", Type::kString, loc, true);
  const Label ext =
      graph_.add_symbol("s_" + base + "_ext", Type::kString, loc, true);
  const Label dot = graph_.add_concrete(std::string("."), loc);
  const Label stem_dot =
      graph_.add_op(OpKind::kConcat, Type::kString, {stem, dot}, loc);
  const Label name =
      graph_.add_op(OpKind::kConcat, Type::kString, {stem_dot, ext}, loc);
  register_name_parts(name, stem, ext);

  const Label type_sym =
      graph_.add_symbol("s_" + base + "_type", Type::kString, loc, true);
  const Label tmp_sym =
      graph_.add_symbol("s_" + base + "_tmp", Type::kString, loc, true);
  const Label err_sym =
      graph_.add_symbol("s_" + base + "_error", Type::kInt, loc, true);
  const Label size_sym =
      graph_.add_symbol("s_" + base + "_size", Type::kInt, loc, true);

  std::vector<ArrayEntry> entries{
      {"name", false, name},       {"type", false, type_sym},
      {"tmp_name", false, tmp_sym}, {"error", false, err_sym},
      {"size", false, size_sym},
  };
  const Label arr = graph_.add_array(std::move(entries), loc, true);
  files_entries_.emplace(field_key, arr);
  return arr;
}

std::optional<std::pair<Label, Label>> Interpreter::name_parts(
    Label name) const {
  const auto it = name_parts_.find(name);
  if (it == name_parts_.end()) return std::nullopt;
  return it->second;
}

void Interpreter::register_name_parts(Label name, Label stem, Label ext) {
  name_parts_.emplace(name, std::make_pair(stem, ext));
}

void Interpreter::discard_results(std::size_t count) {
  // Pops `count` expression results from each running environment's
  // operand stack (statement boundary). Stacks of non-running paths are
  // left untouched: they may hold partial results of an enclosing
  // expression in some caller frame.
  for (Env& env : envs_) {
    if (!env.running()) continue;
    for (std::size_t i = 0; i < count && !env.stack().empty(); ++i) {
      env.stack().pop_back();
    }
  }
}

// ---------------------------------------------------------------------------
// Entry point

InterpResult Interpreter::run(const AnalysisRoot& root) {
  FaultInjector::checkpoint("interp");
  graph_ = HeapGraph();
  interner_ = std::make_shared<VarInterner>();
  envs_.clear();
  envs_.emplace_back();
  envs_.back().bind_interner(interner_);
  sinks_.clear();
  stats_ = InterpStats{};
  aborted_ = false;
  deadline_poll_ = 0;

  current_file_ =
      root.file != nullptr ? root.file->file : root.function->loc().file;

  const std::optional<std::vector<std::string>> slice =
      sink_relevant_vars(program_, root, sink_registry_);
  merge_ = slice.has_value();
  relevant_.clear();
  if (merge_) {
    for (const std::string& name : *slice) relevant_.push_back(vid(name));
    std::sort(relevant_.begin(), relevant_.end());
  }

  if (root.function != nullptr) {
    // Bind parameters. If locality captured a binding call site whose
    // arguments mention $_FILES, evaluate those arguments so taint and
    // the pre-structured upload model flow into the function.
    const phpast::FunctionDecl& fn = *root.function;
    if (root.binding_call != nullptr &&
        root.binding_call->args.size() <= fn.params.size() + 4) {
      const auto& args = root.binding_call->args;
      for (std::size_t i = 0; i < fn.params.size(); ++i) {
        const VarId pid = vid(fn.params[i].name);
        if (i < args.size()) {
          eval_expr(*args[i]);
          for (Env& env : envs_) {
            if (!env.running()) continue;
            env.set(pid, pop(env));
          }
        } else {
          const Label sym = fresh_symbol(
              strutil::cat("param_", fn.params[i].name), Type::kUnknown,
              fn.loc());
          for (Env& env : envs_) env.set(pid, sym);
        }
      }
    } else {
      for (const phpast::Param& p : fn.params) {
        const VarId pid = vid(p.name);
        const Label sym = fresh_symbol(strutil::cat("param_", p.name),
                                       Type::kUnknown, fn.loc());
        for (Env& env : envs_) env.set(pid, sym);
      }
    }
    exec_stmts(fn.body);
  } else if (root.file != nullptr) {
    exec_stmts(as_span(root.file->statements));
  }

  stats_.paths = total_weight(envs_);
  stats_.objects = graph_.object_count();
  stats_.cons_hits = graph_.cons_hits();
  stats_.peak_paths = std::max(stats_.peak_paths, envs_.size());
  for (const Env& env : envs_) stats_.env_bytes += env.memory_bytes();

  InterpResult result;
  result.envs = std::move(envs_);
  result.sinks = std::move(sinks_);
  result.stats = stats_;
  result.graph = std::move(graph_);
  return result;
}

// ---------------------------------------------------------------------------
// Statements

void Interpreter::exec_stmts(Span<const phpast::StmtPtr> stmts) {
  for (const auto& stmt : stmts) {
    if (aborted_ || !any_running()) return;
    exec_stmt(*stmt);
  }
}

void Interpreter::exec_stmt(const Stmt& stmt) {
  switch (stmt.kind()) {
    case NodeKind::kExprStmt:
      eval_expr(*static_cast<const phpast::ExprStmt&>(stmt).expr);
      discard_results(1);
      break;
    case NodeKind::kEcho: {
      const auto& echo = static_cast<const phpast::Echo&>(stmt);
      for (const auto& e : echo.values) eval_expr(*e);
      discard_results(echo.values.size());
      break;
    }
    case NodeKind::kIf:
      exec_if(static_cast<const phpast::If&>(stmt));
      break;
    case NodeKind::kWhile: {
      const auto& s = static_cast<const phpast::While&>(stmt);
      exec_loop(s.cond, s.body, nullptr, stmt.loc(), "while");
      break;
    }
    case NodeKind::kDoWhile: {
      const auto& s = static_cast<const phpast::DoWhile&>(stmt);
      exec_stmts(s.body);
      if (any_running()) {
        eval_expr(*s.cond);  // side effects only; loop exits after one pass
        discard_results(1);
      }
      break;
    }
    case NodeKind::kFor: {
      const auto& s = static_cast<const phpast::For&>(stmt);
      for (const auto& e : s.init) {
        eval_expr(*e);
        discard_results(1);
      }
      exec_loop(s.cond.empty() ? nullptr : s.cond.front(), s.body, &s.step,
                stmt.loc(), "for");
      break;
    }
    case NodeKind::kForeach:
      exec_foreach(static_cast<const phpast::Foreach&>(stmt));
      break;
    case NodeKind::kSwitch:
      exec_switch(static_cast<const phpast::Switch&>(stmt));
      break;
    case NodeKind::kReturn: {
      const auto& s = static_cast<const phpast::Return&>(stmt);
      if (s.value != nullptr) {
        eval_expr(*s.value);
        for (Env& env : envs_) {
          if (!env.running()) continue;
          env.set_return_value(pop(env));
          env.set_status(Env::Status::kReturned);
        }
      } else {
        for (Env& env : envs_) {
          if (!env.running()) continue;
          env.set_return_value(kNoLabel);
          env.set_status(Env::Status::kReturned);
        }
      }
      break;
    }
    case NodeKind::kBreak:
    case NodeKind::kContinue:
      // Loops are unrolled a bounded number of times; break/continue in
      // the unrolled body is a no-op approximation.
      break;
    case NodeKind::kGlobal: {
      const auto& s = static_cast<const phpast::Global&>(stmt);
      for (const std::string_view name : s.names) {
        auto it = globals_.find(name);
        if (it == globals_.end()) {
          const Label sym = fresh_symbol(strutil::cat("global_", name),
                                         Type::kUnknown, stmt.loc());
          it = globals_.emplace(std::string(name), sym).first;
        }
        const VarId id = vid(name);
        for (Env& env : envs_) {
          if (env.running()) env.set(id, it->second);
        }
      }
      break;
    }
    case NodeKind::kStaticVarStmt: {
      const auto& s = static_cast<const phpast::StaticVarStmt&>(stmt);
      const VarId id = vid(s.name);
      if (s.init != nullptr) {
        eval_expr(*s.init);
        for (Env& env : envs_) {
          if (env.running()) env.set(id, pop(env));
        }
      } else {
        const Label sym = fresh_symbol(strutil::cat("static_", s.name),
                                       Type::kUnknown, stmt.loc());
        for (Env& env : envs_) {
          if (env.running()) env.set(id, sym);
        }
      }
      break;
    }
    case NodeKind::kUnsetStmt: {
      const auto& s = static_cast<const phpast::UnsetStmt&>(stmt);
      for (const auto& e : s.operands) {
        if (e->kind() == NodeKind::kVariable) {
          const auto& var = static_cast<const phpast::Variable&>(*e);
          const VarId id = vid(var.name);
          for (Env& env : envs_) {
            if (env.running()) env.erase(id);
          }
        }
      }
      break;
    }
    case NodeKind::kBlock:
      exec_stmts(static_cast<const phpast::Block&>(stmt).body);
      break;
    case NodeKind::kFunctionDecl:
    case NodeKind::kClassDecl:
      break;  // declarations were collected by build_program()
    case NodeKind::kTryCatch: {
      // Fork: the no-exception path runs the try body; one alternative
      // path per catch clause runs its handler with a fresh exception.
      const auto& s = static_cast<const phpast::TryCatch&>(stmt);
      const ForkSiteScope fork_scope(budget_.events, envs_,
                                     profile::ForkKind::kTryCatch, stmt.loc(),
                                     "try");
      std::vector<Env> base = envs_;  // pre-try snapshot
      exec_stmts(s.body);
      std::vector<Env> joined = std::move(envs_);
      for (const phpast::CatchClause& c : s.catches) {
        envs_ = base;
        const VarId cid = c.variable.empty() ? kNoVar : vid(c.variable);
        for (Env& env : envs_) {
          if (env.running() && cid != kNoVar) {
            env.set(cid, fresh_symbol(strutil::cat("exc_", c.exception_class),
                                      Type::kUnknown, stmt.loc()));
          }
        }
        exec_stmts(c.body);
        for (Env& env : envs_) joined.push_back(std::move(env));
      }
      envs_ = std::move(joined);
      check_budget();
      if (!s.finally_body.empty()) exec_stmts(s.finally_body);
      break;
    }
    case NodeKind::kThrowStmt: {
      const auto& s = static_cast<const phpast::ThrowStmt&>(stmt);
      eval_expr(*s.value);
      for (Env& env : envs_) {
        if (env.running()) env.set_status(Env::Status::kExited);
      }
      break;
    }
    case NodeKind::kInlineHtml:
    case NodeKind::kNamespaceDecl:
    case NodeKind::kUseDecl:
      break;
    default:
      diags_.warning(stmt.loc(), "unsupported statement kind skipped: " +
                                     std::string(node_kind_name(stmt.kind())));
      break;
  }
}

void Interpreter::exec_branch(const std::vector<Label>& cond_labels,
                              bool negate,
                              Span<const phpast::StmtPtr> body,
                              std::vector<Env> base_envs,
                              std::vector<Env>& out) {
  envs_ = std::move(base_envs);
  std::size_t idx = 0;
  for (Env& env : envs_) {
    if (!env.running()) continue;
    Label cond = idx < cond_labels.size() ? cond_labels[idx] : kNoLabel;
    ++idx;
    if (cond == kNoLabel) continue;
    if (negate) {
      cond = graph_.add_op(OpKind::kNot, Type::kBool, {cond},
                           graph_.at(cond).loc);
    }
    extend_reachability(graph_, env, cond);
  }
  exec_stmts(body);
  for (Env& env : envs_) out.push_back(std::move(env));
  envs_.clear();
}

void Interpreter::exec_if(const phpast::If& stmt) {
  const ForkSiteScope fork_scope(budget_.events, envs_,
                                 profile::ForkKind::kConditional, stmt.loc(),
                                 "if");
  // Normalize the elseif chain: execute it as a nested if in the else
  // branch by repeatedly processing clauses.
  struct Clause {
    const Expr* cond;
    phpast::StmtList body;
  };
  std::vector<Clause> clauses;
  clauses.push_back({stmt.cond, stmt.then_body});
  for (const auto& c : stmt.elseifs) clauses.push_back({c.cond, c.body});

  // Set aside non-running envs once, up front; the arms join into
  // `result`.
  std::vector<Env> done;
  std::vector<Env> pending;
  for (Env& env : envs_) {
    (env.running() ? pending : done).push_back(std::move(env));
  }
  envs_.clear();
  const ForkJoin fork = open_join(pending);

  const phpast::StmtList kEmptyBody;
  std::vector<Env> result;
  for (std::size_t i = 0; i < clauses.size(); ++i) {
    if (aborted_) break;
    // Evaluate the condition on the pending ("all previous conditions
    // false") env set.
    envs_ = std::move(pending);
    pending.clear();
    eval_expr(*clauses[i].cond);
    std::vector<Label> cond_labels;
    for (Env& env : envs_) {
      if (env.running()) cond_labels.push_back(pop(env));
    }
    std::vector<Env> base = std::move(envs_);
    envs_.clear();

    // True branch.
    exec_branch(cond_labels, /*negate=*/false, clauses[i].body, base, result);
    // False branch: either the next clause's pending set or the else body.
    const bool last = (i + 1 == clauses.size());
    if (last) {
      exec_branch(cond_labels, /*negate=*/true,
                  stmt.has_else ? stmt.else_body : kEmptyBody, std::move(base),
                  result);
    } else {
      std::vector<Env> next_pending;
      exec_branch(cond_labels, /*negate=*/true, kEmptyBody, std::move(base),
                  next_pending);
      pending = std::move(next_pending);
    }
    check_budget();
  }
  for (Env& env : pending) result.push_back(std::move(env));
  close_join(fork, result);
  for (Env& env : result) done.push_back(std::move(env));
  envs_ = std::move(done);
  check_budget();
}

void Interpreter::exec_switch(const phpast::Switch& stmt) {
  const ForkSiteScope fork_scope(budget_.events, envs_,
                                 profile::ForkKind::kSwitch, stmt.loc(),
                                 "switch");
  eval_expr(*stmt.subject);
  std::vector<Env> done;
  std::vector<Env> running;
  std::vector<Label> subject_labels;
  for (Env& env : envs_) {
    if (env.running()) {
      subject_labels.push_back(pop(env));
      running.push_back(std::move(env));
    } else {
      done.push_back(std::move(env));
    }
  }
  envs_.clear();
  const ForkJoin fork = open_join(running);
  std::vector<Env> result;

  bool has_default = false;
  // Collected negations per base env: conjunction of (subject != case_i),
  // applied to the default (or implicit fall-past) path.
  std::vector<std::vector<Label>> negations(running.size());

  for (const phpast::SwitchCase& c : stmt.cases) {
    if (aborted_) break;
    if (c.match == nullptr) {
      has_default = true;
      continue;  // handled after equality cases
    }
    envs_ = running;  // copy
    eval_expr(*c.match);
    std::size_t idx = 0;
    std::vector<Label> eq_labels;
    for (Env& env : envs_) {
      if (!env.running()) continue;
      const Label match_label = pop(env);
      const Label eq = graph_.add_op(OpKind::kEqual, Type::kBool,
                                     {subject_labels[idx], match_label},
                                     stmt.loc());
      eq_labels.push_back(eq);
      negations[idx].push_back(eq);
      ++idx;
    }
    idx = 0;
    for (Env& env : envs_) {
      if (!env.running()) continue;
      extend_reachability(graph_, env, eq_labels[idx]);
      ++idx;
    }
    exec_stmts(c.body);
    for (Env& env : envs_) result.push_back(std::move(env));
    envs_.clear();
    check_budget();
  }

  // Default (or implicit skip) path: all equalities negated.
  envs_ = std::move(running);
  std::size_t idx = 0;
  for (Env& env : envs_) {
    if (!env.running()) continue;
    for (Label eq : negations[idx]) {
      const Label neg =
          graph_.add_op(OpKind::kNot, Type::kBool, {eq}, stmt.loc());
      extend_reachability(graph_, env, neg);
    }
    ++idx;
  }
  if (has_default) {
    for (const phpast::SwitchCase& c : stmt.cases) {
      if (c.match == nullptr) {
        exec_stmts(c.body);
        break;
      }
    }
  }
  for (Env& env : envs_) result.push_back(std::move(env));
  close_join(fork, result);
  for (Env& env : result) done.push_back(std::move(env));
  envs_ = std::move(done);
  check_budget();
}

Interpreter::ForkJoin Interpreter::open_join(std::vector<Env>& running) {
  ForkJoin fork;
  if (!merge_) return fork;
  fork.outer_origin.reserve(running.size());
  fork.cur.reserve(running.size());
  for (std::size_t i = 0; i < running.size(); ++i) {
    fork.outer_origin.push_back(running[i].fork_origin());
    fork.cur.push_back(running[i].cur());
    running[i].set_fork_origin(static_cast<std::uint32_t>(i));
  }
  return fork;
}

bool Interpreter::same_join_state(const Env& a, const Env& b) const {
  return std::all_of(relevant_.begin(), relevant_.end(),
                     [&](VarId id) { return a.get(id) == b.get(id); }) &&
         a.return_value() == b.return_value() && a.stack() == b.stack() &&
         a.frames() == b.frames();
}

void Interpreter::close_join(const ForkJoin& fork, std::vector<Env>& arms) {
  if (!merge_) return;
  const std::size_t n = fork.cur.size();
  // Each pre-fork env's descendants, in program order: arms counting-
  // sorted by origin, descendants of o at order[begin[o], begin[o + 1]).
  std::vector<std::size_t> begin(n + 1, 0);
  for (const Env& env : arms) {
    if (env.fork_origin() < n) ++begin[env.fork_origin() + 1];
  }
  for (std::size_t o = 0; o < n; ++o) begin[o + 1] += begin[o];
  std::vector<std::size_t> order(begin[n]);
  std::vector<std::size_t> next(begin.begin(), begin.end() - 1);
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const std::uint32_t origin = arms[i].fork_origin();
    if (origin < n) order[next[origin]++] = i;
  }
  std::vector<bool> merged_away(arms.size(), false);
  for (std::size_t o = 0; o < n; ++o) {
    const auto first_it = order.begin() + static_cast<std::ptrdiff_t>(begin[o]);
    const auto last_it =
        order.begin() + static_cast<std::ptrdiff_t>(begin[o + 1]);
    if (last_it - first_it < 2) continue;
    Env& first = arms[*first_it];
    const bool mergeable =
        std::all_of(first_it, last_it, [&](std::size_t i) {
          return arms[i].running() && same_join_state(first, arms[i]);
        });
    if (!mergeable) continue;
    std::uint64_t weight = 0;
    for (auto it = first_it; it != last_it; ++it) {
      weight = add_weights(weight, arms[*it].weight());
      merged_away[*it] = it != first_it;
    }
    first.set_weight(weight);
    first.set_cur(fork.cur[o]);
  }
  std::vector<Env> out;
  out.reserve(arms.size());
  for (std::size_t i = 0; i < arms.size(); ++i) {
    if (merged_away[i]) continue;
    const std::uint32_t origin = arms[i].fork_origin();
    arms[i].set_fork_origin(origin < n ? fork.outer_origin[origin] : origin);
    out.push_back(std::move(arms[i]));
  }
  arms = std::move(out);
}

void Interpreter::exec_loop(const Expr* cond,
                            Span<const phpast::StmtPtr> body,
                            const phpast::ExprList* step, SourceLoc loc,
                            std::string_view kind_detail) {
  const ForkSiteScope fork_scope(budget_.events, envs_,
                                 profile::ForkKind::kLoop, loc, kind_detail);
  // Approximate `while (c) S` as a bounded unrolling that forks into a
  // skip path (NOT c) and an enter path (c asserted, S executed once per
  // unroll round). Paper §VI: "UChecker does not precisely model loops".
  for (int round = 0; round < budget_.loop_unroll; ++round) {
    if (aborted_ || !any_running()) return;
    std::vector<Env> result;
    std::vector<Label> cond_labels;
    if (cond != nullptr) {
      eval_expr(*cond);
      std::vector<Env> running;
      for (Env& env : envs_) {
        if (env.running()) {
          cond_labels.push_back(pop(env));
          running.push_back(std::move(env));
        } else {
          result.push_back(std::move(env));
        }
      }
      envs_ = std::move(running);
    } else {
      std::vector<Env> running;
      for (Env& env : envs_) {
        if (env.running()) {
          running.push_back(std::move(env));
        } else {
          result.push_back(std::move(env));
        }
      }
      envs_ = std::move(running);
      cond_labels.assign(envs_.size(), kNoLabel);
    }
    std::vector<Env> base = std::move(envs_);
    envs_.clear();

    // Skip path.
    if (cond != nullptr) {
      exec_branch(cond_labels, /*negate=*/true, {}, base, result);
    }
    // Enter path: body once (+ step expressions for `for` loops).
    std::vector<Env> entered;
    exec_branch(cond_labels, /*negate=*/false, body, std::move(base), entered);
    if (step != nullptr) {
      envs_ = std::move(entered);
      for (const auto& e : *step) {
        eval_expr(*e);
        discard_results(1);
      }
      entered = std::move(envs_);
    }
    if (round + 1 == budget_.loop_unroll) {
      for (Env& env : entered) result.push_back(std::move(env));
      envs_ = std::move(result);
    } else {
      // Next round continues only on the entered paths; finished skip
      // paths accumulate in result.
      envs_ = std::move(entered);
      for (Env& env : result) envs_.push_back(std::move(env));
    }
    check_budget();
  }
}

void Interpreter::exec_foreach(const phpast::Foreach& stmt) {
  const ForkSiteScope fork_scope(budget_.events, envs_,
                                 profile::ForkKind::kForeach, stmt.loc(),
                                 "foreach");
  // kNoVar encodes "no binding": key/value targets that are absent or
  // not plain variables are skipped, exactly as before interning.
  const VarId key_id =
      (stmt.key_var != nullptr && stmt.key_var->kind() == NodeKind::kVariable)
          ? vid(static_cast<const phpast::Variable&>(*stmt.key_var).name)
          : kNoVar;
  const VarId value_id =
      stmt.value_var->kind() == NodeKind::kVariable
          ? vid(static_cast<const phpast::Variable&>(*stmt.value_var).name)
          : kNoVar;
  eval_expr(*stmt.iterable);
  // Partition running/finished and take the iterable labels.
  std::vector<Env> result;
  std::vector<Env> running;
  std::vector<Label> iter_labels;
  for (Env& env : envs_) {
    if (env.running()) {
      iter_labels.push_back(pop(env));
      running.push_back(std::move(env));
    } else {
      result.push_back(std::move(env));
    }
  }
  envs_.clear();

  // Known-structure arrays iterate their first kMaxForeachEntries
  // entries deterministically; unknown iterables fork into skip /
  // enter-once with a fresh boolean guard.
  // Group: all envs are processed uniformly using each env's own label.
  // For simplicity, decide the strategy per env.
  std::vector<Env> known_envs;
  std::vector<Label> known_labels;
  std::vector<Env> unknown_envs;
  std::vector<Label> unknown_labels;
  for (std::size_t i = 0; i < running.size(); ++i) {
    const Object* obj = graph_.find(iter_labels[i]);
    if (obj != nullptr && obj->kind == Object::Kind::kArray) {
      known_envs.push_back(std::move(running[i]));
      known_labels.push_back(iter_labels[i]);
    } else {
      unknown_envs.push_back(std::move(running[i]));
      unknown_labels.push_back(iter_labels[i]);
    }
  }

  // Known arrays: unroll entries.
  if (!known_envs.empty()) {
    envs_ = std::move(known_envs);
    const std::uint64_t entry_weight = total_weight(envs_);
    for (int entry_idx = 0; entry_idx < kMaxForeachEntries; ++entry_idx) {
      bool any = false;
      std::size_t running_idx = 0;
      for (Env& env : envs_) {
        if (!env.running()) continue;
        const Label arr_label = running_idx < known_labels.size()
                                    ? known_labels[running_idx]
                                    : kNoLabel;
        ++running_idx;
        const Object* obj = graph_.find(arr_label);
        if (obj == nullptr ||
            static_cast<std::size_t>(entry_idx) >= obj->entries.size()) {
          continue;
        }
        any = true;
        // Copy: creating the key object below may reallocate the arena
        // and invalidate a reference into obj->entries.
        const ArrayEntry e = obj->entries[static_cast<std::size_t>(entry_idx)];
        if (key_id != kNoVar) {
          const Label key = graph_.add_concrete(
              e.int_key ? Value(strutil::php_intval(e.key)) : Value(e.key),
              stmt.loc());
          env.set(key_id, key);
        }
        if (value_id != kNoVar) env.set(value_id, e.value);
      }
      if (!any) break;
      exec_stmts(stmt.body);
      // NOTE: forked envs inside the body lose per-entry alignment for
      // subsequent entries; this approximation stops unrolling then. A
      // fork whose arms merged back still counts (the weight grew), so
      // merging never unrolls further than an unmerged run would.
      if (envs_.size() != known_labels.size() ||
          total_weight(envs_) != entry_weight) {
        break;
      }
    }
    for (Env& env : envs_) result.push_back(std::move(env));
    envs_.clear();
  }

  // Unknown iterables: fork skip / enter-once.
  if (!unknown_envs.empty()) {
    envs_ = std::move(unknown_envs);
    std::vector<Label> guards;
    std::size_t idx = 0;
    for (Env& env : envs_) {
      if (!env.running()) continue;
      guards.push_back(
          fresh_symbol("loop_nonempty", Type::kBool, stmt.loc()));
      // Bind the iteration variables to symbolic elements derived from
      // the iterable via array_access, preserving taint flow.
      const Label elem = graph_.add_op(
          OpKind::kArrayAccess, Type::kUnknown,
          {unknown_labels[idx],
           fresh_symbol("foreach_key", Type::kUnknown, stmt.loc())},
          stmt.loc());
      if (value_id != kNoVar) env.set(value_id, elem);
      if (key_id != kNoVar) {
        env.set(key_id, fresh_symbol("foreach_k", Type::kUnknown, stmt.loc()));
      }
      ++idx;
    }
    std::vector<Env> base = std::move(envs_);
    envs_.clear();
    exec_branch(guards, /*negate=*/true, {}, base, result);
    exec_branch(guards, /*negate=*/false, stmt.body, std::move(base), result);
  }

  envs_ = std::move(result);
  check_budget();
}

void Interpreter::eval_include(const phpast::IncludeExpr& include) {
  const SourceLoc loc = include.loc();
  // Evaluate the path for its side effects, then discard it.
  eval_expr(*include.path);
  for (Env& env : envs_) {
    if (env.running()) pop(env);
  }

  const phpast::PhpFile* target =
      program_.include_target(*include.path, current_file_);
  const bool once =
      include.include_kind == phpast::IncludeKind::kIncludeOnce ||
      include.include_kind == phpast::IncludeKind::kRequireOnce;
  const bool cycle =
      target != nullptr &&
      std::find(include_chain_.begin(), include_chain_.end(), target->name) !=
          include_chain_.end();
  const bool depth_ok =
      include_chain_.size() <
      static_cast<std::size_t>(std::max(budget_.max_include_depth, 0));

  if (target == nullptr || cycle || !depth_ok ||
      (once && included_once_.contains(target->name))) {
    // Unresolvable (or suppressed): the include evaluates to an opaque
    // value, exactly as before this feature.
    const Label sym = fresh_symbol("include", Type::kUnknown, loc);
    for (Env& env : envs_) {
      if (env.running()) push(env, sym);
    }
    return;
  }

  included_once_.insert(target->name);
  include_chain_.push_back(target->name);
  const FileId includer = std::exchange(current_file_, target->file);
  exec_stmts(as_span(target->statements));
  current_file_ = includer;
  include_chain_.pop_back();
  // A PHP include evaluates to 1 unless the file returns a value; the
  // distinction rarely matters, so push the conventional 1.
  const Label one = graph_.add_concrete(Value(std::int64_t{1}), loc);
  for (Env& env : envs_) {
    if (env.running()) push(env, one);
  }
}

// ---------------------------------------------------------------------------
// Expressions

void Interpreter::eval_expr(const Expr& expr) {
  if (aborted_) return;
  const SourceLoc loc = expr.loc();
  switch (expr.kind()) {
    case NodeKind::kNullLit: {
      const Label l = graph_.add_concrete(Value(std::monostate{}), loc);
      for (Env& env : envs_) {
        if (env.running()) push(env, l);
      }
      break;
    }
    case NodeKind::kBoolLit: {
      const Label l = graph_.add_concrete(
          Value(static_cast<const phpast::BoolLit&>(expr).value), loc);
      for (Env& env : envs_) {
        if (env.running()) push(env, l);
      }
      break;
    }
    case NodeKind::kIntLit: {
      const Label l = graph_.add_concrete(
          Value(static_cast<const phpast::IntLit&>(expr).value), loc);
      for (Env& env : envs_) {
        if (env.running()) push(env, l);
      }
      break;
    }
    case NodeKind::kFloatLit: {
      const Label l = graph_.add_concrete(
          Value(static_cast<const phpast::FloatLit&>(expr).value), loc);
      for (Env& env : envs_) {
        if (env.running()) push(env, l);
      }
      break;
    }
    case NodeKind::kStringLit: {
      const Label l = graph_.add_concrete(
          Value(std::string(static_cast<const phpast::StringLit&>(expr).value)),
          loc);
      for (Env& env : envs_) {
        if (env.running()) push(env, l);
      }
      break;
    }
    case NodeKind::kVariable:
      eval_variable(static_cast<const phpast::Variable&>(expr));
      break;
    case NodeKind::kConstFetch: {
      const auto& cf = static_cast<const phpast::ConstFetch&>(expr);
      const Label l = builtin_const_value(*this, cf.name, loc);
      for (Env& env : envs_) {
        if (env.running()) push(env, l);
      }
      break;
    }
    case NodeKind::kArrayAccess:
      eval_array_access(static_cast<const phpast::ArrayAccess&>(expr));
      break;
    case NodeKind::kPropertyAccess: {
      const auto& pa = static_cast<const phpast::PropertyAccess&>(expr);
      eval_expr(*pa.base);
      const Label key =
          graph_.add_concrete(Value(strutil::cat("->", pa.name)), loc);
      for (Env& env : envs_) {
        if (!env.running()) continue;
        const Label base = pop(env);
        const Object* obj = graph_.find(base);
        if (obj != nullptr && obj->kind == Object::Kind::kArray) {
          bool found = false;
          for (const ArrayEntry& e : obj->entries) {
            if (!e.int_key && e.key == strutil::cat("->", pa.name)) {
              push(env, e.value);
              found = true;
              break;
            }
          }
          if (found) continue;
        }
        push(env, graph_.add_op(OpKind::kArrayAccess, Type::kUnknown,
                                {base, key}, loc));
      }
      break;
    }
    case NodeKind::kUnary: {
      const auto& un = static_cast<const phpast::Unary&>(expr);
      switch (un.op) {
        case UnaryOp::kNot: {
          eval_expr(*un.operand);
          for (Env& env : envs_) {
            if (!env.running()) continue;
            const Label v = pop(env);
            push(env, graph_.add_op(OpKind::kNot, Type::kBool, {v}, loc));
          }
          break;
        }
        case UnaryOp::kMinus: {
          eval_expr(*un.operand);
          for (Env& env : envs_) {
            if (!env.running()) continue;
            const Label v = pop(env);
            push(env, graph_.add_op(OpKind::kNegate, Type::kInt, {v}, loc));
          }
          break;
        }
        case UnaryOp::kPlus:
        case UnaryOp::kErrorSuppress:
        case UnaryOp::kPrint:
          eval_expr(*un.operand);  // value passes through
          break;
        case UnaryOp::kBitNot: {
          eval_expr(*un.operand);
          for (Env& env : envs_) {
            if (!env.running()) continue;
            const Label v = pop(env);
            push(env, graph_.add_op(OpKind::kBitXor, Type::kInt,
                                    {v, graph_.add_concrete(
                                            Value(std::int64_t{-1}), loc)},
                                    loc));
          }
          break;
        }
        case UnaryOp::kPreInc:
        case UnaryOp::kPreDec:
        case UnaryOp::kPostInc:
        case UnaryOp::kPostDec: {
          eval_expr(*un.operand);
          const bool inc =
              un.op == UnaryOp::kPreInc || un.op == UnaryOp::kPostInc;
          const bool pre =
              un.op == UnaryOp::kPreInc || un.op == UnaryOp::kPreDec;
          const Label one = graph_.add_concrete(Value(std::int64_t{1}), loc);
          const VarId target_id =
              un.operand->kind() == NodeKind::kVariable
                  ? vid(static_cast<const phpast::Variable&>(*un.operand).name)
                  : kNoVar;
          for (Env& env : envs_) {
            if (!env.running()) continue;
            const Label old_value = pop(env);
            const Label new_value =
                graph_.add_op(inc ? OpKind::kAdd : OpKind::kSub, Type::kInt,
                              {old_value, one}, loc);
            if (target_id != kNoVar) env.set(target_id, new_value);
            push(env, pre ? new_value : old_value);
          }
          break;
        }
      }
      break;
    }
    case NodeKind::kBinary: {
      const auto& bin = static_cast<const phpast::Binary&>(expr);
      eval_expr(*bin.lhs);
      eval_expr(*bin.rhs);
      const OpKind op = op_kind_for(bin.op);
      for (Env& env : envs_) {
        if (!env.running()) continue;
        const Label rhs = pop(env);
        const Label lhs = pop(env);
        const Type lt = graph_.at(lhs).type;
        const Type rt = graph_.at(rhs).type;
        const Type result = result_type_for(op, lt, rt);
        // Light-weight type inference (§III-B4): operand symbols of a
        // concatenation must be strings; of arithmetic, ints.
        if (op == OpKind::kConcat) {
          graph_.refine_type(lhs, Type::kString);
          graph_.refine_type(rhs, Type::kString);
        } else if (result == Type::kInt || result == Type::kFloat) {
          graph_.refine_type(lhs, Type::kInt);
          graph_.refine_type(rhs, Type::kInt);
        }
        push(env, graph_.add_op(op, result, {lhs, rhs}, loc));
      }
      break;
    }
    case NodeKind::kAssign:
      eval_assign(static_cast<const phpast::Assign&>(expr));
      break;
    case NodeKind::kTernary: {
      const auto& t = static_cast<const phpast::Ternary&>(expr);
      eval_expr(*t.cond);
      if (t.then_expr != nullptr) {
        eval_expr(*t.then_expr);
      }
      eval_expr(*t.else_expr);
      for (Env& env : envs_) {
        if (!env.running()) continue;
        const Label else_v = pop(env);
        const Label then_v = t.then_expr != nullptr ? pop(env) : kNoLabel;
        const Label cond_v = pop(env);
        // Elvis `a ?: b` uses the condition value as the then-value.
        const Label then_final = then_v != kNoLabel ? then_v : cond_v;
        const Type type = result_type_for(OpKind::kTernary,
                                          graph_.at(then_final).type,
                                          graph_.at(else_v).type);
        push(env, graph_.add_op(OpKind::kTernary, type,
                                {cond_v, then_final, else_v}, loc));
      }
      break;
    }
    case NodeKind::kCast: {
      const auto& cast = static_cast<const phpast::Cast&>(expr);
      eval_expr(*cast.operand);
      for (Env& env : envs_) {
        if (!env.running()) continue;
        const Label v = pop(env);
        switch (cast.cast) {
          case phpast::CastKind::kInt:
            push(env, graph_.add_func("intval", Type::kInt, {v}, loc));
            break;
          case phpast::CastKind::kString:
            push(env, graph_.add_func("strval", Type::kString, {v}, loc));
            break;
          case phpast::CastKind::kBool:
            push(env, graph_.add_func("boolval", Type::kBool, {v}, loc));
            break;
          default:
            push(env, v);  // float/array/object casts pass through
            break;
        }
      }
      break;
    }
    case NodeKind::kCall:
      eval_call(static_cast<const phpast::Call&>(expr));
      break;
    case NodeKind::kMethodCall: {
      const auto& call = static_cast<const phpast::MethodCall&>(expr);
      eval_expr(*call.object);
      for (Env& env : envs_) {
        if (env.running()) pop(env);  // receiver is not modeled
      }
      eval_resolved_call(expr, call.args, strutil::to_lower(call.method));
      break;
    }
    case NodeKind::kStaticCall: {
      const auto& call = static_cast<const phpast::StaticCall&>(expr);
      eval_resolved_call(expr, call.args, strutil::to_lower(call.method));
      break;
    }
    case NodeKind::kNew: {
      const auto& n = static_cast<const phpast::New&>(expr);
      for (const auto& a : n.args) {
        eval_expr(*a);
      }
      for (Env& env : envs_) {
        if (!env.running()) continue;
        for (std::size_t i = 0; i < n.args.size(); ++i) pop(env);
        push(env, fresh_symbol(strutil::cat("obj_", n.class_name),
                               Type::kUnknown, loc));
      }
      break;
    }
    case NodeKind::kArrayLit: {
      const auto& lit = static_cast<const phpast::ArrayLit&>(expr);
      for (const auto& item : lit.items) {
        if (item.key != nullptr) eval_expr(*item.key);
        eval_expr(*item.value);
      }
      for (Env& env : envs_) {
        if (!env.running()) continue;
        // Pop in reverse, then build entries in source order.
        std::vector<std::pair<Label, Label>> kv(lit.items.size());
        for (std::size_t i = lit.items.size(); i-- > 0;) {
          kv[i].second = pop(env);
          kv[i].first = lit.items[i].key != nullptr ? pop(env) : kNoLabel;
        }
        std::vector<ArrayEntry> entries;
        std::int64_t next_index = 0;
        for (const auto& [key_label, value_label] : kv) {
          ArrayEntry e;
          e.value = value_label;
          if (key_label == kNoLabel) {
            e.key = std::to_string(next_index++);
            e.int_key = true;
          } else {
            const Object& key_obj = graph_.at(key_label);
            if (key_obj.kind == Object::Kind::kConcrete) {
              if (key_obj.type == Type::kInt) {
                const auto iv = std::get<std::int64_t>(key_obj.value);
                e.key = std::to_string(iv);
                e.int_key = true;
                next_index = std::max(next_index, iv + 1);
              } else {
                e.key = value_to_string(key_obj.value);
              }
            } else {
              e.key = "?" + std::to_string(key_label);  // symbolic key
            }
          }
          entries.push_back(std::move(e));
        }
        push(env, graph_.add_array(std::move(entries), loc));
      }
      break;
    }
    case NodeKind::kIsset: {
      const auto& is = static_cast<const phpast::Isset&>(expr);
      for (const auto& e : is.operands) eval_expr(*e);
      for (Env& env : envs_) {
        if (!env.running()) continue;
        std::vector<Label> children(is.operands.size());
        for (std::size_t i = is.operands.size(); i-- > 0;) {
          children[i] = pop(env);
        }
        push(env, graph_.add_func("isset", Type::kBool, std::move(children),
                                  loc));
      }
      break;
    }
    case NodeKind::kEmpty: {
      const auto& em = static_cast<const phpast::Empty&>(expr);
      eval_expr(*em.operand);
      for (Env& env : envs_) {
        if (!env.running()) continue;
        const Label v = pop(env);
        push(env, graph_.add_func("empty", Type::kBool, {v}, loc));
      }
      break;
    }
    case NodeKind::kIncludeExpr:
      eval_include(static_cast<const phpast::IncludeExpr&>(expr));
      break;
    case NodeKind::kExitExpr: {
      const auto& ex = static_cast<const phpast::ExitExpr&>(expr);
      if (ex.operand != nullptr) eval_expr(*ex.operand);
      for (Env& env : envs_) {
        if (!env.running()) continue;
        if (ex.operand != nullptr) pop(env);
        env.set_status(Env::Status::kExited);
        push(env, kNoLabel);
      }
      break;
    }
    case NodeKind::kListExpr: {
      // list() only appears as an assignment target; bare evaluation
      // yields a fresh symbol.
      const Label sym = fresh_symbol("list", Type::kArray, loc);
      for (Env& env : envs_) {
        if (env.running()) push(env, sym);
      }
      break;
    }
    case NodeKind::kClosure: {
      const Label sym = fresh_symbol("closure", Type::kUnknown, loc);
      for (Env& env : envs_) {
        if (env.running()) push(env, sym);
      }
      break;
    }
    default: {
      diags_.warning(loc, "unsupported expression kind: " +
                              std::string(node_kind_name(expr.kind())));
      const Label sym = fresh_symbol("unsupported", Type::kUnknown, loc);
      for (Env& env : envs_) {
        if (env.running()) push(env, sym);
      }
      break;
    }
  }
}

void Interpreter::eval_variable(const phpast::Variable& var) {
  const SourceLoc loc = var.loc();
  if (phpast::is_superglobal(var.name)) {
    auto it = superglobals_.find(var.name);
    if (it == superglobals_.end()) {
      const bool is_files = var.name == "_FILES";
      const Label sym =
          graph_.add_symbol(strutil::cat("$", var.name), Type::kArray, loc,
                            /*files_tainted=*/is_files);
      it = superglobals_.emplace(std::string(var.name), sym).first;
    }
    for (Env& env : envs_) {
      if (env.running()) push(env, it->second);
    }
    return;
  }
  const VarId id = vid(var.name);
  for (Env& env : envs_) {
    if (!env.running()) continue;
    Label label = env.get(id);
    if (label == kNoLabel) {
      label = fresh_symbol(var.name, Type::kUnknown, loc);
      env.set(id, label);
    }
    push(env, label);
  }
}

void Interpreter::eval_array_access(const phpast::ArrayAccess& access) {
  const SourceLoc loc = access.loc();
  eval_expr(*access.base);
  if (access.index != nullptr) {
    eval_expr(*access.index);
  }
  for (Env& env : envs_) {
    if (!env.running()) continue;
    const Label index =
        access.index != nullptr ? pop(env) : kNoLabel;
    const Label base = pop(env);
    const Object& base_obj = graph_.at(base);

    // $_FILES[field]: return the pre-structured entry array (§III-B4).
    if (base_obj.kind == Object::Kind::kSymbol && base_obj.name == "$_FILES") {
      std::string field_key = "any";
      if (index != kNoLabel) {
        const Object& idx_obj = graph_.at(index);
        if (idx_obj.kind == Object::Kind::kConcrete) {
          field_key = value_to_string(idx_obj.value);
        }
      }
      push(env, files_entry_array(field_key, loc));
      continue;
    }

    // Known-structure array with a concrete index: direct entry lookup.
    if (base_obj.kind == Object::Kind::kArray && index != kNoLabel) {
      const Object& idx_obj = graph_.at(index);
      if (idx_obj.kind == Object::Kind::kConcrete) {
        const std::string key = value_to_string(idx_obj.value);
        bool found = false;
        for (const ArrayEntry& e : base_obj.entries) {
          if (e.key == key) {
            push(env, e.value);
            found = true;
            break;
          }
        }
        if (found) continue;
      }
    }

    // General case: an array_access operation node (paper §III-B3),
    // preserving the (array, index) edge order.
    const Label idx_label =
        index != kNoLabel ? index
                          : fresh_symbol("idx", Type::kUnknown, loc);
    push(env, graph_.add_op(OpKind::kArrayAccess, Type::kUnknown,
                            {base, idx_label}, loc));
  }
}

void Interpreter::assign_into(Env& env, const Expr& target, Label value,
                              SourceLoc loc) {
  switch (target.kind()) {
    case NodeKind::kVariable: {
      const auto& var = static_cast<const phpast::Variable&>(target);
      env.set(vid(var.name), value);
      return;
    }
    case NodeKind::kArrayAccess: {
      const auto& access = static_cast<const phpast::ArrayAccess&>(target);
      // Resolve the base's current value for this env (without pushing
      // through the shared eval path, which would touch all envs).
      // Only variable/array-access/property bases are supported; other
      // bases degrade to no-op.
      std::string key;
      bool int_key = false;
      bool generated_key = false;  // synthesized, not from the source
      if (access.index == nullptr) {
        key = "#push" + std::to_string(graph_.object_count());
        int_key = true;
        generated_key = true;
      } else if (access.index->kind() == NodeKind::kStringLit) {
        key = static_cast<const phpast::StringLit&>(*access.index).value;
      } else if (access.index->kind() == NodeKind::kIntLit) {
        key = std::to_string(
            static_cast<const phpast::IntLit&>(*access.index).value);
        int_key = true;
      } else {
        key = "?dyn" + std::to_string(graph_.object_count());
        generated_key = true;
      }
      // Current base value: only direct-variable bases can be rebound.
      if (access.base->kind() == NodeKind::kVariable) {
        const auto& var = static_cast<const phpast::Variable&>(*access.base);
        const VarId base_id = vid(var.name);
        const Label base = env.get(base_id);
        std::vector<ArrayEntry> entries;
        if (const Object* obj = graph_.find(base);
            obj != nullptr && obj->kind == Object::Kind::kArray) {
          entries = obj->entries;
        }
        if (generated_key) {
          // object_count() no longer advances on every add (hash-consing
          // can answer from existing nodes), so two synthesized keys may
          // collide; a collision must append, never overwrite the
          // earlier push.
          const std::string base_key = key;
          int bump = 0;
          auto taken = [&entries](const std::string& k) {
            for (const ArrayEntry& e : entries) {
              if (e.key == k) return true;
            }
            return false;
          };
          while (taken(key)) key = base_key + "_" + std::to_string(++bump);
        }
        bool replaced = false;
        for (ArrayEntry& e : entries) {
          if (e.key == key) {
            e.value = value;
            replaced = true;
            break;
          }
        }
        if (!replaced) entries.push_back(ArrayEntry{key, int_key, value});
        env.set(base_id, graph_.add_array(std::move(entries), loc));
      }
      return;
    }
    case NodeKind::kPropertyAccess: {
      const auto& pa = static_cast<const phpast::PropertyAccess&>(target);
      if (pa.base->kind() == NodeKind::kVariable) {
        const auto& var = static_cast<const phpast::Variable&>(*pa.base);
        const VarId base_id = vid(var.name);
        const Label base = env.get(base_id);
        std::vector<ArrayEntry> entries;
        if (const Object* obj = graph_.find(base);
            obj != nullptr && obj->kind == Object::Kind::kArray) {
          entries = obj->entries;
        }
        const std::string key = strutil::cat("->", pa.name);
        bool replaced = false;
        for (ArrayEntry& e : entries) {
          if (e.key == key) {
            e.value = value;
            replaced = true;
            break;
          }
        }
        if (!replaced) entries.push_back(ArrayEntry{key, false, value});
        env.set(base_id, graph_.add_array(std::move(entries), loc));
      }
      return;
    }
    case NodeKind::kListExpr: {
      const auto& list = static_cast<const phpast::ListExpr&>(target);
      // Copy the entries: element assignment below adds objects, which
      // may reallocate the arena behind a held reference.
      std::vector<ArrayEntry> entries;
      bool is_array = false;
      if (const Object* obj = graph_.find(value);
          obj != nullptr && obj->kind == Object::Kind::kArray) {
        is_array = true;
        entries = obj->entries;
      }
      for (std::size_t i = 0; i < list.elements.size(); ++i) {
        if (list.elements[i] == nullptr) continue;
        Label element = kNoLabel;
        if (is_array && i < entries.size()) {
          element = entries[i].value;
        } else {
          const Label idx = graph_.add_concrete(
              Value(static_cast<std::int64_t>(i)), loc);
          element = graph_.add_op(OpKind::kArrayAccess, Type::kUnknown,
                                  {value, idx}, loc);
        }
        assign_into(env, *list.elements[i], element, loc);
      }
      return;
    }
    default:
      diags_.warning(loc, "unsupported assignment target skipped");
      return;
  }
}

void Interpreter::eval_assign(const phpast::Assign& assign) {
  const SourceLoc loc = assign.loc();
  if (assign.compound_op) {
    // target op= value  ==>  target = target op value.
    eval_expr(*assign.target);
    eval_expr(*assign.value);
    const OpKind op = op_kind_for(*assign.compound_op);
    for (Env& env : envs_) {
      if (!env.running()) continue;
      const Label rhs = pop(env);
      const Label lhs = pop(env);
      const Type result =
          result_type_for(op, graph_.at(lhs).type, graph_.at(rhs).type);
      if (op == OpKind::kConcat) {
        graph_.refine_type(lhs, Type::kString);
        graph_.refine_type(rhs, Type::kString);
      }
      const Label combined = graph_.add_op(op, result, {lhs, rhs}, loc);
      assign_into(env, *assign.target, combined, loc);
      push(env, combined);
    }
    return;
  }
  eval_expr(*assign.value);
  for (Env& env : envs_) {
    if (!env.running()) continue;
    const Label value = pop(env);
    assign_into(env, *assign.target, value, loc);
    push(env, value);
  }
}

void Interpreter::eval_call(const phpast::Call& call) {
  const SourceLoc loc = call.loc();
  if (call.is_dynamic()) {
    eval_expr(*call.callee_expr);
    for (const auto& a : call.args) eval_expr(*a);
    for (Env& env : envs_) {
      if (!env.running()) continue;
      for (std::size_t i = 0; i < call.args.size() + 1; ++i) pop(env);
      push(env, fresh_symbol("dyncall", Type::kUnknown, loc));
    }
    return;
  }

  if (sink_registry_.is_sink(call.callee)) {
    for (const auto& a : call.args) eval_expr(*a);
    record_sink(call.callee, call.args.size(), loc);
    return;
  }

  eval_resolved_call(call, call.args, call.callee);
}

void Interpreter::eval_resolved_call(const Expr& call, phpast::ExprList args,
                                     std::string_view builtin) {
  if (const Program::FunctionInfo* fn = program_.callee(call, sink_registry_)) {
    for (const Expr* a : args) eval_expr(*a);
    eval_user_function(*fn, args.size(), call.loc());
    return;
  }
  eval_builtin_or_unknown(
      builtin, std::vector<const Expr*>(args.begin(), args.end()), call.loc());
}

void Interpreter::record_sink(std::string_view name, std::size_t arg_count,
                              SourceLoc loc) {
  for (Env& env : envs_) {
    if (!env.running()) continue;
    std::vector<Label> args(arg_count);
    for (std::size_t i = arg_count; i-- > 0;) args[i] = pop(env);
    SinkHit hit;
    hit.sink_name = name;
    hit.loc = loc;
    if (sink_registry_.signature(name) == SinkSignature::kSrcDst) {
      hit.src = arg_count > 0 ? args[0] : kNoLabel;
      hit.dst = arg_count > 1 ? args[1] : kNoLabel;
    } else {  // f(dst, src), e.g. file_put_contents
      hit.dst = arg_count > 0 ? args[0] : kNoLabel;
      hit.src = arg_count > 1 ? args[1] : kNoLabel;
    }
    hit.reachability = env.cur();
    sinks_.push_back(hit);
    // The sink call itself evaluates to a boolean in the program.
    push(env, graph_.add_func(std::string(name), Type::kBool,
                              std::move(args), loc));
  }
}

void Interpreter::eval_builtin_or_unknown(
    std::string_view name, const std::vector<const Expr*>& arg_exprs,
    SourceLoc loc) {
  for (const Expr* a : arg_exprs) eval_expr(*a);
  const bool terminates = is_terminator(name);
  for (Env& env : envs_) {
    if (!env.running()) continue;
    std::vector<Label> args(arg_exprs.size());
    for (std::size_t i = arg_exprs.size(); i-- > 0;) args[i] = pop(env);
    BuiltinContext ctx{*this, graph_, env, loc, args, arg_exprs};
    push(env, dispatch_builtin(ctx, name));
    if (terminates) env.set_status(Env::Status::kExited);
  }
}

void Interpreter::eval_user_function(const Program::FunctionInfo& info,
                                     std::size_t arg_count, SourceLoc loc) {
  // Args are already on each running env's stack. Guard against
  // recursion and excessive depth; both degrade to a fresh symbol.
  const bool recursive =
      std::find(call_chain_.begin(), call_chain_.end(), info.name) !=
      call_chain_.end();
  if (recursive || call_chain_.size() >= kMaxCallDepth) {
    for (Env& env : envs_) {
      if (!env.running()) continue;
      for (std::size_t i = 0; i < arg_count; ++i) pop(env);
      push(env, fresh_symbol("call_" + info.name, Type::kUnknown, loc));
    }
    return;
  }

  const ForkSiteScope fork_scope(budget_.events, envs_,
                                 profile::ForkKind::kCall, loc, info.name);
  call_chain_.push_back(info.name);
  const FileId caller_file = std::exchange(current_file_, info.file);
  const phpast::FunctionDecl& fn = *info.decl;

  // Set non-running environments aside: they take no part in the call,
  // and their frame stacks (possibly belonging to an outer call) must
  // not be touched by the post-call frame pop below.
  std::vector<Env> set_aside;
  {
    std::vector<Env> running;
    for (Env& env : envs_) {
      if (env.running()) {
        running.push_back(std::move(env));
      } else {
        set_aside.push_back(std::move(env));
      }
    }
    envs_ = std::move(running);
  }

  std::vector<VarId> param_ids;
  param_ids.reserve(fn.params.size());
  for (const phpast::Param& p : fn.params) param_ids.push_back(vid(p.name));

  for (Env& env : envs_) {
    std::vector<Label> args(arg_count);
    for (std::size_t i = arg_count; i-- > 0;) args[i] = pop(env);
    env.frames().push_back(env.entries());
    env.set_entries({});
    for (std::size_t i = 0; i < fn.params.size(); ++i) {
      if (i < args.size()) {
        env.set(param_ids[i], args[i]);
      } else if (fn.params[i].default_value != nullptr) {
        // Evaluate simple literal defaults; others degrade to symbols.
        const Expr& def = *fn.params[i].default_value;
        Label label;
        switch (def.kind()) {
          case NodeKind::kIntLit:
            label = graph_.add_concrete(
                Value(static_cast<const phpast::IntLit&>(def).value), loc);
            break;
          case NodeKind::kStringLit:
            label = graph_.add_concrete(
                Value(std::string(
                    static_cast<const phpast::StringLit&>(def).value)),
                loc);
            break;
          case NodeKind::kBoolLit:
            label = graph_.add_concrete(
                Value(static_cast<const phpast::BoolLit&>(def).value), loc);
            break;
          case NodeKind::kNullLit:
            label = graph_.add_concrete(Value(std::monostate{}), loc);
            break;
          default:
            label = fresh_symbol(strutil::cat("default_", fn.params[i].name),
                                 Type::kUnknown, loc);
            break;
        }
        env.set(param_ids[i], label);
      } else {
        env.set(param_ids[i],
                fresh_symbol(strutil::cat("param_", fn.params[i].name),
                             Type::kUnknown, loc));
      }
    }
  }

  exec_stmts(fn.body);

  const Label null_label = graph_.add_concrete(Value(std::monostate{}), loc);
  for (Env& env : envs_) {
    if (env.frames().empty()) continue;  // defensive
    Label result = null_label;
    if (env.status() == Env::Status::kReturned) {
      result =
          env.return_value() != kNoLabel ? env.return_value() : null_label;
      env.set_status(Env::Status::kRunning);
      env.set_return_value(kNoLabel);
    }
    env.set_entries(std::move(env.frames().back()));
    env.frames().pop_back();
    if (env.running()) push(env, result);
  }
  for (Env& env : set_aside) envs_.push_back(std::move(env));
  current_file_ = caller_file;
  call_chain_.pop_back();
}

}  // namespace uchecker::core
