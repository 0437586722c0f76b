#include "core/interp/slice.h"

#include <map>
#include <set>
#include <utility>

#include "phpast/dataflow.h"
#include "phpast/visitor.h"
#include "support/strutil.h"

namespace uchecker::core {

using phpast::NodeKind;

namespace {

// Builtins that read or bind variables, or call functions, by a name
// known only at run time.
bool is_dynamic_builtin(std::string_view name) {
  return name == "extract" || name == "compact" || name == "eval" ||
         name == "parse_str" || name == "get_defined_vars" ||
         name == "call_user_func" || name == "call_user_func_array";
}

// Nested function, class and closure bodies are separate scopes: the
// interpreter reaches a function body only through a call to it.
bool is_nested_scope(const phpast::Node& n) {
  return n.kind() == NodeKind::kFunctionDecl ||
         n.kind() == NodeKind::kClassDecl || n.kind() == NodeKind::kClosure;
}

// The variable an assignment to `target` rebinds (through subscripts
// and property accesses), or null.
const phpast::Variable* target_root(const phpast::Expr& target) {
  const phpast::Expr* e = &target;
  for (;;) {
    if (e->kind() == NodeKind::kArrayAccess) {
      e = static_cast<const phpast::ArrayAccess&>(*e).base;
    } else if (e->kind() == NodeKind::kPropertyAccess) {
      e = static_cast<const phpast::PropertyAccess&>(*e).base;
    } else {
      break;
    }
  }
  return e->kind() == NodeKind::kVariable
             ? static_cast<const phpast::Variable*>(e)
             : nullptr;
}

class SliceBuilder {
 public:
  SliceBuilder(const Program& program, const SinkRegistry& sinks,
               const IncludeResolver& resolve_include)
      : program_(program), sinks_(sinks), resolve_include_(resolve_include) {}

  void add_root(const AnalysisRoot& root) {
    if (root.function != nullptr) {
      add_function(*root.function, /*returns_used=*/false);
      // The interpreter binds the parameters from the call site locality
      // captured, evaluating its arguments first.
      if (root.binding_call != nullptr) {
        const phpast::ExprList& args = root.binding_call->args;
        for (const phpast::Expr* a : args) scan_node(*a, false);
        bind_params(*root.function, args);
      }
    } else if (root.file != nullptr) {
      add_file(*root.file);
    }
    while (!pending_.empty() && !dynamic_) {
      const auto [body, returns_used] = pending_.back();
      pending_.pop_back();
      scan(body, returns_used);
    }
  }

  [[nodiscard]] std::optional<std::vector<std::string>> solve() {
    if (dynamic_ || !saw_sink_) return std::nullopt;
    std::vector<bool> relevant(names_.size(), false);
    for (const int v : seeds_) relevant[v] = true;
    const auto mark = [&relevant](const std::vector<int>& vars) {
      bool changed = false;
      for (const int v : vars) {
        if (!relevant[v]) relevant[v] = changed = true;
      }
      return changed;
    };
    for (bool changed = true; changed;) {
      changed = false;
      for (const auto& [target, deps] : flows_) {
        if (relevant[target]) changed |= mark(deps);
      }
      for (const Branch& b : branches_) {
        bool matters = b.pinned;
        for (const int w : b.writes) matters = matters || relevant[w];
        if (matters) changed |= mark(b.conds);
      }
    }
    std::vector<std::string> out;
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (relevant[i]) out.push_back(names_[i]);
    }
    return out;
  }

 private:
  struct Branch {
    std::vector<int> conds;   // variables the fork's conditions read
    std::vector<int> writes;  // variables its arms may bind
    bool pinned = false;      // arms hold a sink, terminator, call, ...
  };

  int id(std::string_view name) {
    const auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const int v = static_cast<int>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(std::string(name), v);
    return v;
  }

  void add_function(const phpast::FunctionDecl& fn, bool returns_used) {
    if (!functions_seen_.insert(&fn).second) return;
    for (const phpast::Param& p : fn.params) dynamic_ = dynamic_ || p.by_ref;
    pending_.emplace_back(fn.body, returns_used);
  }

  void add_file(const phpast::PhpFile& file) {
    if (!files_seen_.insert(&file).second) return;
    pending_.emplace_back(as_span(file.statements), false);
  }

  // The user function a call node inlines, exactly as the interpreter
  // resolves it (sinks first; methods by bare name; static calls by
  // qualified name, then bare name).
  [[nodiscard]] const Program::FunctionInfo* user_function(
      const phpast::Node& n) const {
    std::string name;
    if (n.kind() == NodeKind::kCall) {
      const auto& call = static_cast<const phpast::Call&>(n);
      if (call.is_dynamic() || sinks_.is_sink(call.callee)) return nullptr;
      name = call.callee;
    } else if (n.kind() == NodeKind::kMethodCall) {
      name = strutil::to_lower(static_cast<const phpast::MethodCall&>(n).method);
    } else if (n.kind() == NodeKind::kStaticCall) {
      const auto& call = static_cast<const phpast::StaticCall&>(n);
      const auto it = program_.functions.find(
          strutil::to_lower(call.class_name) + "::" +
          strutil::to_lower(call.method));
      if (it != program_.functions.end()) return &it->second;
      name = strutil::to_lower(call.method);
    } else {
      return nullptr;
    }
    const auto it = program_.functions.find(name);
    return it != program_.functions.end() ? &it->second : nullptr;
  }

  // The builtin name a call node dispatches to when it is not a user
  // function ("" for dynamic calls).
  [[nodiscard]] static std::string builtin_name(const phpast::Node& n) {
    switch (n.kind()) {
      case NodeKind::kCall:
        return std::string(static_cast<const phpast::Call&>(n).callee);
      case NodeKind::kMethodCall:
        return strutil::to_lower(
            static_cast<const phpast::MethodCall&>(n).method);
      case NodeKind::kStaticCall:
        return strutil::to_lower(
            static_cast<const phpast::StaticCall&>(n).method);
      default:
        return {};
    }
  }

  [[nodiscard]] static const phpast::ExprList& call_args(
      const phpast::Node& n) {
    switch (n.kind()) {
      case NodeKind::kMethodCall:
        return static_cast<const phpast::MethodCall&>(n).args;
      case NodeKind::kStaticCall:
        return static_cast<const phpast::StaticCall&>(n).args;
      default:
        return static_cast<const phpast::Call&>(n).args;
    }
  }

  // Variables read anywhere in the subtree.
  void vars(const phpast::Node* node, std::vector<int>& out) {
    if (node == nullptr) return;
    phpast::walk(*node, [&](const phpast::Node& n) {
      if (is_nested_scope(n)) return false;
      if (n.kind() == NodeKind::kVariable) {
        out.push_back(id(static_cast<const phpast::Variable&>(n).name));
      }
      return true;
    });
  }

  // Variables the subtree may bind.
  void writes(const phpast::Node* node, std::vector<int>& out) {
    if (node == nullptr) return;
    const auto bind = [&](const phpast::Expr* target) {
      if (target == nullptr) return;
      if (const phpast::Variable* v = target_root(*target)) {
        out.push_back(id(v->name));
      }
    };
    phpast::walk(*node, [&](const phpast::Node& n) {
      if (is_nested_scope(n)) return false;
      switch (n.kind()) {
        case NodeKind::kAssign:
          bind(static_cast<const phpast::Assign&>(n).target);
          break;
        case NodeKind::kListExpr:
          for (const phpast::Expr* e :
               static_cast<const phpast::ListExpr&>(n).elements) {
            bind(e);
          }
          break;
        case NodeKind::kUnary: {
          const auto& un = static_cast<const phpast::Unary&>(n);
          if (un.op == phpast::UnaryOp::kPreInc ||
              un.op == phpast::UnaryOp::kPreDec ||
              un.op == phpast::UnaryOp::kPostInc ||
              un.op == phpast::UnaryOp::kPostDec) {
            bind(un.operand);
          }
          break;
        }
        case NodeKind::kForeach: {
          const auto& fe = static_cast<const phpast::Foreach&>(n);
          bind(fe.key_var);
          bind(fe.value_var);
          break;
        }
        case NodeKind::kGlobal:
          for (const std::string_view name :
               static_cast<const phpast::Global&>(n).names) {
            out.push_back(id(name));
          }
          break;
        case NodeKind::kStaticVarStmt:
          out.push_back(id(static_cast<const phpast::StaticVarStmt&>(n).name));
          break;
        case NodeKind::kUnsetStmt:
          for (const phpast::Expr* e :
               static_cast<const phpast::UnsetStmt&>(n).operands) {
            bind(e);
          }
          break;
        case NodeKind::kTryCatch:
          for (const phpast::CatchClause& c :
               static_cast<const phpast::TryCatch&>(n).catches) {
            if (!c.variable.empty()) out.push_back(id(c.variable));
          }
          break;
        default:
          break;
      }
      return true;
    });
  }

  // Whether the subtree holds something that makes a fork around it
  // matter beyond the variables it writes: a sink, a terminator, a
  // return, a user-function call or an include (and, when `forks`, any
  // forking statement).
  [[nodiscard]] bool pins(const phpast::Node* node, bool forks) const {
    if (node == nullptr) return false;
    bool pinned = false;
    phpast::walk(*node, [&](const phpast::Node& n) {
      if (pinned || is_nested_scope(n)) return false;
      switch (n.kind()) {
        case NodeKind::kReturn:
        case NodeKind::kExitExpr:
        case NodeKind::kThrowStmt:
        case NodeKind::kIncludeExpr:
          pinned = true;
          break;
        case NodeKind::kCall:
        case NodeKind::kMethodCall:
        case NodeKind::kStaticCall: {
          const std::string name = builtin_name(n);
          pinned = sinks_.is_sink(name) || user_function(n) != nullptr ||
                   is_terminator(name);
          break;
        }
        case NodeKind::kIf:
        case NodeKind::kSwitch:
        case NodeKind::kWhile:
        case NodeKind::kFor:
        case NodeKind::kForeach:
        case NodeKind::kTryCatch:
          pinned = forks;
          break;
        default:
          break;
      }
      return !pinned;
    });
    return pinned;
  }

  // Records one fork: `conds` are evaluated before the arms split,
  // `arm_nodes` run inside the arms.
  void branch(const std::vector<const phpast::Node*>& conds,
              const std::vector<const phpast::Node*>& arm_nodes,
              bool forks) {
    Branch b;
    for (const phpast::Node* c : conds) vars(c, b.conds);
    for (const phpast::Node* a : arm_nodes) {
      writes(a, b.writes);
      b.pinned = b.pinned || pins(a, forks);
    }
    if (!b.conds.empty()) branches_.push_back(std::move(b));
  }

  static void add_stmts(phpast::StmtList body,
                        std::vector<const phpast::Node*>& out) {
    for (const phpast::Stmt* s : body) out.push_back(s);
  }

  void record_branch(const phpast::Node& n) {
    std::vector<const phpast::Node*> conds;
    std::vector<const phpast::Node*> arms;
    bool forks = false;
    switch (n.kind()) {
      case NodeKind::kIf: {
        const auto& s = static_cast<const phpast::If&>(n);
        conds.push_back(s.cond);
        add_stmts(s.then_body, arms);
        for (const phpast::ElseIfClause& c : s.elseifs) {
          conds.push_back(c.cond);
          arms.push_back(c.cond);  // evaluated on the "all false" arm
          add_stmts(c.body, arms);
        }
        add_stmts(s.else_body, arms);
        break;
      }
      case NodeKind::kSwitch: {
        const auto& s = static_cast<const phpast::Switch&>(n);
        conds.push_back(s.subject);
        for (const phpast::SwitchCase& c : s.cases) {
          conds.push_back(c.match);
          arms.push_back(c.match);  // evaluated inside each case's arm
          add_stmts(c.body, arms);
        }
        break;
      }
      case NodeKind::kWhile: {
        const auto& s = static_cast<const phpast::While&>(n);
        conds.push_back(s.cond);
        add_stmts(s.body, arms);
        break;
      }
      case NodeKind::kFor: {
        const auto& s = static_cast<const phpast::For&>(n);
        for (const phpast::Expr* e : s.cond) conds.push_back(e);
        add_stmts(s.body, arms);
        for (const phpast::Expr* e : s.step) arms.push_back(e);
        break;
      }
      case NodeKind::kForeach: {
        const auto& s = static_cast<const phpast::Foreach&>(n);
        conds.push_back(s.iterable);
        add_stmts(s.body, arms);
        forks = true;
        break;
      }
      default:
        return;
    }
    branch(conds, arms, forks);
  }

  void scan(Span<const phpast::StmtPtr> body, bool returns_used) {
    std::vector<phpast::VarBinding> bindings;
    phpast::collect_var_bindings(body, bindings);
    for (const phpast::VarBinding& b : bindings) {
      std::vector<int> deps;
      if (b.site->kind() == NodeKind::kAssign) {
        vars(b.site, deps);  // value plus the target's subscripts
      } else if (b.value != nullptr) {
        vars(b.value, deps);
      } else if (b.site->kind() == NodeKind::kStaticVarStmt) {
        vars(static_cast<const phpast::StaticVarStmt&>(*b.site).init, deps);
      }
      flows_.emplace_back(id(b.name), std::move(deps));
    }

    for (const phpast::Stmt* stmt : body) scan_node(*stmt, returns_used);
  }

  // Parameter i of `fn` is bound to call argument i.
  void bind_params(const phpast::FunctionDecl& fn,
                   const phpast::ExprList& args) {
    for (std::size_t i = 0; i < args.size() && i < fn.params.size(); ++i) {
      std::vector<int> deps;
      vars(args[i], deps);
      flows_.emplace_back(id(fn.params[i].name), std::move(deps));
    }
  }

  void scan_node(const phpast::Node& node, bool returns_used) {
    phpast::walk(node, [&](const phpast::Node& n) {
      if (is_nested_scope(n)) return false;
      switch (n.kind()) {
        case NodeKind::kVariable: {
          const std::string_view name =
              static_cast<const phpast::Variable&>(n).name;
          if (name.starts_with('$') || name == "GLOBALS") dynamic_ = true;
          break;
        }
        case NodeKind::kAssign: {
          const auto& assign = static_cast<const phpast::Assign&>(n);
          if (assign.by_ref) dynamic_ = true;
          // Property writes rebind the base variable; the binding
          // collector leaves them out of its variable model.
          if (assign.target->kind() == NodeKind::kPropertyAccess) {
            if (const phpast::Variable* v = target_root(*assign.target)) {
              std::vector<int> deps;
              vars(&n, deps);
              flows_.emplace_back(id(v->name), std::move(deps));
            }
          }
          break;
        }
        case NodeKind::kCall:
        case NodeKind::kMethodCall:
        case NodeKind::kStaticCall: {
          if (n.kind() == NodeKind::kCall &&
              static_cast<const phpast::Call&>(n).is_dynamic()) {
            dynamic_ = true;
            break;
          }
          const phpast::ExprList& args = call_args(n);
          const std::string name = builtin_name(n);
          if (n.kind() == NodeKind::kCall && sinks_.is_sink(name)) {
            saw_sink_ = true;
            for (const phpast::Expr* a : args) vars(a, seeds_);
          } else if (const Program::FunctionInfo* fn = user_function(n)) {
            bind_params(*fn->decl, args);
            add_function(*fn->decl, /*returns_used=*/true);
          } else if (is_dynamic_builtin(name)) {
            dynamic_ = true;
          }
          break;
        }
        case NodeKind::kIncludeExpr:
          if (const phpast::PhpFile* file = resolve_include_(
                  *static_cast<const phpast::IncludeExpr&>(n).path)) {
            add_file(*file);
          }
          break;
        case NodeKind::kReturn:
          if (returns_used) {
            vars(static_cast<const phpast::Return&>(n).value, seeds_);
          }
          break;
        case NodeKind::kIf:
        case NodeKind::kSwitch:
        case NodeKind::kWhile:
        case NodeKind::kFor:
        case NodeKind::kForeach:
          record_branch(n);
          break;
        default:
          break;
      }
      return true;
    });
  }

  const Program& program_;
  const SinkRegistry& sinks_;
  const IncludeResolver& resolve_include_;

  std::map<std::string, int, std::less<>> ids_;
  std::vector<std::string> names_;
  std::vector<int> seeds_;
  std::vector<std::pair<int, std::vector<int>>> flows_;
  std::vector<Branch> branches_;
  std::vector<std::pair<Span<const phpast::StmtPtr>, bool>> pending_;
  std::set<const phpast::FunctionDecl*> functions_seen_;
  std::set<const phpast::PhpFile*> files_seen_;
  bool saw_sink_ = false;
  bool dynamic_ = false;
};

}  // namespace

std::optional<std::vector<std::string>> sink_relevant_vars(
    const Program& program, const AnalysisRoot& root,
    const SinkRegistry& sinks, const IncludeResolver& resolve_include) {
  SliceBuilder builder(program, sinks, resolve_include);
  builder.add_root(root);
  return builder.solve();
}

}  // namespace uchecker::core
