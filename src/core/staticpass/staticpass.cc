#include "core/staticpass/staticpass.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <utility>

#include "core/staticpass/absdomain.h"
#include "core/staticpass/summaries.h"
#include "phpast/ast.h"
#include "phpast/dataflow.h"
#include "phpast/visitor.h"
#include "support/strutil.h"

namespace uchecker::core::staticpass {
namespace {

using phpast::ArrayAccess;
using phpast::ArrayItem;
using phpast::ArrayLit;
using phpast::Assign;
using phpast::Binary;
using phpast::BinaryOp;
using phpast::Call;
using phpast::Cast;
using phpast::CastKind;
using phpast::ConstFetch;
using phpast::Expr;
using phpast::Foreach;
using phpast::FunctionDecl;
using phpast::If;
using phpast::IntLit;
using phpast::MethodCall;
using phpast::New;
using phpast::Node;
using phpast::NodeKind;
using phpast::Return;
using phpast::StaticCall;
using phpast::Stmt;
using phpast::StmtPtr;
using phpast::StringLit;
using phpast::Switch;
using phpast::Ternary;
using phpast::TryCatch;
using phpast::Unary;
using phpast::UnaryOp;
using phpast::VarBinding;
using phpast::Variable;

using strutil::to_lower;

// The AbsVal taint lattice lives in core/staticpass/absdomain.h so the
// function-summary layer (summaries.h) shares it.
using Kind = AbsVal::Kind;
using Env = std::map<std::string, AbsVal, std::less<>>;

// -------------------------------------------------------------------------
// Destination suffix abstraction (for the vulnerability model's C2: "can
// the destination end with an executable extension?").
struct Suffix {
  enum class Kind : std::uint8_t {
    kLit,       // suffix is one of `texts`; invariant: each text either is
                // the whole string (whole == true) or contains a '.'
    kSafeAtom,  // string ends with a non-empty server token (digits, hash)
    kName,      // suffix is the client-controlled file name
    kExtVar,    // suffix is the guarded extension variable + `trailing`
    kUnknown,
  };

  Kind kind = Kind::kUnknown;
  std::vector<std::string> texts;  // kLit
  bool whole = false;              // kLit: literal is the entire string
  std::string field;               // kName / kExtVar
  bool lowered = false;
  bool basenamed = false;
  std::string trailing;  // kExtVar: constant text appended after the var

  friend bool operator==(const Suffix&, const Suffix&) = default;
};

Suffix unknown_suffix() { return Suffix{}; }

Suffix lit_suffix(std::string_view text, bool whole) {
  Suffix s;
  s.kind = Suffix::Kind::kLit;
  s.texts.push_back(std::string(text));
  s.whole = whole;
  return s;
}

Suffix suffix_join(const Suffix& a, const Suffix& b) {
  if (a == b) return a;
  if (a.kind == Suffix::Kind::kLit && b.kind == Suffix::Kind::kLit) {
    const bool all_whole = a.whole && b.whole;
    auto all_dotted = [](const std::vector<std::string>& ts) {
      return std::all_of(ts.begin(), ts.end(), [](const std::string& t) {
        return t.find('.') != std::string::npos;
      });
    };
    if (all_whole || (all_dotted(a.texts) && all_dotted(b.texts))) {
      Suffix r = a;
      r.whole = all_whole;
      for (const std::string& t : b.texts) {
        if (std::find(r.texts.begin(), r.texts.end(), t) == r.texts.end()) {
          r.texts.push_back(t);
        }
      }
      return r;
    }
    return unknown_suffix();
  }
  if (a.kind == b.kind &&
      (a.kind == Suffix::Kind::kName || a.kind == Suffix::Kind::kExtVar) &&
      a.field == b.field && a.trailing == b.trailing) {
    Suffix r = a;
    r.lowered = a.lowered && b.lowered;
    r.basenamed = a.basenamed && b.basenamed;
    return r;
  }
  if (a.kind == Suffix::Kind::kSafeAtom && b.kind == Suffix::Kind::kSafeAtom) {
    Suffix r;
    r.kind = Suffix::Kind::kSafeAtom;
    return r;
  }
  return unknown_suffix();
}

// -------------------------------------------------------------------------
// Guard facts: conditions known to hold at a sink site.
struct Fact {
  const Expr* cond = nullptr;  // null => switch membership fact
  bool polarity = true;        // cond evaluated to this at the sink
  const Expr* subject = nullptr;          // switch facts only
  std::vector<std::string> case_lits;     // switch facts only
};

struct SinkSite {
  const Call* call = nullptr;
  std::vector<Fact> facts;
};

// Extension constraints extracted from one condition, for one $_FILES
// field. `allowed_*`: if the condition has that truth value, the
// extension is confined to the set. `excluded_*`: the extension is known
// not to be in the set (a blacklist — never sufficient for pruning).
struct CondInfo {
  std::optional<std::vector<std::string>> allowed_true;
  std::optional<std::vector<std::string>> excluded_true;
  std::optional<std::vector<std::string>> allowed_false;
  std::optional<std::vector<std::string>> excluded_false;
  bool unlowered = false;
};

std::optional<std::vector<std::string>> merge_union(
    const std::optional<std::vector<std::string>>& a,
    const std::optional<std::vector<std::string>>& b) {
  if (!a.has_value()) return b;
  if (!b.has_value()) return a;
  std::vector<std::string> out = *a;
  for (const std::string& s : *b) {
    if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
  }
  return out;
}

std::optional<std::vector<std::string>> merge_intersect(
    const std::optional<std::vector<std::string>>& a,
    const std::optional<std::vector<std::string>>& b) {
  if (!a.has_value() || !b.has_value()) return std::nullopt;
  std::vector<std::string> out;
  for (const std::string& s : *a) {
    if (std::find(b->begin(), b->end(), s) != b->end()) out.push_back(s);
  }
  return out;
}

// Aggregated guard evidence for one sink.
struct GuardEval {
  std::optional<std::vector<std::string>> allowed;
  std::vector<std::string> excluded;
  bool any = false;        // at least one extension-relevant fact
  bool unlowered = false;  // a contributing guard compares unlowered input
  const Expr* allowed_cond = nullptr;   // for UC103 location
  const Expr* excluded_cond = nullptr;  // for UC102 location
};

// -------------------------------------------------------------------------

bool is_superglobal(std::string_view name) {
  return name == "_POST" || name == "_GET" || name == "_REQUEST" ||
         name == "_COOKIE" || name == "_SERVER" || name == "_SESSION" ||
         name == "_ENV" || name == "GLOBALS";
}

class Analyzer {
 public:
  // Root mode: analyzes one locality root.
  Analyzer(const Program& program, const CallGraph& graph,
           const AnalysisRoot& root, const SourceManager& sources,
           const SinkRegistry& sinks, const StaticPassOptions& options)
      : program_(program),
        graph_(graph),
        root_(&root),
        sources_(sources),
        sinks_(sinks),
        summaries_(options.summaries) {
    for (const std::string& e : options.executable_extensions) {
      exec_.insert(to_lower(e));
    }
  }

  // Summary mode: analyzes one function body under explicit abstract
  // parameter values (the workhorse of SummaryStore::instantiate).
  Analyzer(const Program& program, const CallGraph& graph,
           const FunctionDecl& fn, const std::vector<AbsVal>& args,
           const SourceManager& sources, const SinkRegistry& sinks,
           const StaticPassOptions& options, SummaryStore* store)
      : program_(program),
        graph_(graph),
        root_(nullptr),
        summary_fn_(&fn),
        summary_args_(&args),
        sources_(sources),
        sinks_(sinks),
        summaries_(store) {
    for (const std::string& e : options.executable_extensions) {
      exec_.insert(to_lower(e));
    }
  }

  RootAnalysis run();
  SummaryInstance run_summary();

 private:
  // --- taint lattice -----------------------------------------------------
  AbsVal transfer(const VarBinding& b, const Env& env);
  AbsVal eval(const Expr& e, const Env& env);
  AbsVal eval_var(std::string_view name, const Env& env);
  AbsVal eval_array_access(const ArrayAccess& aa, const Env& env);
  AbsVal eval_call(const Call& call, const Env& env);
  AbsVal concat_val(const AbsVal& lhs, const AbsVal& rhs);

  // --- destination suffixes ----------------------------------------------
  Suffix suffix_of(const Expr& e, std::set<std::string, std::less<>>& visiting,
                   int depth);
  Suffix var_suffix(std::string_view name,
                    std::set<std::string, std::less<>>& visiting,
                    int depth);
  Suffix absval_to_suffix(const AbsVal& v) const;

  // --- guard recognition -------------------------------------------------
  void scan_stmts(Span<const StmtPtr> stmts);
  void scan_stmt(const Stmt& s);
  void collect_sinks_expr(const Expr& e);
  void collect_sinks_children(const Stmt& s);
  bool always_exits(Span<const StmtPtr> stmts) const;
  bool stmt_exits(const Stmt& s) const;

  CondInfo cond_info(const Expr& cond, const std::string& field);
  std::optional<std::vector<std::string>> literal_set(const Expr& e);
  GuardEval guard_eval(const SinkSite& site, const std::string& field);

  // --- classification ----------------------------------------------------
  SinkSummary classify_sink(const SinkSite& site);
  bool name_words_safe(const std::vector<std::string>& words) const;
  bool extvar_words_safe(const std::vector<std::string>& words,
                         const std::string& trailing) const;

  // --- escape hatches ----------------------------------------------------
  std::string find_bail(Span<const StmtPtr> stmts);
  bool function_reaches_sink(std::string_view lower_name);
  bool method_reaches_sink(const std::string& lower_method);
  // Summary-based vetting of one resolved call site: returns the empty
  // string when the callee provably cannot produce an unsafe sink with
  // these arguments, a bail reason otherwise (emitting UC107 on the way).
  std::string vet_call_site(std::string_view callee, phpast::ExprList args,
                            SourceLoc loc);
  // UC108 + escaped-call accounting over the whole body (single walk,
  // unlike find_bail which stops at the first bail).
  void scan_escapes(Span<const StmtPtr> stmts);
  // Shared solve pipeline: bindings -> params -> fixpoint env.
  void solve_body(Span<const StmtPtr> body);
  AbsVal collect_return_value(Span<const StmtPtr> body);

  // --- lints -------------------------------------------------------------
  void add_lint(const char* rule, Severity severity, SourceLoc loc,
                std::string message);
  std::string line_evidence(SourceLoc loc) const;

  const Program& program_;
  const CallGraph& graph_;
  const AnalysisRoot* root_;                       // root mode
  const FunctionDecl* summary_fn_ = nullptr;       // summary mode
  const std::vector<AbsVal>* summary_args_ = nullptr;
  const SourceManager& sources_;
  const SinkRegistry& sinks_;
  SummaryStore* summaries_ = nullptr;
  std::set<std::string> exec_;
  bool summary_used_ = false;   // a prune decision leaned on the store
  std::size_t escaped_calls_ = 0;

  std::vector<VarBinding> bindings_;
  std::map<std::string, std::vector<const VarBinding*>, std::less<>>
      bindings_by_name_;
  std::set<std::string, std::less<>> bound_names_;
  std::map<std::string, AbsVal, std::less<>> param_values_;
  bool caller_scope_ = false;
  Env env_;

  std::vector<Fact> facts_;
  std::vector<SinkSite> sink_sites_;

  std::map<std::string, NodeId, std::less<>> function_nodes_;
  std::map<NodeId, bool> reach_memo_;

  std::set<std::pair<std::string, std::string>> lint_keys_;
  std::vector<std::pair<SourceLoc, LintFinding>> lints_;
};

// --- taint lattice -------------------------------------------------------

AbsVal Analyzer::transfer(const VarBinding& b, const Env& env) {
  switch (b.kind) {
    case VarBinding::Kind::kAssign: {
      if (b.value == nullptr) {
        auto it = param_values_.find(b.name);
        return it == param_values_.end() ? top() : it->second;
      }
      return eval(*b.value, env);
    }
    case VarBinding::Kind::kCompound: {
      if (b.compound_op != BinaryOp::kConcat) return safe_atom();
      auto it = env.find(b.name);
      AbsVal cur = it == env.end() ? bottom() : it->second;
      AbsVal rhs = b.value != nullptr ? eval(*b.value, env) : top();
      return concat_val(cur, rhs);
    }
    case VarBinding::Kind::kForeachValue: {
      AbsVal it = b.value != nullptr ? eval(*b.value, env) : top();
      switch (it.kind) {
        case Kind::kFilesArray:
          return it.field.empty() ? files(Kind::kFilesArray, "*")
                                  : files(Kind::kFilesName, it.field);
        case Kind::kFilesInfo:
        case Kind::kFilesParts:
          return files(Kind::kFilesName, it.field, it.lowered);
        case Kind::kConst:
        case Kind::kSafeAtom:
        case Kind::kUntainted:
          return untainted();
        case Kind::kBottom:
          return bottom();
        case Kind::kFilesName:
        case Kind::kFilesExt:
        case Kind::kFilesData:
          return it;
        default:
          return top();
      }
    }
    case VarBinding::Kind::kForeachKey: {
      AbsVal it = b.value != nullptr ? eval(*b.value, env) : top();
      if (it.kind == Kind::kBottom) return bottom();
      // Keys of $_FILES are form field names; PHP mangles '.' to '_' in
      // them, so they cannot carry an extension.
      if (is_clean(it.kind) ||
          (it.kind == Kind::kFilesArray && it.field.empty())) {
        return untainted();
      }
      return top();
    }
    case VarBinding::Kind::kListElement: {
      AbsVal it = b.value != nullptr ? eval(*b.value, env) : top();
      if (it.kind == Kind::kBottom) return bottom();
      if (it.kind == Kind::kFilesParts) {
        return files(Kind::kFilesName, it.field, it.lowered);
      }
      if (is_files(it.kind)) return files(Kind::kFilesData, it.field);
      if (is_clean(it.kind)) return untainted();
      return top();
    }
    case VarBinding::Kind::kOpaque:
      return top();
  }
  return top();
}

AbsVal Analyzer::eval_var(std::string_view name, const Env& env) {
  if (name == "_FILES") return files(Kind::kFilesArray, "");
  if (is_superglobal(name)) return top();
  if (caller_scope_) return top();
  if (bound_names_.count(name) != 0) {
    auto it = env.find(name);
    return it == env.end() ? bottom() : it->second;
  }
  return top();
}

AbsVal Analyzer::eval_array_access(const ArrayAccess& aa, const Env& env) {
  AbsVal base = eval(*aa.base, env);
  const StringLit* lit =
      aa.index != nullptr && aa.index->kind() == NodeKind::kStringLit
          ? static_cast<const StringLit*>(aa.index)
          : nullptr;
  switch (base.kind) {
    case Kind::kBottom:
      return bottom();
    case Kind::kFilesArray: {
      if (base.field.empty()) {
        return files(Kind::kFilesArray, lit != nullptr ? lit->value : "*");
      }
      const std::string key = lit != nullptr ? to_lower(lit->value) : "";
      if (lit != nullptr &&
          (key == "tmp_name" || key == "size" || key == "error")) {
        return files(Kind::kFilesData, base.field);
      }
      return files(Kind::kFilesName, base.field);
    }
    case Kind::kFilesInfo: {
      if (lit != nullptr && to_lower(lit->value) == "extension") {
        return files(Kind::kFilesExt, base.field, base.lowered);
      }
      const bool base_comp =
          lit != nullptr &&
          (to_lower(lit->value) == "basename" ||
           to_lower(lit->value) == "filename");
      return files(Kind::kFilesName, base.field, base.lowered,
                   base.basenamed || base_comp);
    }
    case Kind::kFilesParts: {
      if (aa.index != nullptr && aa.index->kind() == NodeKind::kIntLit) {
        add_lint("UC104", Severity::kWarning, aa.loc(),
                 "extension taken from a fixed explode('.') segment; "
                 "double extensions like name.php.jpg bypass this check");
      }
      return files(Kind::kFilesName, base.field, base.lowered);
    }
    case Kind::kConst:
    case Kind::kSafeAtom:
    case Kind::kUntainted:
      return untainted();
    case Kind::kFilesName:
    case Kind::kFilesExt:
    case Kind::kFilesData:
      return files(Kind::kFilesData, base.field);
    default:
      return top();
  }
}

AbsVal Analyzer::concat_val(const AbsVal& lhs, const AbsVal& rhs) {
  if (lhs.kind == Kind::kBottom || rhs.kind == Kind::kBottom) return bottom();
  if (lhs.kind == Kind::kConst && rhs.kind == Kind::kConst) {
    return constant(lhs.text + rhs.text);
  }
  if (is_clean(lhs.kind) && is_clean(rhs.kind)) return untainted();
  if (is_clean(lhs.kind) &&
      (rhs.kind == Kind::kFilesName || rhs.kind == Kind::kFilesExt)) {
    return rhs;  // prefixing preserves the suffix structure
  }
  if (is_files(lhs.kind) || is_files(rhs.kind)) {
    std::string field = "*";
    if (is_files(lhs.kind) && !is_files(rhs.kind)) field = lhs.field;
    if (is_files(rhs.kind) && !is_files(lhs.kind)) field = rhs.field;
    if (is_files(lhs.kind) && is_files(rhs.kind) && lhs.field == rhs.field) {
      field = lhs.field;
    }
    return files(Kind::kFilesData, field);
  }
  return top();
}

AbsVal Analyzer::eval_call(const Call& call, const Env& env) {
  if (call.is_dynamic()) return top();
  const std::string_view name = call.callee;
  // User-defined functions resolve by summary instantiation instead of
  // degrading to top(). They are checked before the builtin models to
  // match the interpreter's resolution order (sink registry, then user
  // functions, then builtins).
  if (summaries_ != nullptr && !sinks_.is_sink(name) &&
      program_.functions.count(name) != 0) {
    std::vector<AbsVal> vals;
    vals.reserve(call.args.size());
    for (const Expr* a : call.args) {
      vals.push_back(a != nullptr ? eval(*a, env) : top());
    }
    return summaries_->instantiate(name, vals).return_value;
  }
  auto arg = [&](std::size_t i) -> AbsVal {
    if (i >= call.args.size() || call.args[i] == nullptr) return top();
    return eval(*call.args[i], env);
  };

  if (name == "strtolower" || name == "mb_strtolower") {
    AbsVal v = arg(0);
    if (v.kind == Kind::kConst) return constant(to_lower(v.text));
    if (is_files(v.kind)) v.lowered = true;
    return v;
  }
  if (name == "strtoupper" || name == "mb_strtoupper") {
    AbsVal v = arg(0);
    if (v.kind == Kind::kConst) {
      for (char& c : v.text) {
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      }
      return v;
    }
    if (is_files(v.kind)) v.lowered = false;
    return v;
  }
  if (name == "trim" || name == "ltrim" || name == "rtrim" ||
      name == "stripslashes" || name == "urldecode" || name == "rawurldecode") {
    AbsVal v = arg(0);
    if (v.kind == Kind::kConst) return untainted();  // text may change
    return v;
  }
  if (name == "basename" || name == "wp_basename" ||
      name == "sanitize_file_name") {
    AbsVal v = arg(0);
    if (v.kind == Kind::kFilesName) {
      v.basenamed = true;
      return v;
    }
    if (v.kind == Kind::kFilesExt) return v;
    if (is_files(v.kind)) return files(Kind::kFilesData, v.field);
    if (is_clean(v.kind)) return untainted();
    return v.kind == Kind::kBottom ? bottom() : top();
  }
  if (name == "wp_unique_filename") {
    AbsVal v = arg(1);
    if (v.kind == Kind::kFilesName) return v;  // keeps the extension
    if (is_files(v.kind)) return files(Kind::kFilesData, v.field);
    return is_clean(v.kind) ? untainted() : top();
  }
  if (name == "pathinfo") {
    AbsVal v = arg(0);
    if (v.kind == Kind::kFilesName) {
      if (call.args.size() >= 2 && call.args[1] != nullptr &&
          call.args[1]->kind() == NodeKind::kConstFetch) {
        const std::string_view flag =
            static_cast<const ConstFetch&>(*call.args[1]).name;
        if (flag == "PATHINFO_EXTENSION") {
          return files(Kind::kFilesExt, v.field, v.lowered);
        }
        if (flag == "PATHINFO_BASENAME" || flag == "PATHINFO_FILENAME") {
          return files(Kind::kFilesName, v.field, v.lowered, true);
        }
        return files(Kind::kFilesName, v.field, v.lowered);
      }
      if (call.args.size() >= 2) return files(Kind::kFilesName, v.field);
      return files(Kind::kFilesInfo, v.field, v.lowered);
    }
    if (is_files(v.kind)) return files(Kind::kFilesData, v.field);
    if (is_clean(v.kind)) return untainted();
    return v.kind == Kind::kBottom ? bottom() : top();
  }
  if (name == "explode") {
    AbsVal v = arg(1);
    const bool dot_sep = !call.args.empty() && call.args[0] != nullptr &&
                         call.args[0]->kind() == NodeKind::kStringLit &&
                         static_cast<const StringLit&>(*call.args[0]).value ==
                             ".";
    if (v.kind == Kind::kFilesName && dot_sep) {
      return files(Kind::kFilesParts, v.field, v.lowered);
    }
    if (is_files(v.kind)) return files(Kind::kFilesData, v.field);
    if (is_clean(v.kind)) return untainted();
    return v.kind == Kind::kBottom ? bottom() : top();
  }
  if (name == "end" || name == "array_pop") {
    AbsVal v = arg(0);
    if (v.kind == Kind::kFilesParts) {
      return files(Kind::kFilesExt, v.field, v.lowered);
    }
    if (is_files(v.kind)) return files(Kind::kFilesData, v.field);
    if (is_clean(v.kind)) return untainted();
    return v.kind == Kind::kBottom ? bottom() : top();
  }
  if (name == "current" || name == "reset" || name == "array_shift") {
    AbsVal v = arg(0);
    if (v.kind == Kind::kFilesParts) {
      return files(Kind::kFilesName, v.field, v.lowered);
    }
    if (is_files(v.kind)) return files(Kind::kFilesData, v.field);
    if (is_clean(v.kind)) return untainted();
    return v.kind == Kind::kBottom ? bottom() : top();
  }
  if (name == "substr") {
    AbsVal v = arg(0);
    bool negative_start = false;
    if (call.args.size() == 2 && call.args[1] != nullptr) {
      const Expr& start = *call.args[1];
      if (start.kind() == NodeKind::kUnary &&
          static_cast<const Unary&>(start).op == UnaryOp::kMinus) {
        negative_start = true;
      } else if (start.kind() == NodeKind::kIntLit &&
                 static_cast<const IntLit&>(start).value < 0) {
        negative_start = true;
      }
    }
    if (v.kind == Kind::kFilesName && negative_start) return v;
    if (is_files(v.kind)) return files(Kind::kFilesData, v.field);
    if (is_clean(v.kind)) return untainted();
    return v.kind == Kind::kBottom ? bottom() : top();
  }
  if (name == "md5" || name == "sha1" || name == "crc32" || name == "md5_file" ||
      name == "sha1_file" || name == "uniqid" || name == "time" ||
      name == "rand" || name == "mt_rand" || name == "random_int" ||
      name == "intval" || name == "floatval" || name == "count" ||
      name == "sizeof" || name == "strlen" || name == "abs" ||
      name == "floor" || name == "ceil" || name == "round" ||
      name == "filesize" || name == "getmypid" || name == "microtime") {
    return safe_atom();
  }
  if (name == "date") {
    if (!call.args.empty() && call.args[0] != nullptr &&
        call.args[0]->kind() == NodeKind::kStringLit &&
        static_cast<const StringLit&>(*call.args[0]).value.find('.') ==
            std::string::npos) {
      return safe_atom();
    }
    return untainted();
  }
  if (name == "in_array" || name == "array_key_exists" ||
      name == "file_exists" || name == "is_uploaded_file" ||
      name == "is_dir" || name == "is_file" || name == "is_writable" ||
      name == "function_exists" || name == "preg_match" ||
      name == "strpos" || name == "stripos" || name == "strcmp" ||
      name == "strcasecmp" || name == "move_uploaded_file" ||
      name == "copy" || name == "rename" || name == "unlink" ||
      name == "mkdir" || name == "chmod" || name == "file_put_contents" ||
      name == "file_put_content" || name == "error_log" ||
      name == "wp_mkdir_p" || name == "checked" || name == "current_user_can") {
    return safe_atom();
  }
  return top();
}

AbsVal Analyzer::eval(const Expr& e, const Env& env) {
  switch (e.kind()) {
    case NodeKind::kStringLit:
      return constant(static_cast<const StringLit&>(e).value);
    case NodeKind::kIntLit:
    case NodeKind::kFloatLit:
    case NodeKind::kBoolLit:
    case NodeKind::kNullLit:
      return safe_atom();
    case NodeKind::kConstFetch:
      return untainted();
    case NodeKind::kVariable:
      return eval_var(static_cast<const Variable&>(e).name, env);
    case NodeKind::kArrayAccess:
      return eval_array_access(static_cast<const ArrayAccess&>(e), env);
    case NodeKind::kBinary: {
      const auto& bin = static_cast<const Binary&>(e);
      if (bin.op == BinaryOp::kConcat) {
        return concat_val(eval(*bin.lhs, env), eval(*bin.rhs, env));
      }
      if (bin.op == BinaryOp::kCoalesce) {
        return join(eval(*bin.lhs, env), eval(*bin.rhs, env));
      }
      return safe_atom();  // arithmetic / comparison / boolean results
    }
    case NodeKind::kUnary: {
      const auto& un = static_cast<const Unary&>(e);
      if (un.op == UnaryOp::kErrorSuppress) return eval(*un.operand, env);
      return safe_atom();
    }
    case NodeKind::kAssign: {
      const auto& as = static_cast<const Assign&>(e);
      return as.value != nullptr ? eval(*as.value, env) : top();
    }
    case NodeKind::kTernary: {
      const auto& t = static_cast<const Ternary&>(e);
      AbsVal then_v = t.then_expr != nullptr ? eval(*t.then_expr, env)
                                             : eval(*t.cond, env);
      return join(then_v, eval(*t.else_expr, env));
    }
    case NodeKind::kCast: {
      const auto& c = static_cast<const Cast&>(e);
      if (c.cast == CastKind::kInt || c.cast == CastKind::kFloat ||
          c.cast == CastKind::kBool) {
        return safe_atom();
      }
      return eval(*c.operand, env);
    }
    case NodeKind::kCall:
      return eval_call(static_cast<const Call&>(e), env);
    case NodeKind::kIsset:
    case NodeKind::kEmpty:
    case NodeKind::kExitExpr:
      return safe_atom();
    case NodeKind::kArrayLit:
      return untainted();
    default:
      return top();  // method/static calls, new, closures, includes, ...
  }
}

// --- destination suffixes ------------------------------------------------

Suffix Analyzer::absval_to_suffix(const AbsVal& v) const {
  switch (v.kind) {
    case Kind::kConst:
      return lit_suffix(v.text, true);
    case Kind::kSafeAtom: {
      Suffix s;
      s.kind = Suffix::Kind::kSafeAtom;
      return s;
    }
    case Kind::kFilesName: {
      if (v.field == "*") return unknown_suffix();
      Suffix s;
      s.kind = Suffix::Kind::kName;
      s.field = v.field;
      s.lowered = v.lowered;
      s.basenamed = v.basenamed;
      return s;
    }
    case Kind::kFilesExt: {
      if (v.field == "*") return unknown_suffix();
      Suffix s;
      s.kind = Suffix::Kind::kExtVar;
      s.field = v.field;
      s.lowered = v.lowered;
      return s;
    }
    default:
      return unknown_suffix();
  }
}

Suffix Analyzer::var_suffix(std::string_view name,
                            std::set<std::string, std::less<>>& visiting,
                            int depth) {
  if (depth > 8 || visiting.count(name) != 0 ||
      bound_names_.count(name) == 0) {
    auto it = env_.find(name);
    return it == env_.end() ? unknown_suffix() : absval_to_suffix(it->second);
  }
  const auto bit = bindings_by_name_.find(name);
  if (bit == bindings_by_name_.end()) return unknown_suffix();
  visiting.insert(std::string(name));
  std::optional<Suffix> acc;
  bool syntactic = true;
  for (const VarBinding* b : bit->second) {
    Suffix s;
    if (b->kind == VarBinding::Kind::kAssign && b->value != nullptr) {
      s = suffix_of(*b->value, visiting, depth + 1);
    } else if (b->kind == VarBinding::Kind::kCompound &&
               b->compound_op == BinaryOp::kConcat && b->value != nullptr) {
      s = suffix_of(*b->value, visiting, depth + 1);
    } else {
      syntactic = false;
      break;
    }
    acc = acc.has_value() ? suffix_join(*acc, s) : s;
  }
  visiting.erase(std::string(name));
  if (!syntactic || !acc.has_value()) {
    auto it = env_.find(name);
    return it == env_.end() ? unknown_suffix() : absval_to_suffix(it->second);
  }
  return *acc;
}

Suffix Analyzer::suffix_of(const Expr& e,
                           std::set<std::string, std::less<>>& visiting,
                           int depth) {
  if (depth > 32) return unknown_suffix();
  switch (e.kind()) {
    case NodeKind::kStringLit:
      return lit_suffix(static_cast<const StringLit&>(e).value, true);
    case NodeKind::kIntLit:
    case NodeKind::kFloatLit: {
      Suffix s;
      s.kind = Suffix::Kind::kSafeAtom;
      return s;
    }
    case NodeKind::kVariable:
      return var_suffix(static_cast<const Variable&>(e).name, visiting, depth);
    case NodeKind::kBinary: {
      const auto& bin = static_cast<const Binary&>(e);
      if (bin.op != BinaryOp::kConcat) break;
      Suffix rhs = suffix_of(*bin.rhs, visiting, depth + 1);
      switch (rhs.kind) {
        case Suffix::Kind::kLit: {
          // A dotted literal tail fully determines the extension.
          const bool dotted = std::all_of(
              rhs.texts.begin(), rhs.texts.end(), [](const std::string& t) {
                return t.find('.') != std::string::npos;
              });
          if (dotted) {
            Suffix r = rhs;
            r.whole = false;
            return r;
          }
          // Dot-free literal tail: the extension depends on the prefix.
          if (rhs.texts.size() != 1) return unknown_suffix();
          const std::string& tail = rhs.texts[0];
          if (tail.empty()) return suffix_of(*bin.lhs, visiting, depth + 1);
          Suffix lhs = suffix_of(*bin.lhs, visiting, depth + 1);
          switch (lhs.kind) {
            case Suffix::Kind::kLit: {
              Suffix r = lhs;
              for (std::string& t : r.texts) t += tail;
              return r;
            }
            case Suffix::Kind::kSafeAtom: {
              // digits + dot-free text cannot equal "." + ext, but guard
              // against tails that themselves spell an extension.
              const std::string lt = to_lower(tail);
              for (const std::string& ex : exec_) {
                if (lt.ends_with(ex)) return unknown_suffix();
              }
              return lhs;
            }
            case Suffix::Kind::kExtVar: {
              Suffix r = lhs;
              r.trailing += tail;
              return r;
            }
            default:
              return unknown_suffix();
          }
        }
        case Suffix::Kind::kSafeAtom:
        case Suffix::Kind::kName:
        case Suffix::Kind::kExtVar:
          return rhs;  // the suffix is determined by the right operand
        case Suffix::Kind::kUnknown:
          return unknown_suffix();
      }
      return unknown_suffix();
    }
    case NodeKind::kUnary: {
      const auto& un = static_cast<const Unary&>(e);
      if (un.op == UnaryOp::kErrorSuppress) {
        return suffix_of(*un.operand, visiting, depth + 1);
      }
      break;
    }
    case NodeKind::kAssign: {
      const auto& as = static_cast<const Assign&>(e);
      if (as.value != nullptr && !as.compound_op.has_value()) {
        return suffix_of(*as.value, visiting, depth + 1);
      }
      break;
    }
    case NodeKind::kTernary: {
      const auto& t = static_cast<const Ternary&>(e);
      Suffix a = t.then_expr != nullptr
                     ? suffix_of(*t.then_expr, visiting, depth + 1)
                     : suffix_of(*t.cond, visiting, depth + 1);
      return suffix_join(a, suffix_of(*t.else_expr, visiting, depth + 1));
    }
    case NodeKind::kCall: {
      const auto& call = static_cast<const Call&>(e);
      if (!call.is_dynamic() && !call.args.empty() &&
          call.args[0] != nullptr &&
          (call.callee == "strtolower" || call.callee == "mb_strtolower")) {
        Suffix s = suffix_of(*call.args[0], visiting, depth + 1);
        if (s.kind == Suffix::Kind::kLit) {
          for (std::string& t : s.texts) t = to_lower(t);
        } else {
          s.lowered = true;
        }
        return s;
      }
      if (!call.is_dynamic() && !call.args.empty() &&
          call.args[0] != nullptr &&
          (call.callee == "basename" || call.callee == "wp_basename")) {
        Suffix s = suffix_of(*call.args[0], visiting, depth + 1);
        if (s.kind == Suffix::Kind::kName) s.basenamed = true;
        if (s.kind == Suffix::Kind::kLit) return unknown_suffix();
        return s;
      }
      break;
    }
    default:
      break;
  }
  return absval_to_suffix(eval(e, env_));
}

// --- guard recognition ---------------------------------------------------

bool Analyzer::stmt_exits(const Stmt& s) const {
  switch (s.kind()) {
    case NodeKind::kReturn:
    case NodeKind::kThrowStmt:
      return true;
    case NodeKind::kExprStmt: {
      const Expr* e = static_cast<const phpast::ExprStmt&>(s).expr;
      if (e == nullptr) return false;
      if (e->kind() == NodeKind::kExitExpr) return true;
      if (e->kind() == NodeKind::kCall) {
        const auto& call = static_cast<const Call&>(*e);
        return !call.is_dynamic() && is_terminator(call.callee);
      }
      return false;
    }
    case NodeKind::kBlock:
      return always_exits(static_cast<const phpast::Block&>(s).body);
    case NodeKind::kIf: {
      const auto& f = static_cast<const If&>(s);
      if (!f.has_else) return false;
      if (!always_exits(f.then_body) || !always_exits(f.else_body)) {
        return false;
      }
      for (const auto& ei : f.elseifs) {
        if (!always_exits(ei.body)) return false;
      }
      return true;
    }
    default:
      return false;
  }
}

bool Analyzer::always_exits(Span<const StmtPtr> stmts) const {
  for (const StmtPtr& s : stmts) {
    if (s != nullptr && stmt_exits(*s)) return true;
  }
  return false;
}

void Analyzer::collect_sinks_expr(const Expr& e) {
  phpast::walk(e, [this](const Node& n) -> bool {
    if (n.kind() == NodeKind::kClosure) return false;
    if (n.kind() == NodeKind::kCall) {
      const auto& call = static_cast<const Call&>(n);
      if (!call.is_dynamic() && sinks_.is_sink(call.callee)) {
        sink_sites_.push_back(SinkSite{&call, facts_});
      }
    }
    return true;
  });
}

void Analyzer::collect_sinks_children(const Stmt& s) {
  phpast::for_each_child(s, [this](const Node& child) {
    if (is_expr_kind(child.kind())) {
      collect_sinks_expr(static_cast<const Expr&>(child));
    }
  });
}

void Analyzer::scan_stmt(const Stmt& s) {
  switch (s.kind()) {
    case NodeKind::kIf: {
      const auto& f = static_cast<const If&>(s);
      collect_sinks_expr(*f.cond);
      const std::size_t mark = facts_.size();
      facts_.push_back(Fact{f.cond, true, nullptr, {}});
      scan_stmts(f.then_body);
      facts_.resize(mark);
      std::vector<const Expr*> negations{f.cond};
      for (const auto& ei : f.elseifs) {
        for (const Expr* c : negations) {
          facts_.push_back(Fact{c, false, nullptr, {}});
        }
        collect_sinks_expr(*ei.cond);
        facts_.push_back(Fact{ei.cond, true, nullptr, {}});
        scan_stmts(ei.body);
        facts_.resize(mark);
        negations.push_back(ei.cond);
      }
      if (f.has_else) {
        for (const Expr* c : negations) {
          facts_.push_back(Fact{c, false, nullptr, {}});
        }
        scan_stmts(f.else_body);
        facts_.resize(mark);
      }
      // Exit guards establish persistent facts for the rest of this
      // statement list: `if (c) { die; }` implies !c afterwards.
      if (f.elseifs.empty() && !f.has_else && always_exits(f.then_body)) {
        facts_.push_back(Fact{f.cond, false, nullptr, {}});
      } else if (f.elseifs.empty() && f.has_else &&
                 always_exits(f.else_body) && !always_exits(f.then_body)) {
        facts_.push_back(Fact{f.cond, true, nullptr, {}});
      }
      return;
    }
    case NodeKind::kSwitch: {
      const auto& sw = static_cast<const Switch&>(s);
      collect_sinks_expr(*sw.subject);
      std::vector<std::string> lits;
      bool lits_ok = true;
      bool has_default = false;
      bool default_exits = false;
      for (const auto& c : sw.cases) {
        if (c.match == nullptr) {
          has_default = true;
          default_exits = always_exits(c.body);
        } else if (c.match->kind() == NodeKind::kStringLit) {
          lits.push_back(std::string(static_cast<const StringLit&>(*c.match).value));
        } else {
          lits_ok = false;
        }
      }
      const bool constrains = lits_ok && (!has_default || default_exits);
      const std::size_t mark = facts_.size();
      for (const auto& c : sw.cases) {
        if (c.match == nullptr) {
          scan_stmts(c.body);  // default body: subject unconstrained
        } else {
          if (constrains) {
            facts_.push_back(Fact{nullptr, true, sw.subject, lits});
          }
          scan_stmts(c.body);
          facts_.resize(mark);
        }
      }
      if (lits_ok && has_default && default_exits) {
        facts_.push_back(Fact{nullptr, true, sw.subject, lits});
      }
      return;
    }
    case NodeKind::kBlock:
      scan_stmts(static_cast<const phpast::Block&>(s).body);
      return;
    case NodeKind::kWhile: {
      const auto& w = static_cast<const phpast::While&>(s);
      collect_sinks_expr(*w.cond);
      const std::size_t mark = facts_.size();
      scan_stmts(w.body);
      facts_.resize(mark);
      return;
    }
    case NodeKind::kDoWhile: {
      const auto& w = static_cast<const phpast::DoWhile&>(s);
      const std::size_t mark = facts_.size();
      scan_stmts(w.body);
      facts_.resize(mark);
      collect_sinks_expr(*w.cond);
      return;
    }
    case NodeKind::kFor: {
      const auto& f = static_cast<const phpast::For&>(s);
      for (const auto& e : f.init) {
        if (e != nullptr) collect_sinks_expr(*e);
      }
      for (const auto& e : f.cond) {
        if (e != nullptr) collect_sinks_expr(*e);
      }
      for (const auto& e : f.step) {
        if (e != nullptr) collect_sinks_expr(*e);
      }
      const std::size_t mark = facts_.size();
      scan_stmts(f.body);
      facts_.resize(mark);
      return;
    }
    case NodeKind::kForeach: {
      const auto& f = static_cast<const Foreach&>(s);
      collect_sinks_expr(*f.iterable);
      const std::size_t mark = facts_.size();
      scan_stmts(f.body);
      facts_.resize(mark);
      return;
    }
    case NodeKind::kTryCatch: {
      const auto& t = static_cast<const TryCatch&>(s);
      const std::size_t mark = facts_.size();
      scan_stmts(t.body);
      facts_.resize(mark);
      for (const auto& c : t.catches) {
        scan_stmts(c.body);
        facts_.resize(mark);
      }
      scan_stmts(t.finally_body);
      facts_.resize(mark);
      return;
    }
    case NodeKind::kFunctionDecl:
    case NodeKind::kClassDecl:
      return;  // separate scopes
    default:
      collect_sinks_children(s);
      return;
  }
}

void Analyzer::scan_stmts(Span<const StmtPtr> stmts) {
  for (const StmtPtr& s : stmts) {
    if (s != nullptr) scan_stmt(*s);
  }
}

std::optional<std::vector<std::string>> Analyzer::literal_set(const Expr& e) {
  if (e.kind() == NodeKind::kArrayLit) {
    std::vector<std::string> out;
    for (const ArrayItem& item : static_cast<const ArrayLit&>(e).items) {
      if (item.value == nullptr ||
          item.value->kind() != NodeKind::kStringLit) {
        return std::nullopt;
      }
      out.push_back(std::string(static_cast<const StringLit&>(*item.value).value));
    }
    return out;
  }
  if (e.kind() == NodeKind::kVariable) {
    const std::string_view name = static_cast<const Variable&>(e).name;
    auto it = bindings_by_name_.find(name);
    if (it == bindings_by_name_.end()) return std::nullopt;
    std::optional<std::vector<std::string>> acc;
    for (const VarBinding* b : it->second) {
      if (b->kind != VarBinding::Kind::kAssign || b->value == nullptr ||
          b->value->kind() != NodeKind::kArrayLit) {
        return std::nullopt;
      }
      auto set = literal_set(*b->value);
      if (!set.has_value()) return std::nullopt;
      acc = merge_union(acc, set);
    }
    return acc;
  }
  return std::nullopt;
}

CondInfo Analyzer::cond_info(const Expr& cond, const std::string& field) {
  CondInfo info;
  switch (cond.kind()) {
    case NodeKind::kCall: {
      const auto& call = static_cast<const Call&>(cond);
      if (call.is_dynamic() || call.callee != "in_array" ||
          call.args.size() < 2 || call.args[0] == nullptr ||
          call.args[1] == nullptr) {
        break;
      }
      AbsVal subject = eval(*call.args[0], env_);
      if (subject.kind != Kind::kFilesExt || subject.field != field) break;
      auto set = literal_set(*call.args[1]);
      if (!set.has_value()) break;
      info.allowed_true = set;
      info.excluded_false = set;
      info.unlowered = !subject.lowered;
      break;
    }
    case NodeKind::kBinary: {
      const auto& bin = static_cast<const Binary&>(cond);
      if (bin.op == BinaryOp::kAnd || bin.op == BinaryOp::kOr) {
        CondInfo a = cond_info(*bin.lhs, field);
        CondInfo b = cond_info(*bin.rhs, field);
        info.unlowered = a.unlowered || b.unlowered;
        if (bin.op == BinaryOp::kAnd) {
          // true => both true; false => at least one false.
          info.allowed_true =
              a.allowed_true.has_value() && b.allowed_true.has_value()
                  ? merge_intersect(a.allowed_true, b.allowed_true)
                  : (a.allowed_true.has_value() ? a.allowed_true
                                                : b.allowed_true);
          info.excluded_true = merge_union(a.excluded_true, b.excluded_true);
          if (a.allowed_false.has_value() && b.allowed_false.has_value()) {
            info.allowed_false =
                merge_union(a.allowed_false, b.allowed_false);
          }
          if (a.excluded_false.has_value() && b.excluded_false.has_value()) {
            info.excluded_false =
                merge_intersect(a.excluded_false, b.excluded_false);
          }
        } else {
          // true => at least one true; false => both false.
          if (a.allowed_true.has_value() && b.allowed_true.has_value()) {
            info.allowed_true = merge_union(a.allowed_true, b.allowed_true);
          }
          if (a.excluded_true.has_value() && b.excluded_true.has_value()) {
            info.excluded_true =
                merge_intersect(a.excluded_true, b.excluded_true);
          }
          info.allowed_false =
              a.allowed_false.has_value() && b.allowed_false.has_value()
                  ? merge_intersect(a.allowed_false, b.allowed_false)
                  : (a.allowed_false.has_value() ? a.allowed_false
                                                 : b.allowed_false);
          info.excluded_false =
              merge_union(a.excluded_false, b.excluded_false);
        }
        break;
      }
      const bool eq =
          bin.op == BinaryOp::kEqual || bin.op == BinaryOp::kIdentical;
      const bool neq = bin.op == BinaryOp::kNotEqual ||
                       bin.op == BinaryOp::kNotIdentical;
      if (!eq && !neq) break;
      const Expr* lhs = bin.lhs;
      const Expr* rhs = bin.rhs;
      if (lhs->kind() == NodeKind::kStringLit) std::swap(lhs, rhs);
      if (rhs->kind() != NodeKind::kStringLit) break;
      const std::string_view lit = static_cast<const StringLit&>(*rhs).value;
      // substr($name, -k) == '.ext' constrains the name's suffix.
      if (lhs->kind() == NodeKind::kCall) {
        const auto& call = static_cast<const Call&>(*lhs);
        if (call.is_dynamic() || call.callee != "substr" ||
            call.args.size() != 2 || call.args[0] == nullptr ||
            call.args[1] == nullptr) {
          break;
        }
        AbsVal subject = eval(*call.args[0], env_);
        if (subject.kind != Kind::kFilesName || subject.field != field) break;
        std::int64_t k = 0;
        const Expr& start = *call.args[1];
        if (start.kind() == NodeKind::kIntLit) {
          k = -static_cast<const IntLit&>(start).value;
        } else if (start.kind() == NodeKind::kUnary &&
                   static_cast<const Unary&>(start).op == UnaryOp::kMinus &&
                   static_cast<const Unary&>(start).operand->kind() ==
                       NodeKind::kIntLit) {
          k = static_cast<const IntLit&>(
                  *static_cast<const Unary&>(start).operand)
                  .value;
        } else {
          break;
        }
        if (k <= 1 || lit.size() != static_cast<std::size_t>(k) ||
            lit[0] != '.') {
          break;
        }
        const std::string word(lit.substr(1));
        if (word.find('.') != std::string::npos) break;
        if (eq) {
          info.allowed_true = std::vector<std::string>{word};
          info.excluded_false = std::vector<std::string>{word};
        } else {
          info.excluded_true = std::vector<std::string>{word};
          info.allowed_false = std::vector<std::string>{word};
        }
        info.unlowered = !subject.lowered;
        break;
      }
      AbsVal subject = eval(*lhs, env_);
      if (subject.kind != Kind::kFilesExt || subject.field != field) break;
      if (eq) {
        info.allowed_true = std::vector<std::string>{std::string(lit)};
        info.excluded_false = std::vector<std::string>{std::string(lit)};
      } else {
        info.excluded_true = std::vector<std::string>{std::string(lit)};
        info.allowed_false = std::vector<std::string>{std::string(lit)};
      }
      info.unlowered = !subject.lowered;
      break;
    }
    case NodeKind::kUnary: {
      const auto& un = static_cast<const Unary&>(cond);
      if (un.op != UnaryOp::kNot) break;
      CondInfo inner = cond_info(*un.operand, field);
      info.allowed_true = inner.allowed_false;
      info.excluded_true = inner.excluded_false;
      info.allowed_false = inner.allowed_true;
      info.excluded_false = inner.excluded_true;
      info.unlowered = inner.unlowered;
      break;
    }
    default:
      break;
  }
  return info;
}

GuardEval Analyzer::guard_eval(const SinkSite& site,
                               const std::string& field) {
  GuardEval g;
  for (const Fact& fact : site.facts) {
    if (fact.cond == nullptr) {
      if (fact.subject == nullptr) continue;
      AbsVal subject = eval(*fact.subject, env_);
      if (subject.kind != Kind::kFilesExt || subject.field != field) continue;
      g.any = true;
      g.allowed = g.allowed.has_value()
                      ? merge_intersect(g.allowed, fact.case_lits)
                      : std::optional<std::vector<std::string>>(fact.case_lits);
      if (!subject.lowered) g.unlowered = true;
      if (g.allowed_cond == nullptr) g.allowed_cond = fact.subject;
      continue;
    }
    CondInfo info = cond_info(*fact.cond, field);
    const auto& allowed = fact.polarity ? info.allowed_true : info.allowed_false;
    const auto& excluded =
        fact.polarity ? info.excluded_true : info.excluded_false;
    if (allowed.has_value()) {
      g.any = true;
      g.allowed = g.allowed.has_value() ? merge_intersect(g.allowed, allowed)
                                        : allowed;
      if (info.unlowered) g.unlowered = true;
      if (g.allowed_cond == nullptr) g.allowed_cond = fact.cond;
    }
    if (excluded.has_value()) {
      g.any = true;
      for (const std::string& s : *excluded) {
        if (std::find(g.excluded.begin(), g.excluded.end(), s) ==
            g.excluded.end()) {
          g.excluded.push_back(s);
        }
      }
      if (g.excluded_cond == nullptr) g.excluded_cond = fact.cond;
    }
  }
  return g;
}

// --- classification ------------------------------------------------------

bool Analyzer::name_words_safe(const std::vector<std::string>& words) const {
  if (words.empty()) return false;
  for (const std::string& w : words) {
    const std::string lw = to_lower(w);
    if (lw.empty()) return false;
    if (exec_.count(lw) != 0) return false;
    for (const std::string& ex : exec_) {
      if (lw.ends_with("." + ex)) return false;
    }
  }
  return true;
}

bool Analyzer::extvar_words_safe(const std::vector<std::string>& words,
                                 const std::string& trailing) const {
  if (words.empty()) return false;
  for (const std::string& w : words) {
    const std::string s = to_lower(w + trailing);
    if (s.empty()) return false;
    for (const std::string& ex : exec_) {
      // Two-way suffix check: the destination's final extension is an
      // unknown prefix + s, so s must neither end with an executable
      // extension nor be completable into one from the left.
      if (s.ends_with(ex) || ex.ends_with(s)) return false;
    }
    if (s.find('.') != std::string::npos) {
      const std::string tail = s.substr(s.rfind('.') + 1);
      if (exec_.count(tail) != 0) return false;
    }
  }
  return true;
}

SinkSummary Analyzer::classify_sink(const SinkSite& site) {
  SinkSummary out;
  out.sink_name = site.call->callee;
  out.loc = site.call->loc();
  if (site.call->args.size() < 2) {
    out.reason = "malformed sink call";
    return out;
  }
  const SinkSignature sig = sinks_.signature(site.call->callee);
  const Expr* src_expr = sig == SinkSignature::kSrcDst
                             ? site.call->args[0]
                             : site.call->args[1];
  const Expr* dst_expr = sig == SinkSignature::kSrcDst
                             ? site.call->args[1]
                             : site.call->args[0];
  if (src_expr == nullptr || dst_expr == nullptr) {
    out.reason = "malformed sink call";
    return out;
  }

  const AbsVal src = eval(*src_expr, env_);
  if (is_clean(src.kind)) {
    out.prunable = true;
    out.reason = "source not derived from $_FILES";
    return out;
  }

  std::set<std::string, std::less<>> visiting;
  const Suffix dst = suffix_of(*dst_expr, visiting, 0);
  switch (dst.kind) {
    case Suffix::Kind::kLit: {
      for (const std::string& text : dst.texts) {
        const auto dot = text.rfind('.');
        if (dot == std::string::npos) {
          if (dst.whole) continue;  // whole literal without extension
          out.reason = "unresolved destination prefix";
          return out;
        }
        const std::string ext = to_lower(text.substr(dot + 1));
        if (exec_.count(ext) != 0) {
          add_lint("UC105", Severity::kError, dst_expr->loc(),
                   "destination filename is forced to the executable "
                   "extension ." + ext);
          out.reason = "destination forced to executable extension";
          return out;
        }
      }
      out.prunable = true;
      out.reason = "constant safe destination extension";
      return out;
    }
    case Suffix::Kind::kSafeAtom:
      out.prunable = true;
      out.reason = "server-generated destination name";
      return out;
    case Suffix::Kind::kName:
    case Suffix::Kind::kExtVar: {
      const GuardEval g = guard_eval(site, dst.field);
      const bool safe =
          g.allowed.has_value() &&
          (dst.kind == Suffix::Kind::kName
               ? name_words_safe(*g.allowed)
               : extvar_words_safe(*g.allowed, dst.trailing));
      if (dst.kind == Suffix::Kind::kName && !dst.basenamed) {
        add_lint("UC106", Severity::kInfo, dst_expr->loc(),
                 "client-supplied filename used in the destination without "
                 "basename()/sanitize_file_name()");
      }
      if (safe) {
        out.guard = GuardClass::kStrongGuard;
        out.prunable = true;
        out.reason = "extension confined to safe whitelist";
        if (g.unlowered) {
          const SourceLoc loc = g.allowed_cond != nullptr
                                    ? g.allowed_cond->loc()
                                    : site.call->loc();
          add_lint("UC103", Severity::kWarning, loc,
                   "extension compared without strtolower(); uploads with "
                   "upper-case extensions take the unguarded path");
        }
        return out;
      }
      if (g.any) {
        out.guard = GuardClass::kWeakGuard;
        out.reason = !g.excluded.empty()
                         ? "extension blacklist is not exhaustive"
                         : "guard does not confine the extension to a "
                           "safe whitelist";
        if (!g.excluded.empty()) {
          const SourceLoc loc = g.excluded_cond != nullptr
                                    ? g.excluded_cond->loc()
                                    : site.call->loc();
          add_lint("UC102", Severity::kWarning, loc,
                   "extension deny-list guard; blacklists miss executable "
                   "variants (php5, phtml, case changes)");
        }
        return out;
      }
      out.guard = GuardClass::kNoGuard;
      out.reason = "client-controlled destination with no recognized guard";
      add_lint("UC101", Severity::kError, site.call->loc(),
               "client-controlled upload reaches " + out.sink_name +
                   " with no recognized extension guard");
      return out;
    }
    case Suffix::Kind::kUnknown:
      break;
  }

  if (!site.facts.empty()) {
    out.guard = GuardClass::kWeakGuard;
    out.reason = "destination not understood by the static pass";
  } else {
    out.guard = GuardClass::kNoGuard;
    out.reason = "unguarded sink with unstructured destination";
    if (is_files(src.kind) ||
        (is_files(eval(*dst_expr, env_).kind))) {
      add_lint("UC101", Severity::kError, site.call->loc(),
               "upload data reaches " + out.sink_name +
                   " with no recognized extension guard");
    }
  }
  return out;
}

// --- escape hatches ------------------------------------------------------

bool Analyzer::function_reaches_sink(std::string_view lower_name) {
  // With the summary layer available this becomes a fact lookup (over
  // interp-inlinable calls, escapes counted as reaching); the call-graph
  // walk below remains the purely intraprocedural fallback.
  if (summaries_ != nullptr) {
    return summaries_->function_reaches_sink(lower_name);
  }
  if (function_nodes_.empty()) {
    for (NodeId i = 0; i < static_cast<NodeId>(graph_.node_count()); ++i) {
      const CallGraphNode& n = graph_.node(i);
      if (n.kind == CallGraphNode::Kind::kFunction) {
        function_nodes_.emplace(n.name, i);
      }
    }
  }
  auto it = function_nodes_.find(lower_name);
  if (it == function_nodes_.end()) return false;
  auto memo = reach_memo_.find(it->second);
  if (memo != reach_memo_.end()) return memo->second;
  const bool reaches =
      graph_.reaches_kind(it->second, CallGraphNode::Kind::kSink);
  reach_memo_.emplace(it->second, reaches);
  return reaches;
}

bool Analyzer::method_reaches_sink(const std::string& lower_method) {
  const std::string suffix = "::" + lower_method;
  for (const auto& [name, info] : program_.functions) {
    if (name.ends_with(suffix) && function_reaches_sink(name)) return true;
  }
  return false;
}

std::string Analyzer::find_bail(Span<const StmtPtr> stmts) {
  std::string reason;
  auto visit = [this, &reason](const Node& n) -> bool {
    if (!reason.empty()) return false;
    switch (n.kind()) {
      case NodeKind::kFunctionDecl:
      case NodeKind::kClassDecl:
        return false;
      case NodeKind::kClosure:
        reason = "closure in root body";
        return false;
      case NodeKind::kIncludeExpr:
        reason = "include/require in root body";
        return false;
      case NodeKind::kCall: {
        const auto& call = static_cast<const Call&>(n);
        if (call.is_dynamic()) {
          reason = "dynamic call in root body";
          return false;
        }
        if (callback_builtins().count(call.callee) != 0) {
          reason = "higher-order builtin ";
          reason += call.callee;
          return false;
        }
        if (summaries_ != nullptr) {
          // Sink-named calls are classified as sink sites even when a
          // user function shadows the name (the interpreter checks the
          // sink registry before the function registry).
          if (!sinks_.is_sink(call.callee) &&
              program_.functions.count(call.callee) != 0) {
            reason = vet_call_site(call.callee, call.args, call.loc());
          }
          return reason.empty();
        }
        if (program_.functions.count(call.callee) != 0 &&
            function_reaches_sink(call.callee)) {
          reason = "call into ";
          reason += call.callee;
          reason += "() which reaches a sink";
          return false;
        }
        return true;
      }
      case NodeKind::kMethodCall: {
        const auto& mc = static_cast<const MethodCall&>(n);
        const std::string m = to_lower(mc.method);
        if (summaries_ != nullptr) {
          // The interpreter resolves method calls by bare lowercased
          // name; unknown names never record sinks.
          if (program_.functions.count(m) != 0) {
            reason = vet_call_site(m, mc.args, mc.loc());
          }
          return reason.empty();
        }
        if (method_reaches_sink(m)) {
          reason = "method call ->" + m + "() may reach a sink";
          return false;
        }
        return true;
      }
      case NodeKind::kStaticCall: {
        const auto& sc = static_cast<const StaticCall&>(n);
        const std::string m = to_lower(sc.method);
        if (summaries_ != nullptr) {
          // Interpreter resolution order: "class::method", then bare.
          std::string resolved = to_lower(sc.class_name) + "::" + m;
          if (program_.functions.count(resolved) == 0) resolved = m;
          if (program_.functions.count(resolved) != 0) {
            reason = vet_call_site(resolved, sc.args, sc.loc());
          }
          return reason.empty();
        }
        if (method_reaches_sink(m)) {
          reason = "static call ::" + m + "() may reach a sink";
          return false;
        }
        return true;
      }
      case NodeKind::kNew: {
        // The interpreter never runs constructors — `new` yields a fresh
        // symbol — so with summaries available object construction is
        // known not to reach a sink.
        if (summaries_ == nullptr && method_reaches_sink("__construct")) {
          reason = "constructor may reach a sink";
          return false;
        }
        return true;
      }
      default:
        return true;
    }
  };
  for (const StmtPtr& s : stmts) {
    if (s != nullptr) phpast::walk(*s, visit);
    if (!reason.empty()) break;
  }
  return reason;
}

std::string Analyzer::vet_call_site(std::string_view callee,
                                    phpast::ExprList args, SourceLoc loc) {
  const FunctionFacts* facts = summaries_->facts(callee);
  if (facts == nullptr) {
    return "";  // not user-defined; the interpreter treats it as a builtin
  }
  if (facts->escapes) {
    std::string r = "call into ";
    r += callee;
    r += "() whose body escapes static analysis";
    return r;
  }
  if (!facts->reaches_sink) return "";  // whole callee set is sink-free

  // The callee can reach a sink: instantiate its summary at this call
  // site's abstract argument values — equivalent to inlining the body.
  std::vector<AbsVal> vals;
  vals.reserve(args.size());
  for (const phpast::Expr* a : args) {
    vals.push_back(a != nullptr ? eval(*a, env_) : top());
  }
  const SummaryInstance& inst = summaries_->instantiate(callee, vals);
  if (inst.analyzable && inst.all_sinks_safe) {
    summary_used_ = true;  // the waiver leaned on the summary layer
    return "";
  }

  std::string chain(callee);
  for (std::size_t i = 1; i < facts->sink_chain.size(); ++i) {
    chain += " -> ";
    chain += facts->sink_chain[i];
  }
  bool taint_in = facts->reads_files;
  for (const AbsVal& v : vals) {
    if (is_files(v.kind) || v.kind == Kind::kTop) {
      taint_in = true;
      break;
    }
  }
  if (taint_in) {
    std::string msg = "upload taint can reach a sink through the helper "
                      "chain " + chain;
    if (!inst.reason.empty()) msg += ": " + inst.reason;
    add_lint("UC107", Severity::kError, loc, std::move(msg));
  }
  std::string r = "call into ";
  r += callee;
  r += "() reaches a sink";
  if (!inst.reason.empty()) {
    r += " (";
    r += inst.reason;
    r += ")";
  }
  return r;
}

void Analyzer::scan_escapes(Span<const StmtPtr> stmts) {
  auto visit = [this](const Node& n) -> bool {
    switch (n.kind()) {
      case NodeKind::kFunctionDecl:
      case NodeKind::kClassDecl:
        return false;  // separate scopes
      case NodeKind::kCall: {
        const auto& call = static_cast<const Call&>(n);
        if (call.is_dynamic()) {
          ++escaped_calls_;
          add_lint("UC108", Severity::kInfo, call.loc(),
                   "dynamic/variable call defeats static analysis at this "
                   "site");
          return true;
        }
        if (callback_builtins().count(call.callee) != 0) {
          ++escaped_calls_;
          add_lint("UC108", Severity::kInfo, call.loc(),
                   "callback builtin " + std::string(call.callee) +
                       "() escapes static analysis at this site");
          return true;
        }
        if (summaries_ != nullptr) {
          const FunctionFacts* f = summaries_->facts(call.callee);
          if (f != nullptr && f->escapes) {
            ++escaped_calls_;
            add_lint("UC108", Severity::kInfo, call.loc(),
                     "call into " + std::string(call.callee) +
                         "() whose body escapes static analysis");
          }
        }
        return true;
      }
      default:
        return true;
    }
  };
  for (const StmtPtr& s : stmts) {
    if (s != nullptr) phpast::walk(*s, visit);
  }
}

// --- lints ---------------------------------------------------------------

std::string Analyzer::line_evidence(SourceLoc loc) const {
  if (!loc.valid()) return "";
  const SourceFile* f = sources_.file(loc.file);
  if (f == nullptr) return "";
  std::string_view line = f->line(loc.line);
  const auto first = line.find_first_not_of(" \t\r\n");
  if (first == std::string_view::npos) return "";
  const auto last = line.find_last_not_of(" \t\r\n");
  line = line.substr(first, last - first + 1);
  if (line.size() > 160) line = line.substr(0, 160);
  return std::string(line);
}

void Analyzer::add_lint(const char* rule, Severity severity, SourceLoc loc,
                        std::string message) {
  const std::string location = sources_.describe(loc);
  if (!lint_keys_.emplace(rule, location).second) return;
  LintFinding f;
  f.rule = rule;
  f.severity = severity;
  f.location = location;
  f.message = std::move(message);
  f.evidence = line_evidence(loc);
  lints_.emplace_back(loc, std::move(f));
}

// --- driver --------------------------------------------------------------

void Analyzer::solve_body(Span<const StmtPtr> body) {
  phpast::collect_var_bindings(body, bindings_);

  const phpast::FunctionDecl* fn =
      root_ != nullptr ? root_->function : summary_fn_;
  if (fn != nullptr) {
    caller_scope_ = true;
    const Env empty;
    for (std::size_t i = 0; i < fn->params.size(); ++i) {
      const phpast::Param& p = fn->params[i];
      AbsVal v = top();
      if (summary_args_ != nullptr && i < summary_args_->size()) {
        v = (*summary_args_)[i];
      } else if (root_ != nullptr && root_->binding_call != nullptr &&
                 i < root_->binding_call->args.size() &&
                 root_->binding_call->args[i] != nullptr) {
        v = eval(*root_->binding_call->args[i], empty);
      } else if (p.default_value != nullptr) {
        v = eval(*p.default_value, empty);
      }
      param_values_.emplace(p.name, std::move(v));
      bindings_.push_back(VarBinding{std::string(p.name),
                                     VarBinding::Kind::kAssign, nullptr,
                                     BinaryOp::kConcat, nullptr});
    }
    caller_scope_ = false;
  }

  for (const VarBinding& b : bindings_) {
    bound_names_.insert(b.name);
    bindings_by_name_[b.name].push_back(&b);
  }

  env_ = phpast::solve_flow_insensitive<AbsVal>(
      bindings_,
      [this](const VarBinding& b, const Env& env) { return transfer(b, env); },
      [](const AbsVal& a, const AbsVal& b) { return join(a, b); });
}

AbsVal Analyzer::collect_return_value(Span<const StmtPtr> body) {
  AbsVal acc = bottom();
  bool any = false;
  auto visit = [&](const Node& n) -> bool {
    switch (n.kind()) {
      case NodeKind::kFunctionDecl:
      case NodeKind::kClassDecl:
      case NodeKind::kClosure:
        return false;  // separate scopes
      case NodeKind::kReturn: {
        const auto& r = static_cast<const Return&>(n);
        any = true;
        acc = join(acc,
                   r.value != nullptr ? eval(*r.value, env_) : safe_atom());
        return true;
      }
      default:
        return true;
    }
  };
  for (const StmtPtr& s : body) {
    if (s != nullptr) phpast::walk(*s, visit);
  }
  // Falling off the end returns null — a safe atom: it can neither be
  // $_FILES-derived (C1) nor carry an executable suffix (C2).
  if (!any) return safe_atom();
  return acc;
}

RootAnalysis Analyzer::run() {
  const Span<const StmtPtr> body =
      root_->function != nullptr ? Span<const StmtPtr>(root_->function->body)
                                 : as_span(root_->file->statements);
  solve_body(body);

  const std::string bail = find_bail(body);
  scan_stmts(body);
  scan_escapes(body);

  RootAnalysis result;
  result.escaped_calls = escaped_calls_;
  bool all_prunable = true;
  for (const SinkSite& site : sink_sites_) {
    SinkSummary summary = classify_sink(site);
    all_prunable = all_prunable && summary.prunable;
    result.sinks.push_back(std::move(summary));
  }

  if (!bail.empty()) {
    result.prunable = false;
    result.reason = bail;
  } else if (result.sinks.empty()) {
    if (summaries_ != nullptr) {
      // Summary-proven sink-free root: the body has no lexical sink and
      // a clean bail scan already vetted every reachable callee (sink-
      // free, or instantiated with all sinks safe), so the interpreter
      // cannot record a sink for this root.
      result.prunable = true;
      result.summary_pruned = true;
      result.reason = "no lexical sink; callee set summary-proven sink-free";
    } else {
      result.prunable = false;
      result.reason = "no lexical sink in root body";
    }
  } else if (all_prunable) {
    result.prunable = true;
    result.summary_pruned = summary_used_;
    result.reason = "all sinks proven safe";
  } else {
    result.prunable = false;
    for (const SinkSummary& s : result.sinks) {
      if (!s.prunable) {
        result.reason = s.reason;
        break;
      }
    }
  }

  std::stable_sort(lints_.begin(), lints_.end(),
                   [](const auto& a, const auto& b) {
                     if (a.first.file.value != b.first.file.value) {
                       return a.first.file.value < b.first.file.value;
                     }
                     if (a.first.line != b.first.line) {
                       return a.first.line < b.first.line;
                     }
                     return a.second.rule < b.second.rule;
                   });
  result.lints.reserve(lints_.size());
  for (auto& [loc, lint] : lints_) result.lints.push_back(std::move(lint));
  return result;
}

SummaryInstance Analyzer::run_summary() {
  const Span<const StmtPtr> body(summary_fn_->body);
  solve_body(body);

  SummaryInstance out;
  out.return_value = collect_return_value(body);

  const std::string bail = find_bail(body);
  scan_stmts(body);

  bool all_safe = true;
  for (const SinkSite& site : sink_sites_) {
    SinkSummary summary = classify_sink(site);
    all_safe = all_safe && summary.prunable;
    out.sinks.push_back(std::move(summary));
  }

  if (!bail.empty()) {
    out.analyzable = false;
    out.all_sinks_safe = false;
    out.reason = bail;
    out.return_value = top();  // an escaped body may return anything
    return out;
  }
  out.analyzable = true;
  out.all_sinks_safe = all_safe;
  if (!all_safe) {
    for (const SinkSummary& s : out.sinks) {
      if (!s.prunable) {
        out.reason = s.reason;
        break;
      }
    }
  }
  return out;
}

}  // namespace

std::string_view severity_name(Severity s) {
  switch (s) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

std::optional<Severity> parse_severity(std::string_view text) {
  if (text == "info") return Severity::kInfo;
  if (text == "warning") return Severity::kWarning;
  if (text == "error") return Severity::kError;
  return std::nullopt;
}

std::string_view guard_class_name(GuardClass g) {
  switch (g) {
    case GuardClass::kNoGuard:
      return "NoGuard";
    case GuardClass::kWeakGuard:
      return "WeakGuard";
    case GuardClass::kStrongGuard:
      return "StrongGuard";
  }
  return "unknown";
}

RootAnalysis analyze_root(const Program& program, const CallGraph& graph,
                          const AnalysisRoot& root,
                          const SourceManager& sources,
                          const SinkRegistry& sinks,
                          const StaticPassOptions& options) {
  Analyzer analyzer(program, graph, root, sources, sinks, options);
  return analyzer.run();
}

SummaryInstance analyze_function_body(const Program& program,
                                      const CallGraph& graph,
                                      const phpast::FunctionDecl& fn,
                                      const std::vector<AbsVal>& args,
                                      const SourceManager& sources,
                                      const SinkRegistry& sinks,
                                      const StaticPassOptions& options,
                                      SummaryStore* store) {
  Analyzer analyzer(program, graph, fn, args, sources, sinks, options, store);
  return analyzer.run_summary();
}

}  // namespace uchecker::core::staticpass
