// AST-based symbolic execution engine (paper §III-B).
//
// The interpreter statically evaluates the AST of the analysis root
// selected by locality analysis, producing one shared heap graph plus one
// environment per execution path. Forking happens at conditionals (and at
// loop heads, switch cases, foreach entry), exactly as the paper's
// eval(if e then S1 else S2) rule describes: the environment set is
// duplicated, each copy's reachability constraint `cur` is extended with
// the (negated) branch condition via ER(), and the results are joined.
//
// Expression evaluation uses a per-environment operand stack instead of
// the paper's label vectors: a path fork copies the stack, which keeps
// partial results aligned with their paths even when a user-defined
// function call forks mid-expression.
//
// Loops are not executed precisely (paper §VI acknowledges the same
// limitation): each loop forks into a skip path and a bounded number of
// unrolled iterations.
//
// At every if/elseif and switch join, the descendants of one pre-fork
// environment merge back into one when they are all still running and
// agree on the root's sink slice (core/interp/slice.h): same operand
// stack, frames and return value, same binding (or absence) of every
// sink-relevant variable. The merged environment keeps the
// program-order-first descendant's other bindings and gets the pre-fork
// `cur` back exactly, since the arms are exhaustive. Each environment
// carries a weight, the structural paths it stands for, so
// InterpStats::paths still counts the paths an unmerged run forks.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/callgraph/callgraph.h"
#include "core/callgraph/locality.h"
#include "core/heapgraph/heapgraph.h"
#include "core/sinks.h"
#include "phpast/ast.h"
#include "support/deadline.h"
#include "support/diag.h"

namespace uchecker::telemetry {
class ScanEvents;
}  // namespace uchecker::telemetry

namespace uchecker::core {

// User-function calls nested deeper than this (and recursive calls)
// return a fresh symbol instead of being executed.
inline constexpr std::size_t kMaxCallDepth = 24;
// A foreach over an array of known structure unrolls at most this many
// entries.
inline constexpr int kMaxForeachEntries = 4;

// Resource limits. Exhaustion is reported, never fatal: the detector
// turns it into a "analysis incomplete" verdict, which is how the paper's
// Cimy-User-Extra-Fields false negative arises (248K paths exceeded the
// machine's memory). max_paths caps live environments, which is what
// costs memory; merged environments count once whatever their weight.
struct Budget {
  std::size_t max_paths = 100'000;
  std::size_t max_objects = 2'000'000;
  int loop_unroll = 1;
  // include/require whose path resolves to a file of the program are
  // executed inline up to this nesting depth (0 disables following).
  int max_include_depth = 8;
  // Wall-clock budget for one whole scan, distinct from the path/object
  // budgets above (0 = unlimited). The detector starts the clock when
  // scan() begins; expiry degrades the scan to a partial report with
  // deadline_exceeded set instead of hanging.
  std::chrono::milliseconds time_limit{0};
  // Materialized deadline/cancellation token for the current scan. Set
  // by the detector (from time_limit and any fleet-level deadline);
  // user code configures time_limit instead.
  Deadline deadline;
  // Per-scan event hook (support/scan_events.h), set by the detector
  // when an observability consumer is attached: receives fork
  // enter/exit, a progress sample per deadline poll and budget/deadline
  // exhaustion events. Null (the default) costs one pointer test.
  telemetry::ScanEvents* events = nullptr;
};

// One reachable invocation of a file-upload sink, with everything the
// vulnerability model (§III-C) needs: the source/destination objects and
// the path's reachability constraint at the moment of the call.
struct SinkHit {
  std::string sink_name;
  SourceLoc loc;
  Label src = kNoLabel;           // e_src — the uploaded content
  Label dst = kNoLabel;           // e_dst — the destination file name
  Label reachability = kNoLabel;  // env.cur() at the call site
};

struct InterpStats {
  std::size_t paths = 0;        // structural paths: sum of the env weights
  std::size_t objects = 0;      // heap graph size
  std::size_t peak_paths = 0;   // most live environments (what max_paths caps)
  std::size_t env_bytes = 0;    // accounted environment memory
  std::size_t cons_hits = 0;    // add_* calls answered by hash-consing
  bool budget_exhausted = false;
  bool deadline_exceeded = false;  // wall-clock deadline hit mid-run
};

struct InterpResult {
  HeapGraph graph;
  std::vector<Env> envs;
  std::vector<SinkHit> sinks;
  InterpStats stats;
};

class Interpreter {
 public:
  Interpreter(const Program& program, DiagnosticSink& diags,
              Budget budget = {},
              const SinkRegistry& sinks = SinkRegistry::paper_defaults());

  // Symbolically executes the body of `root` (a PHP file or a function).
  // For a function root, parameters are bound to fresh symbolic values.
  [[nodiscard]] InterpResult run(const AnalysisRoot& root);

  // --- helpers shared with the builtin models (builtins.cc) ---

  [[nodiscard]] HeapGraph& graph() { return graph_; }

  // Fresh symbol with a stable, unique display name derived from `hint`.
  Label fresh_symbol(std::string_view hint, Type type, SourceLoc loc,
                     bool tainted = false);

  // The pre-structured $_FILES entry array for a given field index
  // (paper §III-B4 / Fig. 6); cached per field key.
  Label files_entry_array(const std::string& field_key, SourceLoc loc);

  // Registered association from an uploaded-file "name" object to the
  // symbols for its filename stem and extension. Lets builtin models of
  // pathinfo()/explode()/strrchr() return the very extension symbol the
  // destination constraint mentions.
  [[nodiscard]] std::optional<std::pair<Label, Label>> name_parts(Label name) const;
  void register_name_parts(Label name, Label stem, Label ext);

 private:
  friend struct BuiltinContext;

  // --- env-set plumbing
  // Interned id for a variable name; hoisted out of per-env loops so a
  // fork-heavy statement interns each name once, not once per path.
  [[nodiscard]] VarId vid(std::string_view name) {
    return interner_->intern(name);
  }
  void push(Env& env, Label label);
  Label pop(Env& env);
  [[nodiscard]] bool any_running() const;
  void check_budget();

  // --- evaluation (pushes one operand per running env)
  void eval_expr(const phpast::Expr& expr);
  void eval_variable(const phpast::Variable& var);
  void eval_array_access(const phpast::ArrayAccess& access);
  void eval_assign(const phpast::Assign& assign);
  void eval_call(const phpast::Call& call);
  void eval_builtin_or_unknown(std::string_view name,
                               const std::vector<const phpast::Expr*>& arg_exprs,
                               SourceLoc loc);
  void eval_user_function(const Program::FunctionInfo& info,
                          std::size_t arg_count, SourceLoc loc);
  void record_sink(std::string_view name, std::size_t arg_count,
                   SourceLoc loc);

  // Assignment into a possibly-nested lvalue for one environment.
  void assign_into(Env& env, const phpast::Expr& target, Label value,
                   SourceLoc loc);

  // --- statements
  void exec_stmts(Span<const phpast::StmtPtr> stmts);
  void exec_stmt(const phpast::Stmt& stmt);
  void exec_if(const phpast::If& stmt);
  void exec_branch(const std::vector<Label>& cond_labels, bool negate,
                   Span<const phpast::StmtPtr> body,
                   std::vector<Env> base_envs, std::vector<Env>& out);
  void exec_switch(const phpast::Switch& stmt);
  void exec_loop(const phpast::Expr* cond,
                 Span<const phpast::StmtPtr> body,
                 const phpast::ExprList* step, SourceLoc loc,
                 std::string_view kind_detail);
  void exec_foreach(const phpast::Foreach& stmt);

  // Pops per-statement expression results from running envs.
  void discard_results(std::size_t count);

  // --- merging at if/switch joins
  // Pre-fork state of one if/switch: each pre-fork env's own fork origin
  // (restored at the join) and its reachability.
  struct ForkJoin {
    std::vector<std::uint32_t> outer_origin;
    std::vector<Label> cur;
  };
  // Tags each env of `running` (all running, about to fork) with its
  // index as fork origin.
  [[nodiscard]] ForkJoin open_join(std::vector<Env>& running);
  // Merges each pre-fork env's descendants in `arms` back into one when
  // they agree on the sink slice (see the header comment), and restores
  // the outer fork origins.
  void close_join(const ForkJoin& fork, std::vector<Env>& arms);
  [[nodiscard]] bool same_join_state(const Env& a, const Env& b) const;

  // include/require: resolves the path expression against the program's
  // files (trailing-string-literal suffix match, as in the call graph)
  // and executes the included file's top-level statements inline.
  void eval_include(const phpast::IncludeExpr& include);
  [[nodiscard]] const phpast::PhpFile* resolve_include_target(
      const phpast::Expr& path) const;

  const Program& program_;
  DiagnosticSink& diags_;
  Budget budget_;
  const SinkRegistry& sink_registry_;

  HeapGraph graph_;
  // Variable-name interner shared with every environment forked during
  // this run (environments copy the shared_ptr, not the table).
  std::shared_ptr<VarInterner> interner_ = std::make_shared<VarInterner>();
  std::vector<Env> envs_;
  std::vector<SinkHit> sinks_;
  InterpStats stats_;
  bool aborted_ = false;
  // The root's sink-relevant variables (sorted ids); joins merge only
  // when the root has a slice at all.
  std::vector<VarId> relevant_;
  bool merge_ = false;

  // Shared (cross-environment) object caches.
  std::map<std::string, Label, std::less<>> superglobals_;
  std::map<std::string, Label> files_entries_;
  std::map<std::string, Label, std::less<>> globals_;
  std::map<Label, std::pair<Label, Label>> name_parts_;

  std::vector<std::string> call_chain_;     // active user-function inlining
  std::vector<std::string> include_chain_;  // active include nesting
  std::set<std::string> included_once_;     // include_once/require_once
  std::uint64_t symbol_counter_ = 0;
  std::uint32_t deadline_poll_ = 0;  // stride counter for deadline checks
};

}  // namespace uchecker::core
