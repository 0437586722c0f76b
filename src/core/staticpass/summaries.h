// Inter-procedural function summaries for the static pass.
//
// The intraprocedural analyzer (staticpass.cc) historically treated every
// call into a user-defined function as opaque: eval_call returned top()
// and any callee that could reach a sink in the call graph forced the
// whole root onto the symbolic path. This module closes that hole with
// two cooperating layers:
//
//  1. Context-insensitive FunctionFacts, computed on demand: the first
//     query for a function runs an iterative Tarjan SCC condensation
//     from it over the functions not summarized yet, so a scan only
//     summarizes what its roots call (the per-SCC bit fixpoint is
//     trivially reached in one union pass because reachability bits are
//     uniform within an SCC). The facts record whether a function
//     lexically contains a sink, transitively reaches one, reads
//     $_FILES/superglobals, or "escapes" the analysis (dynamic call,
//     eval/extract, callback builtin, include, closure) — the blind
//     spots UC108 reports.
//
//  2. Context-keyed SummaryInstances: a memoized run of the body
//     analyzer with the *actual* abstract argument values of one call
//     site bound to the parameters. Instantiating a summary is
//     abstractly identical to inlining the callee at the call site, so
//     every guard-recognition and suffix rule of the intraprocedural
//     pass (already crosschecked against the symbolic engine) carries
//     over unchanged. Functions in a recursive SCC conservatively
//     degrade to top — matching the symbolic interpreter, which replaces
//     recursive calls with a fresh unknown symbol.
//
// Reachability here deliberately follows only calls the symbolic
// interpreter actually inlines (the callees Program::callee() resolves)
// — not the call graph's callback-registration edges,
// which the interpreter never executes. That makes "summary-proven
// sink-free" an over-approximation of what interp can find, so pruning
// a root whose whole transitive callee set is sink-free is sound; the
// crosscheck oracle gates it at runtime.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/callgraph/callgraph.h"
#include "core/sinks.h"
#include "core/staticpass/absdomain.h"
#include "core/staticpass/staticpass.h"
#include "support/source.h"

namespace uchecker::core::staticpass {

// Builtins that invoke a callback or otherwise escape static analysis
// (call_user_func, array_map, eval, extract, ...). Shared by the
// analyzer's bail scan, the UC108 escaped-call walk, and the summary
// fact builder so the three can never drift apart.
[[nodiscard]] const std::set<std::string, std::less<>>& callback_builtins();

// Context-insensitive facts about one user-defined function, valid at
// every call site. Computed bottom-up over the SCC condensation of the
// functions it reaches.
struct FunctionFacts {
  std::string name;     // the declaration's own key, FunctionInfo::name
  int scc = -1;         // condensation index; callees never have a larger one
  bool recursive = false;       // member of a nontrivial SCC or self-loop
  bool has_local_sink = false;  // own body contains a lexical sink call
  bool reaches_sink = false;    // transitively, over interp-inlinable calls
  bool reads_files = false;     // $_FILES / superglobal read, transitively
  bool escapes = false;  // dynamic call, callback builtin (call_user_func,
                         // array_map, eval, extract, ...), include or
                         // closure anywhere in the transitive body set
  // A witness call chain name -> ... -> sink-containing function, for
  // UC107 evidence. Empty unless reaches_sink.
  std::vector<std::string> sink_chain;
};

// One memoized instantiation of a function at an abstract argument tuple.
struct SummaryInstance {
  AbsVal return_value;       // join over the body's return expressions
  bool analyzable = false;   // body + callees fully understood (no bail)
  bool all_sinks_safe = false;  // every reachable sink classified prunable
  std::string reason;        // bail reason or first unsafe sink's reason
  std::vector<SinkSummary> sinks;  // classification of the body's sinks
};

struct SummaryStats {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

// The store does no work when constructed: it fills itself as it is
// queried. A function's facts depend only on the components it reaches,
// and each component is finished before any of its callers, so the
// facts do not depend on which function was asked about first.
class SummaryStore {
 public:
  SummaryStore(const Program& program, const CallGraph& graph,
               const SourceManager& sources, const SinkRegistry& sinks,
               const StaticPassOptions& options);

  // Null when `lower_name` is not a user-defined function; a method's
  // bare name gives the facts of the method it resolves to. The first
  // query summarizes the function and every function it reaches that
  // no earlier query summarized.
  [[nodiscard]] const FunctionFacts* facts(std::string_view lower_name);

  // Conservative reachability query replacing the analyzer's call-graph
  // walk: true when the function reaches a sink over interp-inlinable
  // calls OR escapes the analysis (an escaped body might do anything).
  [[nodiscard]] bool function_reaches_sink(std::string_view lower_name);

  // Memoized context-keyed instantiation. Recursive or escaped functions
  // yield a conservative instance (return top, not analyzable).
  const SummaryInstance& instantiate(std::string_view lower_name,
                                     const std::vector<AbsVal>& args);

  [[nodiscard]] SummaryStats& stats() { return stats_; }
  [[nodiscard]] const SummaryStats& stats() const { return stats_; }

  // The SCCs summarized so far, in bottom-up (callee-first) emission
  // order; members sorted by name. Only components some query reached
  // are here. Exposed for tests.
  [[nodiscard]] const std::vector<std::vector<std::string>>& sccs() const {
    return sccs_;
  }

 private:
  // A function's own facts and interp-inlinable call edges, before the
  // bottom-up propagation.
  struct LocalFacts {
    bool sink = false;     // lexical call to a registered sink name
    bool files = false;    // reads $_FILES (or another attacker superglobal)
    bool escapes = false;  // dynamic call, callback builtin, include,
                           // closure, or by-ref parameter
    std::vector<std::string> callees;  // user-defined, deduped, sorted
  };

  [[nodiscard]] LocalFacts local_facts(
      const Program::FunctionInfo& info) const;
  void summarize(const std::string& start);
  void finish_component(std::vector<std::string> members);

  const Program& program_;
  const CallGraph& graph_;
  const SourceManager& sources_;
  const SinkRegistry& sinks_;
  const StaticPassOptions& options_;

  std::map<std::string, LocalFacts, std::less<>> locals_;
  std::map<std::string, FunctionFacts, std::less<>> facts_;
  std::vector<std::vector<std::string>> sccs_;
  std::map<std::string, SummaryInstance, std::less<>> instances_;
  std::set<std::string, std::less<>> in_progress_;
  SummaryStats stats_;
};

// The workhorse behind SummaryStore::instantiate, implemented in
// staticpass.cc because it reuses the intraprocedural Analyzer: analyzes
// one function body with the given abstract parameter values (missing
// trailing arguments fall back to the declared defaults, then top).
[[nodiscard]] SummaryInstance analyze_function_body(
    const Program& program, const CallGraph& graph,
    const phpast::FunctionDecl& fn, const std::vector<AbsVal>& args,
    const SourceManager& sources, const SinkRegistry& sinks,
    const StaticPassOptions& options, SummaryStore* store);

}  // namespace uchecker::core::staticpass
