// Pre-symbolic static analysis pass (lints + symbolic-execution pruning).
//
// Runs over the parsed AST of each analysis root *before* symbolic
// execution. Three jobs:
//
//  - an intraprocedural, flow-insensitive taint lattice
//    (bottom < untainted < $_FILES-tainted) seeded from $_FILES accesses
//    and propagated with the phpast dataflow engine;
//  - a sanitizer-idiom recognizer that classifies the guards dominating
//    each upload sink (in_array whitelists, `== 'jpg'` literal chains,
//    blacklists + wp_die, substr suffix compares, switch whitelists,
//    explode/end extension splits) into StrongGuard / WeakGuard / NoGuard
//    and derives structured lint findings from the weak idioms;
//  - a per-root prune decision the detector uses to skip symbolic
//    execution entirely (unless ScanOptions::crosscheck is set).
//
// Soundness contract for pruning: a root is marked prunable ONLY when
// every lexical sink in its body is individually proven safe — either
// its tainted inputs are provably not derived from $_FILES (condition C1
// of the vulnerability model cannot hold) or the destination's extension
// is provably confined to a non-executable whitelist (condition C2
// cannot hold) — AND the body contains no construct that could reach a
// sink outside this analysis (dynamic calls, includes, closures, calls
// into user functions that reach a sink in the call graph). Anything the
// recognizer does not understand keeps the root on the symbolic path, so
// pruning never changes a verdict; ScanOptions::crosscheck turns that
// contract into a runtime oracle.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/callgraph/callgraph.h"
#include "core/callgraph/locality.h"
#include "core/sinks.h"
#include "support/source.h"

namespace uchecker::core::staticpass {

class SummaryStore;  // core/staticpass/summaries.h

enum class Severity : std::uint8_t { kInfo, kWarning, kError };

[[nodiscard]] std::string_view severity_name(Severity s);
// Parses "info" / "warning" / "error" (for --fail-on-lint).
[[nodiscard]] std::optional<Severity> parse_severity(std::string_view text);

// One structured lint finding. Rules:
//   UC101 unrestricted-upload        error    tainted name reaches sink
//                                             with no recognized guard
//   UC102 extension-blacklist        warning  deny-list guard idiom
//   UC103 case-sensitive-compare     warning  extension compared without
//                                             strtolower()
//   UC104 double-extension-split     warning  extension taken from a fixed
//                                             explode() segment instead of
//                                             the last one
//   UC105 forced-executable-dest     error    destination ends with a
//                                             constant executable extension
//   UC106 raw-client-filename        info     client filename used in the
//                                             destination without basename()
//   UC107 helper-chain-taint         error    taint reaches a sink through
//                                             a helper-function chain (the
//                                             message reports the chain)
//   UC108 escaped-call-site          info     dynamic/variable call or
//                                             callback builtin defeats
//                                             static analysis at this site
struct LintFinding {
  std::string rule;      // "UC101" ...
  Severity severity = Severity::kWarning;
  std::string location;  // "file:line"
  std::string message;
  std::string evidence;  // the source line
};

// Guard strength of the sanitizer idioms dominating one sink.
enum class GuardClass : std::uint8_t {
  kNoGuard,      // nothing between the taint source and the sink
  kWeakGuard,    // some guard exists but safety is not proven (blacklist,
                 // helper-function check, unrecognized condition)
  kStrongGuard,  // extension provably confined to a safe whitelist
};

[[nodiscard]] std::string_view guard_class_name(GuardClass g);

// Static classification of one lexical sink call in a root body.
struct SinkSummary {
  std::string sink_name;
  SourceLoc loc;
  GuardClass guard = GuardClass::kNoGuard;
  bool prunable = false;  // proven untainted or strongly guarded
  std::string reason;     // human-readable justification
};

struct RootAnalysis {
  // True iff symbolic execution of this root provably cannot produce a
  // vulnerable verdict (see the soundness contract above).
  bool prunable = false;
  std::string reason;
  std::vector<SinkSummary> sinks;
  std::vector<LintFinding> lints;
  // True when the prune decision required the inter-procedural summary
  // layer (a sink-free callee set, or a call-site instantiation proving
  // a sink-reaching helper safe). Telemetry:
  // staticpass.summary_pruned_roots.
  bool summary_pruned = false;
  // Call sites in this root whose callees the analysis cannot follow
  // (dynamic calls, callback builtins, escaped helpers) — the UC108
  // sites. Telemetry: staticpass.escaped_calls.
  std::size_t escaped_calls = 0;
};

struct StaticPassOptions {
  // Extensions the vulnerability model treats as executable; mirror
  // VulnModelOptions::executable_extensions.
  std::vector<std::string> executable_extensions{"php", "php5", "phtml"};
  // Inter-procedural function summaries (core/staticpass/summaries.h).
  // When set, calls into user-defined functions are resolved by summary
  // instantiation instead of degrading to top(); null reproduces the
  // purely intraprocedural pass. The store memoizes across roots — the
  // detector owns one per scan.
  SummaryStore* summaries = nullptr;
};

// Analyzes one locality root intraprocedurally. Pure AST work: no solver,
// no interpreter, linear in the body size.
[[nodiscard]] RootAnalysis analyze_root(const Program& program,
                                        const CallGraph& graph,
                                        const AnalysisRoot& root,
                                        const SourceManager& sources,
                                        const SinkRegistry& sinks,
                                        const StaticPassOptions& options);

}  // namespace uchecker::core::staticpass
