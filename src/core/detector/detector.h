// End-to-end UChecker pipeline (paper Fig. 2):
//   parsing -> locality analysis -> AST-based symbolic execution ->
//   vulnerability modeling -> Z3 translation -> SMT verification.
//
// Detector::scan() runs the whole pipeline over one application (a set
// of PHP sources) and produces the measurements of paper Table III:
// LoC, % of LoC analyzed, paths, objects, objects/path, memory, time,
// and the verdict, plus per-finding source locations and witnesses.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/callgraph/callgraph.h"
#include "core/callgraph/locality.h"
#include "core/interp/interp.h"
#include "core/staticpass/staticpass.h"
#include "core/vulnmodel/vulnmodel.h"
#include "support/diag.h"
#include "support/profile.h"
#include "support/source.h"

namespace uchecker::telemetry {
class FlightRecorder;
class ScanEvents;
class Telemetry;
}  // namespace uchecker::telemetry

namespace uchecker::core {

// Bumped whenever a change can alter verdicts, findings or the report
// JSON schema. Persistent caches (scand's verdict and solver stores)
// key on it, so an engine upgrade cold-starts them instead of replaying
// stale analysis results. Last bumped when Program::include_target
// began to match an include's name by whole path components ('helper.php'
// no longer runs myhelper.php): verdicts changed for apps whose include
// names the tail of another file's name.
inline constexpr std::string_view kEngineVersion = "uchecker-24";

struct ScanOptions {
  Budget budget;
  VulnModelOptions vuln;
  LocalityOptions locality;
  SinkRegistry sinks;        // copy()/rename() included by default
  bool run_locality = true;  // ablation switch for bench_locality
  // Pre-symbolic static pass (core/staticpass). It runs on every scan,
  // and symbolic execution skips the roots it proves safe. `lint`
  // collects the pass's structured findings into ScanReport::lints;
  // `crosscheck` runs *both* engines on every root (nothing is skipped)
  // and reports any root the pass would prune but the symbolic engine
  // finds vulnerable as Verdict::kAnalysisDisagreement (a soundness
  // oracle — see the contract in core/staticpass/staticpass.h). It is
  // the one "prune nothing" switch: the vulnerability model's case
  // refuter is skipped too, so every sink query goes to Z3.
  bool lint = true;
  bool crosscheck = false;
  // Inter-procedural function summaries (core/staticpass/summaries.h):
  // calls into user functions resolve by summary instantiation instead
  // of degrading the root to the symbolic path, and roots whose whole
  // transitive callee set is summary-proven sink-free are pruned before
  // symbolic execution. Off reproduces the purely intraprocedural pass
  // (an ablation switch; verdicts are identical either way — summaries
  // only change pruning and lints, never interpreter results).
  bool summaries = true;
  // Finding provenance: attach a source→sink taint path, the path's
  // branch guards, and a decoded attack reconstruction to every finding
  // (and fill Finding::evidence). Purely additive — verdicts and every
  // other report field except the wall-clock ones (seconds, phase_ms,
  // root_costs) are byte-identical with it on or off; off keeps the
  // vulnerability model on its zero-overhead path.
  bool explain = false;
  // Optional externally-owned solver query cache. When set it replaces
  // the detector's internal one, letting several Detector instances (a
  // service handling per-request option variants) share one fleet-wide
  // cache — and letting a daemon preload it from disk and drain newly
  // solved outcomes for incremental persistence. The cache locks
  // internally; the pointee must outlive every scan.
  SolverQueryCache* query_cache = nullptr;
  // Optional observability handle (see support/telemetry.h). When set,
  // every scan records a phase-scoped span tree, interpreter progress
  // samples and solver latencies into a per-scan trace, and shared
  // counters/histograms into the registry. Null (the default) keeps the
  // pipeline on its zero-overhead path.
  telemetry::Telemetry* telemetry = nullptr;
  // Request trace ID correlating this scan with the request that caused
  // it (minted by scanctl or the scand server). Stamped into the per-scan
  // trace, the report and metric exemplars. When empty and telemetry is
  // attached, Detector::scan mints one so every traced scan is
  // addressable; with no telemetry it stays empty (zero-overhead path).
  std::string trace_id;
  // Engine introspection (support/profile.h): attribute forked paths to
  // source fork sites, solver wall time to sinks, and heap growth to
  // fork depth, per analysis root. Incomplete roots additionally get a
  // budget post-mortem. Purely additive — verdicts and every other
  // report field except the wall-clock ones (seconds, phase_ms,
  // root_costs) are byte-identical with it on or off; off keeps the
  // interpreter and solver on their zero-overhead paths.
  bool profile = false;
  // Parse-phase worker threads. 0 = auto (hardware concurrency capped
  // at 8); 1 = serial parsing on the scanning thread. Parsing is
  // per-file independent (one arena, one diagnostic sink per file; see
  // phpparse/parse_pool.h), so thread count never changes verdicts,
  // diagnostics, or their order — only wall-clock time.
  std::size_t parse_threads = 0;
  // Optional per-worker flight recorder (support/flight_recorder.h):
  // phase transitions, progress samples, solver calls and events are
  // recorded into its lock-free ring so a watchdog can dump what a
  // wedged scan was doing. The pointee must outlive the scan.
  telemetry::FlightRecorder* flight = nullptr;
};

enum class Verdict : std::uint8_t {
  kVulnerable,
  kNotVulnerable,
  kAnalysisIncomplete,  // budget/deadline exhausted before a verdict
                        // (how the paper loses Cimy User Extra Fields)
  kAnalysisError,       // a pipeline phase failed; report is partial and
                        // the errors list says which phase and why
  kAnalysisDisagreement,  // crosscheck mode: the static pass proved a root
                          // safe that the symbolic engine found vulnerable
};

[[nodiscard]] std::string_view verdict_name(Verdict v);

// One contained pipeline failure. A broken file or analysis root degrades
// the scan to a partial report carrying these instead of killing it.
struct ScanError {
  std::string phase;    // "parse"|"locality"|"interp"|"translate"|"solve"|"scan"
  std::string root;     // file or analysis-root name; "" for app-scoped errors
  std::string message;
  bool transient = false;  // a retry may clear it (OOM, injected transient)
};

// One rendered hop of a finding's source→sink taint path: which heap
// object carries the taint, and the PHP line it came from.
struct EvidenceHop {
  std::string kind;         // "symbol" | "concrete" | "func" | "op" | "array"
  std::string description;  // operator / builtin / symbol name / value
  std::string file;         // source file name ("" when unknown)
  std::uint32_t line = 0;   // 1-based; 0 when unknown
  std::string location;     // "file:line" rendering ("" when unknown)
};

// One rendered conjunct of the finding's path constraint.
struct EvidenceGuard {
  std::string sexpr;        // e.g. (== s_files_f_ext "php")
  std::string file;
  std::uint32_t line = 0;
  std::string location;     // "file:line"
};

// The full provenance bundle of one finding (ScanOptions::explain).
struct FindingEvidence {
  std::vector<EvidenceHop> taint_path;  // ordered $_FILES source → sink
  std::vector<EvidenceGuard> guards;    // path constraint, program order
  std::vector<WitnessBinding> bindings; // decoded model assignments
  // The SMT-LIB query the bindings satisfy (AttackWitness::query). In
  // memory only: the report JSON and SARIF do not carry it.
  std::string query;
  std::string upload_filename;          // e.g. payload.php5
  std::string destination;              // resolved destination string
  bool destination_complete = false;

  [[nodiscard]] bool empty() const {
    return taint_path.empty() && guards.empty() && bindings.empty() &&
           upload_filename.empty() && destination.empty();
  }
};

struct Finding {
  std::string sink_name;
  std::string location;     // "file:line:col"
  std::string file;         // source file name (SARIF artifact uri)
  std::uint32_t line = 0;   // 1-based sink line; 0 when unknown
  std::string source_line;  // the vulnerable line of PHP
  std::string dst_sexpr;
  std::string reach_sexpr;
  std::string witness;      // Z3 model, e.g. s_ext = "php"
  // Stable cross-scan identity: hash of (app, sink name, canonical dst
  // s-expression). Survives line-number churn from unrelated edits, so
  // CI can dedup findings across scans (SARIF partialFingerprints).
  std::string fingerprint;
  // Populated only under ScanOptions::explain; empty() otherwise.
  FindingEvidence evidence;
};

// The fingerprint scheme behind Finding::fingerprint (FNV-1a 64,
// rendered as 16 hex digits). Exposed so tests and external triage
// tooling can recompute it.
[[nodiscard]] std::string finding_fingerprint(std::string_view app,
                                              std::string_view sink,
                                              std::string_view dst_sexpr);

// Per-analysis-root cost attribution: where one root's wall time went.
// Collected on every scan, telemetry attached or not; surfaced in the
// report JSON ("cost" object), audit_report's most-expensive-roots table
// and scanctl top.
struct RootCost {
  std::string root;           // analysis-root name (file or entry point)
  double interp_ms = 0.0;     // symbolic execution wall time
  double solve_ms = 0.0;      // vulnerability modeling + Z3 wall time
  std::size_t paths = 0;
  std::size_t objects = 0;
  std::size_t solver_calls = 0;
  std::size_t solver_cache_hits = 0;
  bool pruned = false;        // static pass skipped symbolic execution
};

struct ScanReport {
  std::string app_name;
  // The request trace ID the scan ran under ("" when untraced). Carried
  // through the report JSON so a stored report links back to the scand
  // log lines and Chrome-trace spans of the request that computed it.
  std::string trace_id;
  Verdict verdict = Verdict::kNotVulnerable;
  std::vector<Finding> findings;

  // Table III columns.
  std::uint64_t total_loc = 0;
  std::uint64_t analyzed_loc = 0;
  double analyzed_percent = 0.0;
  std::size_t paths = 0;
  std::size_t objects = 0;
  double objects_per_path = 0.0;
  double memory_mb = 0.0;
  double seconds = 0.0;

  // Extra diagnostics.
  std::size_t roots = 0;
  std::size_t sink_hits = 0;
  std::size_t solver_calls = 0;
  std::size_t solver_retries = 0;  // escalated re-solves of unknown outcomes
  // Sharing/memoization effectiveness (summed over analysis roots).
  std::size_t cons_hits = 0;          // heap-graph nodes answered by consing
  std::size_t solver_cache_hits = 0;  // sinks answered by the per-scan
                                      // cross-root solver query cache
  // Roots the static pass proved safe. These skip symbolic execution;
  // in crosscheck mode they are still executed and the count says how
  // many *would* be pruned.
  std::size_t pruned_roots = 0;
  // Inter-procedural summary layer effectiveness (ScanOptions::summaries).
  // Telemetry counters staticpass.summary_cache_hits,
  // staticpass.summary_pruned_roots and staticpass.escaped_calls mirror
  // these per scan.
  std::size_t summary_cache_hits = 0;    // memoized instantiation hits
  std::size_t summary_pruned_roots = 0;  // prunes that needed summaries
  std::size_t escaped_calls = 0;         // UC108 sites across all roots
  bool budget_exhausted = false;
  // The budget that ran out was the solver's per-scan one
  // (smt::Checker::kScanSolverBudgetMs), not the path budget: some sinks
  // went unchecked. Implies budget_exhausted, which the JSON carries;
  // this flag itself is in memory only.
  bool solver_budget_exhausted = false;
  bool deadline_exceeded = false;  // wall-clock limit hit; report partial
  std::size_t parse_errors = 0;
  std::size_t analysis_errors = 0;  // interpreter-phase diagnostics
  // Error-severity diagnostics grouped by the pipeline phase that
  // reported them (same vocabulary as ScanError::phase).
  std::map<std::string, std::size_t> diagnostics_by_phase;

  // Process peak RSS (VmHWM) observed when the scan finished, and the
  // engine-accounted analysis bytes (heap-graph arenas + environment
  // memory summed over roots). Recorded uniformly on every scan; the
  // nondeterministic peak_rss_bytes is surfaced only inside the profile
  // JSON, so the report's only run-to-run differences stay its
  // wall-clock fields (stats.seconds, "cost", "profile").
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t accounted_bytes = 0;

  // Engine introspection (ScanOptions::profile): per-root fork-site,
  // solver and heap attribution plus budget post-mortems for incomplete
  // roots. `profiled` gates the report JSON "profile" object.
  bool profiled = false;
  profile::ExplosionProfile profile;

  // Cost attribution (filled on every scan; all zeros cost nothing to
  // serialize — report_io omits the "cost" object when empty).
  // Wall milliseconds per pipeline phase ("parse", "locality",
  // "staticpass", "interp", "solve").
  std::map<std::string, double> phase_ms;
  // Per-root breakdown, in analysis order.
  std::vector<RootCost> root_costs;

  // Contained failures (exceptions converted to data). Non-empty errors
  // with no vulnerable finding yield Verdict::kAnalysisError.
  std::vector<ScanError> errors;

  // Structured lint findings from the static pass (ScanOptions::lint).
  std::vector<staticpass::LintFinding> lints;

  // Crosscheck mode only: roots where the static pass and the symbolic
  // engine disagree (phase "crosscheck"). Any entry forces the verdict to
  // kAnalysisDisagreement.
  std::vector<ScanError> disagreements;

  [[nodiscard]] bool vulnerable() const {
    return verdict == Verdict::kVulnerable;
  }

  [[nodiscard]] bool degraded() const {
    return !errors.empty() || budget_exhausted || deadline_exceeded;
  }

  // True when every contained failure is transient (and there is at
  // least one): a fleet driver may retry the app once.
  [[nodiscard]] bool only_transient_errors() const {
    if (errors.empty()) return false;
    for (const ScanError& e : errors) {
      if (!e.transient) return false;
    }
    return true;
  }
};

// One source file of an application.
struct AppFile {
  std::string name;
  std::string content;
};

struct Application {
  std::string name;
  std::vector<AppFile> files;
};

class Detector {
 public:
  explicit Detector(ScanOptions options = {});

  // Never throws: any error escaping a pipeline phase is contained and
  // recorded on the report (see ScanReport::errors). The wall-clock
  // budget is options.budget.time_limit, whose clock starts here.
  [[nodiscard]] ScanReport scan(const Application& app) const;

  // As above, additionally bounded by `deadline` (the stricter of the
  // two applies). The service uses this for per-request deadlines and
  // watchdog cancellation.
  [[nodiscard]] ScanReport scan(const Application& app,
                                const Deadline& deadline) const;

  // The configuration this detector scans with (fleet drivers read the
  // attached telemetry handle from here).
  [[nodiscard]] const ScanOptions& options() const { return options_; }

  // The solver query cache scans actually use: the externally shared one
  // when ScanOptions::query_cache is set, the detector's own otherwise.
  [[nodiscard]] SolverQueryCache& query_cache() const {
    return options_.query_cache != nullptr ? *options_.query_cache
                                           : query_cache_;
  }

 private:
  void scan_impl(const Application& app, const Deadline& deadline,
                 ScanReport& report, telemetry::ScanEvents* events) const;

  ScanOptions options_;
  // Solver outcomes shared across every scan this detector runs (and, in
  // parallel fleet drivers, across worker threads — the cache locks
  // internally). Apps assembled from the same boilerplate reach
  // byte-identical sink constraints, so a crawl pays for each distinct
  // constraint set once. Keys pin the full constraint text, making a hit
  // indistinguishable from a fresh solve; see SolverQueryCache.
  mutable SolverQueryCache query_cache_;
};

}  // namespace uchecker::core
