// Serialization of ScanReport: machine-readable JSON (stable schema for
// CI integration) and a human-readable text rendering.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "core/detector/detector.h"
#include "support/sarif_export.h"

namespace uchecker::core {

// Renders a report as a single JSON object:
// {
//   "app": "...",
//   "trace_id": "16 hex chars",  // only when the scan ran under one
//   "verdict": "vulnerable" | "not_vulnerable" |
//   "analysis_incomplete" | "analysis_error",
//   "stats": { "total_loc": N, "analyzed_loc": N, "analyzed_percent": X,
//              "paths": N, "objects": N, "objects_per_path": X,
//              "memory_mb": X, "seconds": X, "roots": N, "sink_hits": N,
//              "solver_calls": N, "solver_retries": N,
//              "cons_hits": N, "solver_cache_hits": N,
//              "budget_exhausted": B, "deadline_exceeded": B,
//              "parse_errors": N, "analysis_errors": N,
//              "accounted_bytes": N },
//   "diagnostics_by_phase": { "parse": N, "interp": N, ... },
//   "cost": {  // omitted when the scan recorded no cost attribution
//     "phases": { "parse": ms, "locality": ms, "staticpass": ms,
//                 "interp": ms, "solve": ms },
//     "roots": [ { "root": "...", "interp_ms": X, "solve_ms": X,
//                  "paths": N, "objects": N, "solver_calls": N,
//                  "solver_cache_hits": N, "pruned": B }, ... ] },
//   "profile": { ... },  // only under ScanOptions::profile — the
//                        // engine-introspection object (fork-site,
//                        // solver and heap attribution plus budget
//                        // post-mortems; schema in support/profile.h).
//                        // Carries peak RSS and wall-clock samples.
//   "errors": [ { "phase": "parse" | "locality" | "interp" | "translate" |
//                 "solve" | "scan", "root": "...", "message": "...",
//                 "transient": B }, ... ],
//   "findings": [ { "sink": "...", "location": "...", "file": "...",
//                   "line": N, "source_line": "...", "dst": "...",
//                   "reachability": "...", "witness": "...",
//                   "fingerprint": "16 hex chars",
//                   "evidence": {  // only under ScanOptions::explain
//                     "taint_path": [ { "kind": "...", "description": "...",
//                                       "file": "...", "line": N,
//                                       "location": "file:line" }, ... ],
//                     "guards": [ { "sexpr": "...", "file": "...",
//                                   "line": N, "location": "..." }, ... ],
//                     "bindings": [ { "symbol": "...", "raw": "...",
//                                     "decoded": "..." }, ... ],
//                     "upload_filename": "payload.php5",
//                     "destination": "...",
//                     "destination_complete": B } }, ... ]
// }
//
// Two scans of the same app under the same options render the same
// bytes except in the wall-clock values: "stats.seconds", the "cost"
// object's milliseconds ("phases", "interp_ms", "solve_ms") and the
// "profile" object (peak RSS, sampled wall times).
//
// Degradation fields (stable, additive):
//  - "errors": contained pipeline failures; each names the phase that
//    failed, the file/root it failed on, and whether a retry may clear it.
//  - "deadline_exceeded": the scan's wall-clock budget expired; stats and
//    findings cover only the work finished before the cut-off.
//  - "solver_retries": how many solver attempts were re-run with
//    escalated timeouts after a retryable unknown.
//  - "analysis_errors": diagnostics reported by post-parse phases
//    (previously folded into nothing; "parse_errors" remains parse-only).
//  - "diagnostics_by_phase": error-severity diagnostic counts keyed by
//    the pipeline phase that reported them (the same phase vocabulary as
//    "errors[].phase", so diagnostic and ScanError provenance agree).
//    Diagnostics reported outside any phase group under "".
//  - "cons_hits" / "solver_cache_hits": sharing effectiveness — heap-graph
//    node constructions answered by hash-consing, and sinks answered by
//    the per-scan cross-root solver query cache instead of a Z3 call.
[[nodiscard]] std::string to_json(const ScanReport& report);

// The human-readable report, the one scan_directory prints (after its
// own lines about loading: files scanned, files it could not read):
// execution stats, cost, "note: ..." lines on partial or degraded
// results, "error: [...]" and "disagreement: ..." lines, the
// "verdict: ..." line, then each finding with its evidence. `quiet`
// (scan_directory --quiet) drops everything but the errors, lints,
// verdict and findings; `lints` (--lint) adds the static pass's
// "lint: [...]" lines and, unless quiet, its pruning notes.
[[nodiscard]] std::string to_text(const ScanReport& report, bool quiet = false,
                                  bool lints = false);

// Parses a report previously rendered by to_json back into a ScanReport
// (the scand verdict cache's reader). Exact inverse on every text it
// accepts: to_json(*report_from_json(j)) == j. Every field to_json
// always writes is required. A report with a "profile" member is
// rejected: the cache never stores one (ScanService strips the
// profile first), and a profile is written, never read back. Returns
// nullopt on any structural mismatch — the cache treats that as a
// corrupt record and recomputes, so a schema drift can never be
// replayed as a wrong verdict.
[[nodiscard]] std::optional<ScanReport> report_from_json(
    std::string_view json);

// Stable slug for a verdict ("vulnerable", "not_vulnerable",
// "analysis_incomplete", "analysis_error").
[[nodiscard]] std::string_view verdict_slug(Verdict v);

// Maps a report into a SARIF 2.1.0 log (serialize with sarif::to_json).
// Symbolic findings become rule UC001 results; when a finding carries
// evidence (ScanOptions::explain) its taint path becomes a codeFlow /
// threadFlow walking source → sink and the decoded attack joins the
// message. Static-pass lints (UC101–UC106) become results at their
// severity-mapped level (error/warning/note). Finding::fingerprint is
// emitted under partialFingerprints as "uchecker/v1".
[[nodiscard]] sarif::Log to_sarif(const ScanReport& report);

}  // namespace uchecker::core
