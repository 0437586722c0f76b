// Parallel scan driver: runs Detector::scan over a batch of
// applications on a small thread pool.
//
// Detector::scan is stateless with respect to the detector object (all
// analysis state — source manager, heap graph, Z3 context — is created
// per scan), so scans of distinct applications can run concurrently.
// Z3 contexts are not shared across threads; each scan owns its own.
//
// Fault isolation: one hostile or pathological application can never
// take down the batch. Detector::scan contains its own errors, workers
// additionally catch anything that still escapes (no exception ever
// reaches the noexcept thread boundary), and an app that failed with
// only transient errors is re-scanned once, at once. The per-app
// wall-clock budget is the detector's own budget.time_limit.
#pragma once

#include <vector>

#include "core/detector/detector.h"

namespace uchecker::core {

// Extra scans of an app whose report failed with *only transient*
// errors (ScanReport::only_transient_errors).
inline constexpr unsigned kTransientRetries = 1;

struct ScanManyOptions {
  unsigned threads = 0;  // 0 = hardware concurrency
};

// Scans every application, in input order, using up to `threads` worker
// threads (0 = hardware concurrency). Reports are returned in the same
// order as the inputs and are identical to serial scans (modulo the
// wall-clock `seconds` field). Always returns one report per app.
[[nodiscard]] std::vector<ScanReport> scan_many(
    const Detector& detector, const std::vector<Application>& apps,
    unsigned threads = 0);

// As above, with the thread count taken from `options`.
[[nodiscard]] std::vector<ScanReport> scan_many(
    const Detector& detector, const std::vector<Application>& apps,
    const ScanManyOptions& options);

}  // namespace uchecker::core
