// Experiment E6: repository-crawl throughput (paper §IV-B).
//
// The paper crawled 9,160 WordPress plugins to find the three
// previously-unreported vulnerabilities. This bench simulates that
// campaign on a generated fleet of plugins (a few percent vulnerable,
// the rest with correct validation, padded with realistic inert code)
// and measures scan throughput serially and with the parallel driver —
// then verifies the campaign finds exactly the planted vulnerabilities.
#include <chrono>
#include <thread>
#include <cstdio>

#include "core/detector/scan_many.h"
#include "corpus/corpus.h"

using namespace uchecker::core;  // NOLINT
using uchecker::corpus::SynthSpec;

int main() {
  constexpr int kFleetSize = 100;
  constexpr int kVulnerableEvery = 23;  // ~4% planted vulnerable

  std::vector<Application> fleet;
  std::vector<bool> planted;
  fleet.reserve(kFleetSize);
  for (int i = 0; i < kFleetSize; ++i) {
    SynthSpec spec;
    spec.name = "plugin-" + std::to_string(i);
    spec.sequential_ifs = 1 + (i % 5);
    spec.switch_ways = (i % 3 == 0) ? 3 : 0;
    spec.vulnerable = (i % kVulnerableEvery) == 0;
    spec.filler_loc = 300 + (i % 7) * 150;
    spec.filler_files = 1 + (i % 3);
    planted.push_back(spec.vulnerable);
    fleet.push_back(uchecker::corpus::synth_app(spec));
  }

  Detector detector;

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<ScanReport> serial = scan_many(detector, fleet, 1);
  const double serial_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const auto t1 = std::chrono::steady_clock::now();
  const std::vector<ScanReport> parallel = scan_many(detector, fleet, 0);
  const double parallel_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t1)
          .count();

  // The same serial sweep under crosscheck, which executes every root
  // the static pass would prune: the gap quantifies what pruning
  // proven-safe roots saves on a mostly-benign fleet (the realistic
  // crawl distribution).
  ScanOptions crosscheck_options;
  crosscheck_options.crosscheck = true;
  Detector crosscheck(crosscheck_options);
  const auto t2 = std::chrono::steady_clock::now();
  const std::vector<ScanReport> unpruned = scan_many(crosscheck, fleet, 1);
  const double unpruned_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t2)
          .count();

  // Parallel-parse sweep: serial app driver (one app at a time) but each
  // app's files parsed on the per-file pool. Isolates the front-end
  // fan-out win from the scan_many app-level parallelism above.
  ScanOptions pp_options;
  pp_options.parse_threads = 0;  // auto: hardware concurrency capped at 8
  Detector pp_detector(pp_options);
  const auto t3 = std::chrono::steady_clock::now();
  const std::vector<ScanReport> pparse = scan_many(pp_detector, fleet, 1);
  const double pparse_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t3)
          .count();

  int found = 0;
  int false_alarms = 0;
  bool verdicts_agree = true;
  bool pruning_agrees = true;
  for (int i = 0; i < kFleetSize; ++i) {
    const bool flagged = parallel[i].verdict == Verdict::kVulnerable;
    if (flagged && planted[i]) ++found;
    if (flagged && !planted[i]) ++false_alarms;
    if (parallel[i].verdict != serial[i].verdict) verdicts_agree = false;
    if (unpruned[i].verdict != serial[i].verdict) pruning_agrees = false;
    if (pparse[i].verdict != serial[i].verdict) verdicts_agree = false;
  }
  const int planted_total =
      static_cast<int>(std::count(planted.begin(), planted.end(), true));

  // Sharing effectiveness across the whole campaign: how much symbolic
  // state was deduplicated (cons hits) and how many sink queries the
  // per-scan solver cache absorbed instead of Z3.
  std::size_t total_paths = 0;
  std::size_t total_objects = 0;
  std::size_t total_cons_hits = 0;
  std::size_t total_solver_calls = 0;
  std::size_t total_cache_hits = 0;
  std::size_t total_roots = 0;
  std::size_t total_pruned = 0;
  for (const ScanReport& r : parallel) {
    total_paths += r.paths;
    total_objects += r.objects;
    total_cons_hits += r.cons_hits;
    total_solver_calls += r.solver_calls;
    total_cache_hits += r.solver_cache_hits;
    total_roots += r.roots;
    total_pruned += r.pruned_roots;
  }

  std::printf("Fleet scan of %d generated plugins (%u hardware thread(s)):\n",
              kFleetSize, std::thread::hardware_concurrency());
  std::printf("  serial   : %.2fs (%.1f plugins/s)\n", serial_s,
              kFleetSize / serial_s);
  std::printf("  serial, crosscheck (no pruning): %.2fs (%.1f plugins/s)\n",
              unpruned_s, kFleetSize / unpruned_s);
  std::printf("  parallel : %.2fs (%.1f plugins/s)\n", parallel_s,
              kFleetSize / parallel_s);
  std::printf("  parallel-parse: %.2fs (%.1f plugins/s; serial driver, "
              "per-file parse fan-out)\n",
              pparse_s, kFleetSize / pparse_s);
  std::printf("  static pass: pruned %zu of %zu root(s), verdicts agree "
              "with crosscheck: %s\n",
              total_pruned, total_roots, pruning_agrees ? "yes" : "NO");
  std::printf("  sharing  : %zu paths, %zu objects (%.1f/path), "
              "%zu cons hits, %zu solver calls (%zu cache hits)\n",
              total_paths, total_objects,
              total_paths == 0
                  ? 0.0
                  : static_cast<double>(total_objects) /
                        static_cast<double>(total_paths),
              total_cons_hits, total_solver_calls, total_cache_hits);
  std::printf("  planted vulnerable: %d, found: %d, false alarms: %d\n",
              planted_total, found, false_alarms);
  std::printf("  serial/parallel verdicts agree: %s\n",
              verdicts_agree ? "yes" : "NO");
  std::printf("  projected time for the paper's 9,160-plugin crawl: "
              "%.1f min (parallel)\n",
              9160.0 / (kFleetSize / parallel_s) / 60.0);

  // Timing expectation depends on the host: with >1 hardware thread the
  // parallel sweep must not be slower than serial; on a single core the
  // thread pool only adds scheduling overhead, so allow a margin.
  const double tolerance =
      std::thread::hardware_concurrency() > 1 ? 1.05 : 1.60;
  const bool ok = found == planted_total && false_alarms == 0 &&
                  verdicts_agree && pruning_agrees &&
                  parallel_s <= serial_s * tolerance;
  std::printf("\nFleet invariants: %s\n", ok ? "HOLD" : "VIOLATED");
  return ok ? 0 : 1;
}
