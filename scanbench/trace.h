// Traced scan pipeline of the benchmark.
//
// traced_scan() runs one application through the scanner's layers by
// calling each layer's public entry point in Detector::scan_impl's
// order, and records a span around every call. Spans live here, in the
// benchmark, not in the scanner: the untraced passes time the shipped
// Detector::scan, and the traced passes must reach the same verdicts
// (scanbench.cc checks that for every app) so they measure the same
// program.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/detector/detector.h"
#include "core/vulnmodel/vulnmodel.h"

namespace scanbench {

using Clock = std::chrono::steady_clock;

// Layers, in pipeline order. kScan is the per-app root span; its self
// time is the glue between layers (detector.unattributed_ratio).
enum Layer : std::uint8_t {
  kLex,
  kParse,
  kCallgraph,
  kLocality,
  kStaticpass,
  kSmt,
  kInterp,
  kVulnmodel,
  kReport,
  kScan,
};
inline constexpr std::size_t kLayerCount = kScan;  // kScan excluded
inline constexpr const char* kLayerNames[] = {
    "lex",  "parse",  "callgraph", "locality", "staticpass",
    "smt",  "interp", "vulnmodel", "report",   "scan"};

struct SpanRecord {
  Layer layer = kScan;
  std::int32_t parent = -1;  // index of the enclosing span in the same log
  std::uint32_t app = 0;     // app index within the workload
  std::uint32_t pass = 0;
  std::int64_t start_ns = 0;  // since the log's epoch
  std::int64_t end_ns = 0;
};

// Spans of one thread, kept in memory until the run ends.
class SpanLog {
 public:
  SpanLog(Clock::time_point epoch, std::uint32_t thread)
      : epoch_(epoch), thread_(thread) {}

  std::int32_t open(Layer layer, std::uint32_t app, std::uint32_t pass);
  void close(std::int32_t index);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
  [[nodiscard]] std::uint32_t thread() const { return thread_; }

 private:
  Clock::time_point epoch_;
  std::uint32_t thread_;
  std::vector<SpanRecord> spans_;
  std::int32_t current_ = -1;
};

// Work counted at the layer boundaries that the ScanReport does not
// carry, summed over the apps scanned.
struct LayerCounts {
  std::uint64_t tokens = 0;
  std::uint64_t checkers = 0;          // smt::Checker constructions
  std::uint64_t budget_exhausted = 0;  // roots that hit the path budget
  std::uint64_t sinks = 0;             // sink verdicts from check_sinks
  std::uint64_t report_bytes = 0;

  LayerCounts& operator+=(const LayerCounts& other);
};

// Scans `app` as Detector(options).scan would, with `cache` as the
// detector's solver query cache. Supports the options the benchmark
// uses: locality on; no crosscheck, explain or profile. Never throws:
// a failure yields Verdict::kAnalysisError.
[[nodiscard]] uchecker::core::ScanReport traced_scan(
    const uchecker::core::Application& app,
    const uchecker::core::ScanOptions& options,
    uchecker::core::SolverQueryCache& cache, SpanLog& log,
    std::uint32_t app_index, std::uint32_t pass, LayerCounts& counts);

// Writes every span as a Chrome-trace "complete" event. Returns false
// when the file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<SpanLog>& logs,
                        const std::vector<std::string>& app_names);

}  // namespace scanbench
