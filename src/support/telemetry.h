// Pipeline telemetry: phase-scoped tracing and a metrics registry.
//
// Three layers, all optional at every call site:
//
//  - MetricsRegistry: thread-safe named counters, gauges and fixed-bucket
//    histograms, shared by every scan attached to one Telemetry.
//  - ScanTrace: the per-scan record — a span tree with monotonic
//    timestamps, solver-call latency samples (attempts, escalations),
//    interpreter progress samples (live paths, heap-graph objects,
//    bytes) and deadline/budget events. One trace per Detector::scan;
//    written by that scan's thread only.
//  - Telemetry: the handle threaded through ScanOptions. Owns the
//    registry and all traces, hands out per-scan traces thread-safely,
//    and aggregates completed traces into fleet-level per-phase latency
//    percentiles.
//
// The engines never call a trace directly: they emit through the scan
// event hook (support/scan_events.h), whose header holds the overhead
// contract. Export lives in trace_export.h so this header stays cheap
// to include.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace uchecker::telemetry {

// ---------------------------------------------------------------------------
// Metrics

// Monotonically increasing integer metric. Lock-free.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Last-write-wins floating-point metric. Lock-free.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram. A sample lands in the first bucket whose upper
// bound is >= the sample (inclusive upper bounds, Prometheus "le"
// convention); samples above the last bound land in the implicit
// overflow bucket. Thread-safe.
class Histogram {
 public:
  // `bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum() const;
  [[nodiscard]] double min() const;  // 0 when empty
  [[nodiscard]] double max() const;  // 0 when empty
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  // Per-bucket counts; size bounds().size() + 1, last entry = overflow.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  // Cumulative per-bucket counts (Prometheus "le" convention): entry i
  // counts samples <= bounds()[i]; the last entry is the implicit +Inf
  // bucket and always equals count(). Same size as bucket_counts().
  // Both the metrics JSON export and the Prometheus exposition render
  // from this, so boundary-exact samples can never disagree between the
  // two surfaces.
  [[nodiscard]] std::vector<std::uint64_t> cumulative_counts() const;
  // Quantile estimate (q in [0,1]) by linear interpolation inside the
  // bucket containing the target rank. 0 when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<double> bounds_;
  mutable std::mutex mu_;
  std::vector<std::uint64_t> counts_;  // bounds_.size() + 1
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Thread-safe registry of named metrics. Returned references stay valid
// for the registry's lifetime (metrics are heap-allocated and never
// removed), so hot paths can cache them and skip the map lookup.
class MetricsRegistry {
 public:
  // Millisecond-scale latency buckets (0.1ms .. 60s).
  [[nodiscard]] static std::vector<double> default_latency_buckets_ms();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  // `bounds` is used only when the histogram is first created.
  Histogram& histogram(std::string_view name, std::vector<double> bounds = {});

  // Snapshots for export, sorted by name.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  [[nodiscard]] std::vector<std::pair<std::string, double>> gauges() const;
  [[nodiscard]] std::vector<std::pair<std::string, const Histogram*>> histograms() const;

  // Trace-ID exemplars: the most recent request that touched a metric,
  // rendered as an OpenMetrics exemplar by the Prometheus exposition so
  // a scraped series links back to a concrete request. Last write wins.
  void set_exemplar(std::string_view metric, std::string_view trace_id);
  [[nodiscard]] std::map<std::string, std::string> exemplars() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::string, std::less<>> exemplars_;
};

// ---------------------------------------------------------------------------
// Per-scan trace

using SpanId = std::uint32_t;
inline constexpr SpanId kNoSpan = UINT32_MAX;

// One completed (or still-open) interval. `name` is the phase ("scan",
// "parse", "locality", "interp", "translate", "solve", ...); `detail`
// carries the file, analysis root or sink it applies to.
struct Span {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  std::string name;
  std::string detail;
  std::uint64_t start_us = 0;  // monotonic, relative to the Telemetry epoch
  std::uint64_t dur_us = 0;
  bool open = true;
};

// Interpreter hot-loop progress sample, shared by the trace and the
// path-explosion profiler.
struct ProgressSample {
  std::uint64_t t_us = 0;  // trace: since the Telemetry epoch;
                           // profile: since the root began
  std::uint64_t live_paths = 0;
  std::uint64_t objects = 0;     // heap-graph objects
  std::uint64_t heap_bytes = 0;  // heap-graph accounted bytes
};

// One smt::Checker::check call.
struct SolverCallSample {
  std::uint64_t t_us = 0;
  std::uint64_t dur_us = 0;
  unsigned attempts = 1;       // 1 = clean first solve
  unsigned escalations = 0;    // retries with a doubled timeout
  bool deadline_exceeded = false;
  std::string result;          // "sat" | "unsat" | "unknown"
};

// Deadline/budget (or other point-in-time) event.
struct TraceEvent {
  std::uint64_t t_us = 0;
  std::string name;    // e.g. "deadline_exceeded", "budget_exhausted"
  std::string detail;
};

// Immutable copy of one trace's state, safe to render while the scan is
// still running. trace_id is empty for traces begun without one.
struct TraceSnapshot {
  std::string name;
  std::string trace_id;
  std::uint32_t tid = 0;
  std::vector<Span> spans;
  std::vector<ProgressSample> progress;
  std::vector<SolverCallSample> solver_calls;
  std::vector<TraceEvent> events;
};

// The record of one scan. Written by the single thread running that
// scan; mutators are serialized by an internal mutex so exporters on
// other threads can take a consistent snapshot() mid-scan. The const-ref
// accessors (spans() etc.) bypass that mutex and are only safe after the
// scan completes — live readers must go through snapshot().
class ScanTrace {
 public:
  [[nodiscard]] const std::string& name() const { return name_; }
  // The request trace ID this scan belongs to (empty when none was
  // supplied to begin_scan). Stamped into exported spans and the report.
  [[nodiscard]] const std::string& trace_id() const { return trace_id_; }
  // Chrome trace "tid" used on export; unique per trace within a Telemetry.
  [[nodiscard]] std::uint32_t tid() const { return tid_; }

  // Opens a span as a child of the innermost still-open span.
  SpanId begin_span(std::string_view name, std::string_view detail = {});
  // Closes `id` (and, defensively, any still-open descendants of it).
  void end_span(SpanId id);

  void sample_progress(std::uint64_t live_paths, std::uint64_t objects,
                       std::uint64_t heap_bytes);
  void record_event(std::string_view name, std::string_view detail = {});
  void record_solver_call(std::uint64_t dur_us, unsigned attempts,
                          unsigned escalations, bool deadline_exceeded,
                          std::string_view result);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<ProgressSample>& progress() const {
    return progress_;
  }
  [[nodiscard]] const std::vector<SolverCallSample>& solver_calls() const {
    return solver_calls_;
  }
  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }

  // Consistent copy under the trace mutex; safe while the scan runs.
  [[nodiscard]] TraceSnapshot snapshot() const;

  [[nodiscard]] std::uint64_t now_us() const;

 private:
  friend class Telemetry;
  ScanTrace(std::string name, std::string trace_id,
            std::chrono::steady_clock::time_point epoch, std::uint32_t tid)
      : name_(std::move(name)),
        trace_id_(std::move(trace_id)),
        epoch_(epoch),
        tid_(tid) {}

  // Progress samples are decimated once kMaxProgressSamples is reached
  // (every other sample dropped, stride doubled), so a long scan's trace
  // stays bounded no matter how hot the loop is.
  static constexpr std::size_t kMaxProgressSamples = 4096;

  std::string name_;
  std::string trace_id_;
  std::chrono::steady_clock::time_point epoch_;
  std::uint32_t tid_ = 0;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<SpanId> open_stack_;
  std::vector<ProgressSample> progress_;
  std::uint64_t progress_stride_ = 1;
  std::uint64_t progress_skip_ = 0;
  std::vector<SolverCallSample> solver_calls_;
  std::vector<TraceEvent> events_;
};

// Mints a fresh trace ID (16 lowercase hex chars): time + a process-
// wide sequence + `hint`, FNV-mixed. Collisions across processes are
// harmless (trace IDs label, they don't key).
[[nodiscard]] std::string mint_trace_id(std::string_view hint);

// ---------------------------------------------------------------------------
// Telemetry handle

// Fleet-level latency aggregate for one phase (span name), computed over
// every completed span with that name across all traces.
struct PhaseStats {
  std::string phase;
  std::size_t count = 0;
  double total_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

class Telemetry {
 public:
  Telemetry() : epoch_(std::chrono::steady_clock::now()) {}

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }

  // Creates the trace for one scan. Thread-safe; the returned reference
  // stays valid for the Telemetry's lifetime. All traces share this
  // Telemetry's epoch, so concurrent scans line up on one timeline.
  // `trace_id` (optional) correlates the trace with the request that
  // caused it; it is stamped into exported spans and samples.
  ScanTrace& begin_scan(std::string name, std::string trace_id = {});

  // Snapshot of all trace handles (in begin_scan order). Traces still
  // being written by a live scan may grow after the snapshot; read live
  // traces via ScanTrace::snapshot().
  [[nodiscard]] std::vector<const ScanTrace*> traces() const;

  // Groups completed spans by name across every trace and reports
  // p50/p95/p99/max wall time per phase (exact, from sorted durations).
  // Pipeline phases come first in pipeline order, then others by name.
  [[nodiscard]] std::vector<PhaseStats> fleet_phase_stats() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  MetricsRegistry metrics_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ScanTrace>> traces_;
};

}  // namespace uchecker::telemetry
