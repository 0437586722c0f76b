#include "support/telemetry.h"

#include <algorithm>
#include <cmath>

#include "support/store.h"

namespace uchecker::telemetry {

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) {
    bounds_ = MetricsRegistry::default_latency_buckets_ms();
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t bucket = static_cast<std::size_t>(it - bounds_.begin());
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_[bucket];
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  ++count_;
  sum_ += value;
}

std::uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mu_);
  return min_;
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

std::vector<std::uint64_t> Histogram::cumulative_counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> out(counts_.size(), 0);
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    running += counts_[i];
    out[i] = running;
  }
  return out;
}

double Histogram::quantile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const std::uint64_t next = seen + counts_[i];
    if (static_cast<double>(next) >= target) {
      // Interpolate within [lo, hi], the value range of bucket i. The
      // overflow bucket has no upper bound; report the observed max.
      if (i == bounds_.size()) return max_;
      const double hi = bounds_[i];
      const double lo = i == 0 ? std::min(min_, hi) : bounds_[i - 1];
      const double into =
          (target - static_cast<double>(seen)) / static_cast<double>(counts_[i]);
      return lo + (hi - lo) * std::clamp(into, 0.0, 1.0);
    }
    seen = next;
  }
  return max_;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

std::vector<double> MetricsRegistry::default_latency_buckets_ms() {
  return {0.1, 0.25, 0.5, 1, 2.5, 5,    10,   25,    50,    100,
          250, 500,  1000, 2500, 5000, 10000, 30000, 60000};
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsRegistry::counters()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
  return out;
}

std::vector<std::pair<std::string, const Histogram*>>
MetricsRegistry::histograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, const Histogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.emplace_back(name, h.get());
  return out;
}

void MetricsRegistry::set_exemplar(std::string_view metric,
                                   std::string_view trace_id) {
  if (trace_id.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = exemplars_.find(metric);
  if (it == exemplars_.end()) {
    exemplars_.emplace(std::string(metric), std::string(trace_id));
  } else {
    it->second = std::string(trace_id);
  }
}

std::map<std::string, std::string> MetricsRegistry::exemplars() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {exemplars_.begin(), exemplars_.end()};
}

// ---------------------------------------------------------------------------
// ScanTrace

std::uint64_t ScanTrace::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

SpanId ScanTrace::begin_span(std::string_view name, std::string_view detail) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = static_cast<SpanId>(spans_.size());
  span.parent = open_stack_.empty() ? kNoSpan : open_stack_.back();
  span.name = std::string(name);
  span.detail = std::string(detail);
  span.start_us = now_us();
  open_stack_.push_back(span.id);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void ScanTrace::end_span(SpanId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == kNoSpan || id >= spans_.size()) return;
  const std::uint64_t now = now_us();
  // RAII callers close in strict LIFO order; if something closed a span
  // without closing its children first, close those descendants too so
  // the tree stays well-formed.
  while (!open_stack_.empty()) {
    const SpanId top = open_stack_.back();
    open_stack_.pop_back();
    Span& span = spans_[top];
    if (span.open) {
      span.open = false;
      span.dur_us = now - span.start_us;
    }
    if (top == id) return;
  }
  // `id` was not on the stack (already closed); nothing else to do.
}

void ScanTrace::sample_progress(std::uint64_t live_paths, std::uint64_t objects,
                                std::uint64_t heap_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (progress_skip_ > 0) {
    --progress_skip_;
    return;
  }
  progress_skip_ = progress_stride_ - 1;
  if (progress_.size() >= kMaxProgressSamples) {
    // Decimate: keep every other sample, double the stride.
    std::size_t w = 0;
    for (std::size_t r = 0; r < progress_.size(); r += 2) {
      progress_[w++] = progress_[r];
    }
    progress_.resize(w);
    progress_stride_ *= 2;
  }
  progress_.push_back(ProgressSample{now_us(), live_paths, objects, heap_bytes});
}

void ScanTrace::record_event(std::string_view name, std::string_view detail) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(
      TraceEvent{now_us(), std::string(name), std::string(detail)});
}

void ScanTrace::record_solver_call(std::uint64_t dur_us, unsigned attempts,
                                   unsigned escalations,
                                   bool deadline_exceeded,
                                   std::string_view result) {
  std::lock_guard<std::mutex> lock(mu_);
  SolverCallSample s;
  s.dur_us = dur_us;
  const std::uint64_t now = now_us();
  s.t_us = now >= dur_us ? now - dur_us : 0;
  s.attempts = attempts;
  s.escalations = escalations;
  s.deadline_exceeded = deadline_exceeded;
  s.result = std::string(result);
  solver_calls_.push_back(std::move(s));
}

TraceSnapshot ScanTrace::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  TraceSnapshot snap;
  snap.name = name_;
  snap.trace_id = trace_id_;
  snap.tid = tid_;
  snap.spans = spans_;
  snap.progress = progress_;
  snap.solver_calls = solver_calls_;
  snap.events = events_;
  return snap;
}

std::string mint_trace_id(std::string_view hint) {
  static std::atomic<std::uint64_t> sequence{0};
  std::uint64_t h = store::fnv1a64(hint);
  h = store::fnv1a64(store::hex64(static_cast<std::uint64_t>(
                         std::chrono::steady_clock::now()
                             .time_since_epoch()
                             .count())),
                     h);
  h = store::fnv1a64(
      store::hex64(sequence.fetch_add(1, std::memory_order_relaxed)), h);
  return store::hex64(h);
}

// ---------------------------------------------------------------------------
// Telemetry

ScanTrace& Telemetry::begin_scan(std::string name, std::string trace_id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto tid = static_cast<std::uint32_t>(traces_.size() + 1);
  traces_.push_back(std::unique_ptr<ScanTrace>(
      new ScanTrace(std::move(name), std::move(trace_id), epoch_, tid)));
  return *traces_.back();
}

std::vector<const ScanTrace*> Telemetry::traces() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const ScanTrace*> out;
  out.reserve(traces_.size());
  for (const auto& t : traces_) out.push_back(t.get());
  return out;
}

std::vector<PhaseStats> Telemetry::fleet_phase_stats() const {
  std::map<std::string, std::vector<double>> by_phase;  // durations, ms
  for (const ScanTrace* trace : traces()) {
    const TraceSnapshot snap = trace->snapshot();
    for (const Span& span : snap.spans) {
      if (span.open) continue;
      by_phase[span.name].push_back(static_cast<double>(span.dur_us) / 1000.0);
    }
  }

  const auto percentile = [](const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
  };

  std::vector<PhaseStats> out;
  for (auto& [phase, durs] : by_phase) {
    std::sort(durs.begin(), durs.end());
    PhaseStats s;
    s.phase = phase;
    s.count = durs.size();
    for (double d : durs) s.total_ms += d;
    s.p50_ms = percentile(durs, 0.50);
    s.p95_ms = percentile(durs, 0.95);
    s.p99_ms = percentile(durs, 0.99);
    s.max_ms = durs.back();
    out.push_back(std::move(s));
  }

  // Pipeline phases in pipeline order first; everything else after, by
  // name (std::map already yielded name order).
  static constexpr std::string_view kPipelineOrder[] = {
      "scan", "parse", "locality", "interp", "translate", "solve"};
  const auto rank = [](std::string_view name) {
    for (std::size_t i = 0; i < std::size(kPipelineOrder); ++i) {
      if (name == kPipelineOrder[i]) return i;
    }
    return std::size(kPipelineOrder);
  };
  std::stable_sort(out.begin(), out.end(),
                   [&](const PhaseStats& a, const PhaseStats& b) {
                     return rank(a.phase) < rank(b.phase);
                   });
  return out;
}

}  // namespace uchecker::telemetry
