#include "support/scan_events.h"

namespace uchecker::telemetry {

ScanEvents::OpenPhase ScanEvents::phase_begin(std::string_view name,
                                              std::string_view detail) {
  OpenPhase open;
  if (trace_ != nullptr) open.span = trace_->begin_span(name, detail);
  if (flight_ != nullptr) {
    open.start = std::chrono::steady_clock::now();
    flight_->record(FlightKind::kPhaseBegin, name);
  }
  return open;
}

void ScanEvents::phase_end(std::string_view name, const OpenPhase& open) {
  if (trace_ != nullptr) trace_->end_span(open.span);
  if (flight_ != nullptr) {
    const auto dur = std::chrono::steady_clock::now() - open.start;
    flight_->record(
        FlightKind::kPhaseEnd, name,
        std::chrono::duration_cast<std::chrono::microseconds>(dur).count());
  }
}

void ScanEvents::root_begin(std::string_view root) {
  root_ = phase_begin("root", root);
  if (profiler_) profiler_->begin_root(std::string(root));
}

void ScanEvents::root_end(std::string_view root, RootOutcome outcome) {
  if (outcome == RootOutcome::kPruned) {
    event("staticpass_pruned", root);
    return;
  }
  // The profiler's post-mortem reason for an incomplete root.
  std::string_view reason;
  if (outcome == RootOutcome::kBudgetExhausted) reason = "budget_exhausted";
  if (outcome == RootOutcome::kDeadlineExceeded) reason = "deadline_exceeded";
  if (outcome == RootOutcome::kAnalysisError) reason = "analysis_error";
  if (outcome == RootOutcome::kSolverBudgetExhausted) {
    reason = "solver_budget_exhausted";
  }
  if (profiler_) profiler_->end_root(!reason.empty(), reason);
  phase_end("root", root_);
}

void ScanEvents::progress(std::size_t live_paths, std::size_t objects,
                          std::size_t heap_bytes) {
  if (trace_ != nullptr) {
    trace_->sample_progress(live_paths, objects, heap_bytes);
  }
  if (flight_ != nullptr) {
    flight_->record(FlightKind::kProgress, {}, live_paths, objects);
  }
  if (profiler_) profiler_->sample(live_paths, objects, heap_bytes);
}

void ScanEvents::solver_query(const SolverQuery& query) {
  const double wall_ms = static_cast<double>(query.dur_us) / 1000.0;
  if (profiler_) {
    profiler_->record_solver(origin_sink_, origin_file_, origin_line_,
                             wall_ms, query.cache_hit);
  }
  if (query.cache_hit) return;
  if (trace_ != nullptr) {
    trace_->record_solver_call(query.dur_us, query.attempts, query.escalations,
                               query.deadline_exceeded, query.result);
  }
  if (flight_ != nullptr) {
    flight_->record(FlightKind::kSolverCall, query.result, query.dur_us,
                    query.attempts);
  }
  if (metrics_ != nullptr) {
    metrics_->counter("solver.checks").add(1);
    metrics_->counter("solver." + std::string(query.result)).add(1);
    if (query.escalations > 0) {
      metrics_->counter("solver.retries").add(query.escalations);
    }
    if (query.deadline_exceeded) {
      metrics_->counter("solver.deadline_exceeded").add(1);
    }
    metrics_->histogram("solver.latency_ms").observe(wall_ms);
  }
}

}  // namespace uchecker::telemetry
