// The per-scan event hook. The detector, the interpreter and the solver
// emit every observability event through one ScanEvents*, and the hook
// forwards it to the consumers the scan attached: the ScanTrace and
// MetricsRegistry (ScanOptions::telemetry), the FlightRecorder ring
// (ScanOptions::flight) and a PathProfiler (ScanOptions::profile). It
// is the only code that knows which consumers exist; the set is fixed,
// so there is no consumer interface and no registration API.
//
// Overhead contract: Detector::scan hands the engines a null
// ScanEvents* when nothing is attached (the default), so every engine
// emission site costs one branch on a null pointer: no allocation, no
// clock read, no lock (bench_micro's BM_PhaseScopeNull measures it).
// Attached, ScanTrace and PathProfiler take one uncontended mutex per
// record (it lets exporters snapshot mid-scan) and the flight ring is
// wait-free. Progress samples ride the interpreter's deadline-poll
// stride, so attaching adds no clock read to its per-statement path.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "support/flight_recorder.h"
#include "support/profile.h"
#include "support/telemetry.h"

namespace uchecker::telemetry {

// How one analysis root ended. A pruned root never began: the static
// pass proved it safe before symbolic execution.
enum class RootOutcome : std::uint8_t {
  kCompleted,
  kBudgetExhausted,
  kDeadlineExceeded,
  kAnalysisError,
  kPruned,
  // Symbolic execution finished, but the scan's solver budget ran out
  // before every sink of the root was checked.
  kSolverBudgetExhausted,
};

// One smt::Checker::check call, or a sink answered without one.
struct SolverQuery {
  std::uint64_t dur_us = 0;
  unsigned attempts = 1;     // 1 = clean first solve
  unsigned escalations = 0;  // retries with a doubled timeout
  bool deadline_exceeded = false;
  std::string_view result{};  // "sat" | "unsat" | "unknown"
  // Answered without a Z3 call (the per-call memo, the SolverQueryCache
  // or the case refuter), so only the profiler (which counts hits per
  // origin) sees it.
  bool cache_hit = false;
};

class ScanEvents {
 public:
  // Null pointers stay detached; `profile` creates this scan's
  // PathProfiler. The pointees must outlive the scan.
  ScanEvents(ScanTrace* trace, MetricsRegistry* metrics,
             FlightRecorder* flight, bool profile)
      : trace_(trace), metrics_(metrics), flight_(flight) {
    if (profile) profiler_.emplace();
  }

  ScanEvents(const ScanEvents&) = delete;
  ScanEvents& operator=(const ScanEvents&) = delete;

  [[nodiscard]] bool attached() const {
    return trace_ != nullptr || metrics_ != nullptr || flight_ != nullptr ||
           profiler_.has_value();
  }

  // root_end closes what root_begin opened (the "root" phase and the
  // profiler's root); a kPruned end has no begin.
  void root_begin(std::string_view root);
  void root_end(std::string_view root, RootOutcome outcome);

  // A fork construct entered with `paths_before` live paths and exited
  // with `paths_after` (see PathProfiler::enter_site).
  void fork_enter(profile::ForkKind kind, std::uint32_t file,
                  std::uint32_t line, std::string_view detail,
                  std::size_t paths_before) {
    if (profiler_) {
      profiler_->enter_site(kind, file, line, detail, paths_before);
    }
  }
  void fork_exit(std::size_t paths_after) {
    if (profiler_) profiler_->exit_site(paths_after);
  }

  void progress(std::size_t live_paths, std::size_t objects,
                std::size_t heap_bytes);

  // The sink occurrence (function, raw file id, line) that subsequent
  // solver queries are attributed to.
  void sink_origin(std::string_view sink, std::uint32_t file,
                   std::uint32_t line) {
    origin_sink_.assign(sink);
    origin_file_ = file;
    origin_line_ = line;
  }
  void solver_query(const SolverQuery& query);

  // Point-in-time event: "deadline_exceeded", "budget_exhausted", ...
  void event(std::string_view name, std::string_view detail = {}) {
    if (trace_ != nullptr) trace_->record_event(name, detail);
    if (flight_ != nullptr) flight_->record(FlightKind::kEvent, name);
  }

  // The profiler's finished roots; nullopt when not profiling.
  [[nodiscard]] std::optional<profile::ExplosionProfile> take_profile() {
    if (!profiler_) return std::nullopt;
    return profiler_->take();
  }

 private:
  friend class PhaseScope;

  // An open phase: its trace span and, for the flight ring's duration,
  // its start (read only when the ring is attached).
  struct OpenPhase {
    SpanId span = kNoSpan;
    std::chrono::steady_clock::time_point start{};
  };
  OpenPhase phase_begin(std::string_view name, std::string_view detail);
  void phase_end(std::string_view name, const OpenPhase& open);

  ScanTrace* trace_;
  MetricsRegistry* metrics_;
  FlightRecorder* flight_;
  std::optional<profile::PathProfiler> profiler_;
  OpenPhase root_;
  std::string origin_sink_;
  std::uint32_t origin_file_ = 0;
  std::uint32_t origin_line_ = 0;
};

// RAII phase. A null hook makes both ends a single pointer test. `name`
// must outlive the scope (every site passes a literal); `detail` names
// the file, root or sink it applies to.
class PhaseScope {
 public:
  PhaseScope(ScanEvents* events, std::string_view name,
             std::string_view detail = {})
      : events_(events), name_(name) {
    if (events_ != nullptr) open_ = events_->phase_begin(name, detail);
  }
  ~PhaseScope() {
    if (events_ != nullptr) events_->phase_end(name_, open_);
  }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  ScanEvents* events_;
  std::string_view name_;
  ScanEvents::OpenPhase open_;
};

}  // namespace uchecker::telemetry
