// The scand service core: a long-running scan queue with durable
// caches, backpressure and a watchdog (the library behind the scand
// daemon; see service/scan_server.h for the socket front end).
//
// What it adds over scan_many:
//
//  - Durable caches. Verdicts (whole ScanReport JSON, keyed by engine
//    version + scan options + content hashes) and solver outcomes
//    (SolverQueryCache entries) persist across restarts in
//    corruption-detecting KvStores (support/store.h). A cache record
//    that fails its checksum or no longer decodes is *counted and
//    recomputed*, never trusted: the failure mode of every crash,
//    torn write or bit flip is a cold scan, not a wrong verdict.
//  - Backpressure. The request queue is bounded; submit() on a full
//    queue fails immediately (the server replies "overloaded") instead
//    of buffering without limit.
//  - Watchdog. Every request gets a deadline (ServiceOptions::
//    request_timeout). A scan that overruns it plus a grace period is
//    cancelled through its token, answered kAnalysisError on the
//    caller's behalf, and its app is quarantined (persistently): a
//    wedged scan costs one worker temporarily — the watchdog retires
//    that worker and spawns a replacement — but never the daemon, and
//    the same content can never wedge it twice.
//  - Drain shutdown. stop() finishes every queued request, flushes the
//    caches and compacts the stores; kill -9 at any point loses at most
//    the records not yet appended (each put is flushed to the OS).
//
// Cache replay is byte-exact: a warm hit returns the stored JSON bytes,
// which are the to_json() of the original scan — so a client cannot
// tell a replay from a fresh scan (acceptance: warm verdicts are
// byte-identical to single-shot scans of the same content).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/detector/detector.h"
#include "support/store.h"

namespace uchecker::telemetry {
class Telemetry;
class FlightRecorder;
}  // namespace uchecker::telemetry

namespace uchecker::logging {
class Logger;
}  // namespace uchecker::logging

namespace uchecker::service {

struct ServiceOptions {
  // Directory for the durable stores (created if missing). Empty
  // disables persistence: the service still runs, fully in-memory.
  std::string state_dir;
  unsigned workers = 2;
  // Bounded queue: submit() fails once this many requests are waiting
  // (in-flight scans do not count against it).
  std::size_t max_queue = 32;
  // Per-request wall-clock deadline (0 = unlimited; the watchdog is
  // then idle and scans can only be bounded by scan.budget).
  std::chrono::milliseconds request_timeout{0};
  // How far past its deadline a scan may run before the watchdog
  // cancels it, answers for it and quarantines the app.
  std::chrono::milliseconds watchdog_grace{1000};
  std::chrono::milliseconds watchdog_poll{20};
  // Base configuration for every scan. `scan.query_cache` is
  // overwritten: all scans share the service's persistent solver cache.
  core::ScanOptions scan;
  // Service-level counters/gauges/histograms land here (may be the
  // same Telemetry as scan.telemetry). Optional.
  telemetry::Telemetry* telemetry = nullptr;
  // Structured log lines (request_done, watchdog_cancel, lifecycle)
  // land here. Optional; must outlive the service.
  logging::Logger* logger = nullptr;
  // How many recently completed requests top_requests() remembers.
  std::size_t top_history = 256;
};

// Ring size of each worker's flight recorder.
inline constexpr std::size_t kFlightRecorderCapacity = 256;
// With ServiceOptions::scan.profile set, every cold scan runs the
// engine-introspection profiler, and the per-root profiles of the last
// kProfileHistory profiled scans are kept for `scanctl profile`. The
// profile is stripped from the report before it is rendered and
// cached, so verdict-cache replays stay byte-identical to unprofiled
// scans — which is also why scan.profile is *not* part of verdict_key.
inline constexpr std::size_t kProfileHistory = 32;

// The answer to one request. `report_json` is the exact reply bytes:
// the freshly rendered to_json() on a cold scan, the stored bytes on a
// warm hit (identical by construction).
struct ScanOutcome {
  core::ScanReport report;
  std::string report_json;
  // The request's trace ID: the caller's if one was supplied to
  // submit(), otherwise minted by the service. Cache replays keep the
  // *request's* ID here even though the stored report bytes carry the
  // original scan's ID — the reply envelope is about this request.
  std::string trace_id;
  bool from_cache = false;
  bool quarantined = false;
};

// One completed request's cost attribution, as remembered for
// `scanctl top`: where its wall time went and which root dominated.
struct RequestCost {
  std::string app;
  std::string trace_id;
  std::string verdict;
  double total_ms = 0.0;
  double parse_ms = 0.0;
  double interp_ms = 0.0;
  double solve_ms = 0.0;
  std::uint64_t solver_calls = 0;
  bool from_cache = false;
  bool quarantined = false;
  std::string top_root;  // most expensive root (interp + solve)
  double top_root_ms = 0.0;
};

// One profiled request's engine introspection, as remembered for
// `scanctl profile` (ServiceOptions::scan.profile). The profile is held here
// — never in the cached report bytes.
struct RecentProfile {
  std::string app;
  std::string trace_id;
  std::string verdict;
  profile::ExplosionProfile profile;
};

class ScanService {
 public:
  explicit ScanService(ServiceOptions options);
  ~ScanService();

  ScanService(const ScanService&) = delete;
  ScanService& operator=(const ScanService&) = delete;

  // Opens the stores (replaying persisted state) and launches the
  // worker and watchdog threads. Persistence failures (unwritable
  // state_dir, corrupt files) degrade to cold/in-memory operation and
  // surface in telemetry; start() itself only fails when called twice.
  bool start();

  // Drains the queue (every accepted request is still answered),
  // flushes and compacts the stores, joins all threads. Idempotent.
  void stop();

  // Enqueues one scan. Returns an invalid future (valid() == false)
  // when the queue is full or the service is stopping — the caller
  // should report backpressure, not block. `trace_id` propagates into
  // every span, metric exemplar, log line and the report itself; when
  // empty the service mints one, so every request is traceable.
  [[nodiscard]] std::future<ScanOutcome> submit(core::Application app,
                                                std::string trace_id = {});

  // Convenience synchronous wrapper: nullopt = backpressure.
  [[nodiscard]] std::optional<ScanOutcome> scan(core::Application app,
                                                std::string trace_id = {});

  [[nodiscard]] std::size_t queue_depth() const;

  // The `n` most expensive completed requests (by total wall time),
  // most expensive first, drawn from the last ServiceOptions::
  // top_history completions. Powers `scanctl top`.
  [[nodiscard]] std::vector<RequestCost> top_requests(std::size_t n) const;

  // The `n` most recent profiled scans (ServiceOptions::scan.profile),
  // newest first. Cache replays record no profile (nothing ran).
  // Powers `scanctl profile`.
  [[nodiscard]] std::vector<RecentProfile> recent_profiles(
      std::size_t n) const;

  // When start() succeeded (steady clock). Powers status/ping uptime.
  [[nodiscard]] std::chrono::steady_clock::time_point started_at() const {
    return started_at_;
  }

  // The persistent verdict-cache key for `app` under `scan` options:
  // FNV over engine version, the option fields that can change a
  // verdict, and every (file name, content hash). Exposed for tests
  // and for external cache tooling.
  [[nodiscard]] static std::string verdict_key(const core::Application& app,
                                               const core::ScanOptions& scan);

  [[nodiscard]] bool is_quarantined(const core::Application& app) const;

  // Fleet-wide solver cache (preloaded from disk on start()).
  [[nodiscard]] core::SolverQueryCache& solver_cache() { return solver_cache_; }

  // Aggregated store health (verdict + solver + quarantine stores).
  [[nodiscard]] store::StoreStats verdict_store_stats() const;
  [[nodiscard]] store::StoreStats solver_store_stats() const;

  [[nodiscard]] const ServiceOptions& options() const { return options_; }

 private:
  struct InFlight {
    std::string app_name;
    std::string key;
    std::string trace_id;
    // The flight recorder of the worker running this scan (set at
    // pickup). Recorders live in recorders_ for the service's lifetime,
    // so the watchdog can dump one even after the worker is retired.
    telemetry::FlightRecorder* recorder = nullptr;
    CancellationSource cancel;
    std::chrono::steady_clock::time_point deadline_at{};
    bool has_deadline = false;
    // Whoever flips this first (worker or watchdog) owns the promise.
    std::atomic<bool> replied{false};
    // Set by the watchdog: the worker running this scan is considered
    // lost and must exit instead of taking more work (a replacement is
    // already running).
    std::atomic<bool> abandoned{false};
    std::promise<ScanOutcome> promise;
  };

  struct Request {
    core::Application app;
    std::shared_ptr<InFlight> flight;
  };

  void worker_loop();
  void watchdog_loop();
  void process(Request& request, telemetry::FlightRecorder* recorder);
  void publish_store_metrics();
  void count(const char* name, std::uint64_t n = 1);
  void set_gauge(const char* name, double value);
  void remember_cost(RequestCost cost);
  void remember_profile(RecentProfile profile);
  // Writes `recorder`'s dump to state_dir/flightrec-<tag>.json (no-op
  // without a state_dir). Called by the watchdog (tag = verdict key)
  // and by stop() for the SIGTERM drain (tag = worker index).
  void dump_flight(const telemetry::FlightRecorder& recorder,
                   const std::string& tag);

  ServiceOptions options_;
  core::SolverQueryCache solver_cache_;
  store::KvStore verdict_store_;
  store::KvStore solver_store_;
  store::KvStore quarantine_store_;

  mutable std::mutex mu_;
  std::condition_variable cv_;           // workers: queue / stop
  std::condition_variable watchdog_cv_;  // watchdog: stop only
  std::deque<Request> queue_;
  std::vector<std::shared_ptr<InFlight>> inflight_;
  std::vector<std::thread> threads_;  // workers + replacements
  std::thread watchdog_;
  bool started_ = false;
  bool stopping_ = false;

  // One flight recorder per worker thread (including replacements).
  // Append-only under mu_; entries are never removed, so raw pointers
  // into it (InFlight::recorder) stay valid until destruction.
  std::vector<std::unique_ptr<telemetry::FlightRecorder>> recorders_;

  // Recently completed requests, newest at the back, bounded by
  // options_.top_history. Own mutex: readers (scanctl top) must not
  // contend with the scheduler lock.
  mutable std::mutex costs_mu_;
  std::deque<RequestCost> recent_costs_;

  // Profiles of recently completed profiled scans, newest at the back,
  // bounded by kProfileHistory (same locking rationale).
  mutable std::mutex profiles_mu_;
  std::deque<RecentProfile> recent_profiles_;

  std::chrono::steady_clock::time_point started_at_{};
};

}  // namespace uchecker::service
