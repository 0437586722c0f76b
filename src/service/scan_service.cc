#include "service/scan_service.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <utility>

#include "core/detector/report_io.h"
#include "support/flight_recorder.h"
#include "support/logging.h"
#include "support/strutil.h"
#include "support/telemetry.h"

namespace uchecker::service {
namespace {

namespace fs = std::filesystem;

// Store schemas carry the engine version: upgrading the engine
// cold-starts both caches instead of replaying stale analysis. Each
// store also names its own record format: the solver store is at /2
// since its keys became canonical query text and its bindings canonical
// names (core::SolverQueryCache), so a /1 store of s-expression keys
// cold-starts.
std::string schema_for(std::string_view store_format) {
  return std::string(store_format) + " " + std::string(core::kEngineVersion);
}

core::ScanReport service_error_report(std::string app_name,
                                      std::string message) {
  core::ScanReport report;
  report.app_name = std::move(app_name);
  report.verdict = core::Verdict::kAnalysisError;
  report.errors.push_back(
      core::ScanError{"service", "", std::move(message), false});
  return report;
}

// Pulls the cost attribution a report carries (phase_ms, root_costs)
// into the bounded `scanctl top` record for this request.
RequestCost cost_from_report(const core::ScanReport& report) {
  RequestCost cost;
  cost.verdict = std::string(core::verdict_slug(report.verdict));
  const auto phase = [&](const char* name) {
    const auto it = report.phase_ms.find(name);
    return it == report.phase_ms.end() ? 0.0 : it->second;
  };
  cost.parse_ms = phase("parse");
  cost.interp_ms = phase("interp");
  cost.solve_ms = phase("solve");
  cost.solver_calls = report.solver_calls;
  for (const core::RootCost& rc : report.root_costs) {
    const double ms = rc.interp_ms + rc.solve_ms;
    if (ms >= cost.top_root_ms && !rc.pruned) {
      cost.top_root_ms = ms;
      cost.top_root = rc.root;
    }
  }
  return cost;
}

}  // namespace

ScanService::ScanService(ServiceOptions options)
    : options_(std::move(options)) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.max_queue == 0) options_.max_queue = 1;
}

ScanService::~ScanService() { stop(); }

void ScanService::count(const char* name, std::uint64_t n) {
  if (options_.telemetry != nullptr) {
    options_.telemetry->metrics().counter(name).add(n);
  }
}

void ScanService::set_gauge(const char* name, double value) {
  if (options_.telemetry != nullptr) {
    options_.telemetry->metrics().gauge(name).set(value);
  }
}

void ScanService::publish_store_metrics() {
  if (options_.telemetry == nullptr) return;
  const auto mirror = [this](const char* prefix, const store::StoreStats& s) {
    const std::string p(prefix);
    auto& m = options_.telemetry->metrics();
    m.gauge(p + ".hits").set(static_cast<double>(s.hits));
    m.gauge(p + ".misses").set(static_cast<double>(s.misses));
    m.gauge(p + ".corrupt").set(static_cast<double>(s.corrupt));
    m.gauge(p + ".dropped_flushes").set(static_cast<double>(s.dropped_flushes));
    m.gauge(p + ".cold_start").set(s.cold_start ? 1.0 : 0.0);
  };
  mirror("scand.verdict_cache", verdict_store_.stats());
  mirror("scand.solver_cache", solver_store_.stats());
  set_gauge("scand.quarantine.size",
            static_cast<double>(quarantine_store_.size()));
}

bool ScanService::start() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (started_) return false;
    started_ = true;
    stopping_ = false;
  }

  if (!options_.state_dir.empty()) {
    std::error_code ec;
    fs::create_directories(options_.state_dir, ec);  // failure -> open fails
    const std::string dir = options_.state_dir + "/";
    verdict_store_.open(dir + "verdicts.kv",
                        schema_for("uchecker-verdicts/1"));
    solver_store_.open(dir + "solver.kv", schema_for("uchecker-solver/2"));
    quarantine_store_.open(dir + "quarantine.kv",
                           schema_for("uchecker-quarantine/1"));

    // Replay persisted solver outcomes into the shared in-memory cache.
    // A value that passes the record checksum but no longer decodes is
    // counted corrupt and dropped — re-solved on demand, never trusted.
    std::size_t loaded = 0;
    for (const auto& [key, value] : solver_store_.snapshot()) {
      if (auto outcome = core::decode_outcome(value); outcome.has_value()) {
        solver_cache_.preload(key, *std::move(outcome));
        ++loaded;
      } else {
        solver_store_.invalidate(key);
      }
    }
    count("scand.solver_cache.preloaded", loaded);
  }
  publish_store_metrics();
  set_gauge("scand.queue_depth", 0.0);

  started_at_ = std::chrono::steady_clock::now();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    threads_.reserve(options_.workers);
    for (unsigned i = 0; i < options_.workers; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }
  watchdog_ = std::thread([this] { watchdog_loop(); });
  if (options_.logger != nullptr) {
    options_.logger->info(
        "service_start", {},
        {{"workers", static_cast<std::uint64_t>(options_.workers)},
         {"state_dir", options_.state_dir},
         {"engine", core::kEngineVersion}});
  }
  return true;
}

void ScanService::stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  // The watchdog is gone, so threads_ can no longer grow; a retired
  // worker's thread still finishes its wedged scan before joining.
  std::vector<std::thread> workers;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    workers.swap(threads_);
  }
  for (std::thread& w : workers) {
    if (w.joinable()) w.join();
  }

  // SIGTERM drain: persist each worker's flight-recorder window so a
  // post-mortem can see what every worker was doing at shutdown.
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < recorders_.size(); ++i) {
      if (recorders_[i]->total_recorded() == 0) continue;
      dump_flight(*recorders_[i], "worker" + std::to_string(i));
    }
  }

  // Final flush: anything solved but not yet drained, then compact the
  // append logs down to their live maps.
  for (auto& [key, outcome] : solver_cache_.drain_dirty()) {
    solver_store_.put(key, core::encode_outcome(outcome));
  }
  verdict_store_.compact();
  solver_store_.compact();
  quarantine_store_.compact();
  publish_store_metrics();
  verdict_store_.close();
  solver_store_.close();
  quarantine_store_.close();
  if (options_.logger != nullptr) {
    options_.logger->info("service_stop");
  }
}

std::future<ScanOutcome> ScanService::submit(core::Application app,
                                             std::string trace_id) {
  auto flight = std::make_shared<InFlight>();
  flight->app_name = app.name;
  flight->key = verdict_key(app, options_.scan);
  flight->trace_id = trace_id.empty() ? telemetry::mint_trace_id(app.name)
                                      : std::move(trace_id);
  flight->has_deadline = options_.request_timeout.count() > 0;
  std::future<ScanOutcome> future = flight->promise.get_future();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) return {};
    if (queue_.size() >= options_.max_queue) {
      count("scand.overloaded");
      return {};
    }
    queue_.push_back(Request{std::move(app), std::move(flight)});
    set_gauge("scand.queue_depth", static_cast<double>(queue_.size()));
  }
  count("scand.requests");
  cv_.notify_one();
  return future;
}

std::optional<ScanOutcome> ScanService::scan(core::Application app,
                                             std::string trace_id) {
  std::future<ScanOutcome> future =
      submit(std::move(app), std::move(trace_id));
  if (!future.valid()) return std::nullopt;
  return future.get();
}

std::vector<RequestCost> ScanService::top_requests(std::size_t n) const {
  std::vector<RequestCost> out;
  {
    const std::lock_guard<std::mutex> lock(costs_mu_);
    out.assign(recent_costs_.begin(), recent_costs_.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const RequestCost& x, const RequestCost& y) {
                     return x.total_ms > y.total_ms;
                   });
  if (out.size() > n) out.resize(n);
  return out;
}

void ScanService::remember_cost(RequestCost cost) {
  if (options_.top_history == 0) return;
  const std::lock_guard<std::mutex> lock(costs_mu_);
  recent_costs_.push_back(std::move(cost));
  while (recent_costs_.size() > options_.top_history) {
    recent_costs_.pop_front();
  }
}

std::vector<RecentProfile> ScanService::recent_profiles(std::size_t n) const {
  std::vector<RecentProfile> out;
  const std::lock_guard<std::mutex> lock(profiles_mu_);
  for (auto it = recent_profiles_.rbegin();
       it != recent_profiles_.rend() && out.size() < n; ++it) {
    out.push_back(*it);
  }
  return out;
}

void ScanService::remember_profile(RecentProfile profile) {
  const std::lock_guard<std::mutex> lock(profiles_mu_);
  recent_profiles_.push_back(std::move(profile));
  while (recent_profiles_.size() > kProfileHistory) {
    recent_profiles_.pop_front();
  }
}

void ScanService::dump_flight(const telemetry::FlightRecorder& recorder,
                              const std::string& tag) {
  if (options_.state_dir.empty()) return;
  const std::string path =
      options_.state_dir + "/flightrec-" + tag + ".json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return;
  out << recorder.to_json() << '\n';
}

std::size_t ScanService::queue_depth() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::string ScanService::verdict_key(const core::Application& app,
                                     const core::ScanOptions& scan) {
  // Only option fields that can change a non-degraded report are part
  // of the key (budget/deadline overruns mark the report degraded, and
  // degraded reports are never cached).
  std::string opts = "stop=";
  opts += scan.vuln.stop_at_first_finding ? '1' : '0';
  opts += ";admin=";
  opts += scan.locality.model_admin_gating ? '1' : '0';
  opts += ";locality=";
  opts += scan.run_locality ? '1' : '0';
  opts += ";lint=";
  opts += scan.lint ? '1' : '0';
  opts += ";summaries=";
  opts += scan.summaries ? '1' : '0';
  opts += ";crosscheck=";
  opts += scan.crosscheck ? '1' : '0';
  opts += ";explain=";
  opts += scan.explain ? '1' : '0';
  opts += ";ext=";
  for (const std::string& ext : scan.vuln.executable_extensions) {
    opts += ext;
    opts += ',';
  }

  std::uint64_t h = store::fnv1a64(core::kEngineVersion);
  h = store::fnv1a64(opts, h);
  h = store::fnv1a64(app.name, h);
  // Content identity is order-independent: hash (name, content hash)
  // pairs in sorted-name order.
  std::vector<std::pair<std::string_view, std::uint64_t>> files;
  files.reserve(app.files.size());
  for (const core::AppFile& f : app.files) {
    files.emplace_back(f.name, store::fnv1a64(f.content));
  }
  std::sort(files.begin(), files.end());
  for (const auto& [name, content_hash] : files) {
    h = store::fnv1a64(name, h);
    h = store::fnv1a64(store::hex64(content_hash), h);
  }
  return store::hex64(h);
}

bool ScanService::is_quarantined(const core::Application& app) const {
  return quarantine_store_.contains(verdict_key(app, options_.scan));
}

store::StoreStats ScanService::verdict_store_stats() const {
  return verdict_store_.stats();
}

store::StoreStats ScanService::solver_store_stats() const {
  return solver_store_.stats();
}

void ScanService::worker_loop() {
  // This worker's flight recorder. Owned by recorders_ (never removed),
  // so the watchdog can still dump it after this worker is retired.
  telemetry::FlightRecorder* recorder = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    recorders_.push_back(
        std::make_unique<telemetry::FlightRecorder>(kFlightRecorderCapacity));
    recorder = recorders_.back().get();
  }

  while (true) {
    Request request;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      request = std::move(queue_.front());
      queue_.pop_front();
      if (request.flight->has_deadline) {
        request.flight->deadline_at =
            std::chrono::steady_clock::now() + options_.request_timeout;
      }
      request.flight->recorder = recorder;
      inflight_.push_back(request.flight);
      set_gauge("scand.queue_depth", static_cast<double>(queue_.size()));
      recorder->record(telemetry::FlightKind::kQueue,
                       request.flight->app_name, queue_.size());
    }

    process(request, recorder);

    bool retired = false;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      inflight_.erase(
          std::remove(inflight_.begin(), inflight_.end(), request.flight),
          inflight_.end());
      retired = request.flight->abandoned.load(std::memory_order_acquire);
    }
    // The watchdog answered for this scan and spawned a replacement
    // worker; this thread bows out rather than doubling the pool.
    if (retired) return;
  }
}

void ScanService::process(Request& request,
                          telemetry::FlightRecorder* recorder) {
  const auto t0 = std::chrono::steady_clock::now();
  InFlight& flight = *request.flight;
  ScanOutcome outcome;
  outcome.trace_id = flight.trace_id;

  if (quarantine_store_.contains(flight.key)) {
    count("scand.quarantine_hits");
    outcome.quarantined = true;
    outcome.report = service_error_report(
        flight.app_name,
        "quarantined: a previous scan of this content exceeded its deadline");
    outcome.report_json = core::to_json(outcome.report);
  } else {
    bool need_scan = true;
    if (auto cached = verdict_store_.get(flight.key); cached.has_value()) {
      if (auto parsed = core::report_from_json(*cached); parsed.has_value()) {
        // Warm replay: the reply bytes are the stored bytes, which are
        // the to_json() of the original scan — byte-identical.
        outcome.report = *std::move(parsed);
        outcome.report_json = *std::move(cached);
        outcome.from_cache = true;
        need_scan = false;
      } else {
        // Checksum-clean but undecodable (schema drift that survived
        // the header check): corrupt, recompute, never replay.
        verdict_store_.invalidate(flight.key);
      }
    }

    if (need_scan) {
      core::ScanOptions scan_options = options_.scan;
      scan_options.query_cache = &solver_cache_;
      scan_options.trace_id = flight.trace_id;
      scan_options.flight = recorder;
      const core::Detector detector(scan_options);
      Deadline deadline = flight.has_deadline
                              ? Deadline::after(options_.request_timeout)
                              : Deadline::unlimited();
      deadline.attach(flight.cancel.token());
      outcome.report = detector.scan(request.app, deadline);
      if (outcome.report.profiled) {
        // Strip the profile into the in-memory ring before rendering:
        // the reply and cache bytes carry no profile, as an unprofiled
        // scan's would, so warm replays remain indistinguishable from
        // cold ones.
        RecentProfile recent;
        recent.app = flight.app_name;
        recent.trace_id = flight.trace_id;
        recent.verdict =
            std::string(core::verdict_slug(outcome.report.verdict));
        recent.profile = std::move(outcome.report.profile);
        outcome.report.profile = {};
        outcome.report.profiled = false;
        remember_profile(std::move(recent));
      }
      outcome.report_json = core::to_json(outcome.report);
      // Only clean reports are worth replaying; a degraded one (error,
      // timeout, budget) must be recomputed next time.
      if (!outcome.report.degraded() &&
          outcome.report.verdict != core::Verdict::kAnalysisError) {
        verdict_store_.put(flight.key, outcome.report_json);
      }
      // Incremental solver-cache flush: persist what this scan solved
      // now, so a crash loses at most the scans after the last flush.
      std::size_t flushed = 0;
      for (auto& [key, solver_outcome] : solver_cache_.drain_dirty()) {
        solver_store_.put(key, core::encode_outcome(solver_outcome));
        ++flushed;
      }
      if (flushed > 0) count("scand.solver_cache.flushed", flushed);
    }
  }

  const double total_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  // A cache hit never paid the report's parse/interp/solve time — those
  // belong to the original scan — so only the verdict is attributed.
  RequestCost cost;
  if (outcome.from_cache) {
    cost.verdict = std::string(core::verdict_slug(outcome.report.verdict));
  } else {
    cost = cost_from_report(outcome.report);
  }
  cost.app = flight.app_name;
  cost.trace_id = flight.trace_id;
  cost.total_ms = total_ms;
  cost.from_cache = outcome.from_cache;
  cost.quarantined = outcome.quarantined;

  if (options_.logger != nullptr) {
    options_.logger->info(
        "request_done", flight.trace_id,
        {{"app", flight.app_name},
         {"verdict", cost.verdict},
         {"total_ms", total_ms},
         {"cached", outcome.from_cache},
         {"quarantined", outcome.quarantined},
         {"solver_calls", cost.solver_calls}});
  }

  // Record the cost before fulfilling the promise: a client that sees
  // its scan response must also see the request in `top`.
  remember_cost(std::move(cost));
  if (!flight.replied.exchange(true, std::memory_order_acq_rel)) {
    if (options_.telemetry != nullptr) {
      options_.telemetry->metrics()
          .histogram("scand.request_ms",
                     telemetry::MetricsRegistry::default_latency_buckets_ms())
          .observe(total_ms);
      options_.telemetry->metrics().set_exemplar("scand.request_ms",
                                                 flight.trace_id);
    }
    flight.promise.set_value(std::move(outcome));
  }
  publish_store_metrics();
}

void ScanService::watchdog_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    watchdog_cv_.wait_for(lock, options_.watchdog_poll,
                          [this] { return stopping_; });
    if (stopping_) return;
    const auto now = std::chrono::steady_clock::now();
    for (auto& flight : inflight_) {
      if (!flight->has_deadline ||
          flight->replied.load(std::memory_order_acquire) ||
          now <= flight->deadline_at + options_.watchdog_grace) {
        continue;
      }
      // A scan is wedged past deadline + grace: cancel it, answer for
      // it, quarantine its content, and replace the worker stuck on it.
      flight->cancel.cancel();
      count("scand.watchdog_cancellations");
      // The quarantine value is a small JSON object naming the trace
      // and the phase the scan was wedged in, and the flight-recorder
      // dump lands alongside it — together they answer "what was it
      // doing when it hung?" long after the daemon moved on.
      const std::string wedged = flight->recorder->wedged_phase();
      dump_flight(*flight->recorder, flight->key);
      quarantine_store_.put(
          flight->key,
          "{\"reason\": \"watchdog: scan exceeded deadline\", "
          "\"trace_id\": " +
              strutil::quote(flight->trace_id) +
              ", \"wedged_phase\": " + strutil::quote(wedged) + "}");
      count("scand.quarantined");
      if (options_.logger != nullptr) {
        options_.logger->warn("watchdog_cancel", flight->trace_id,
                              {{"app", flight->app_name},
                               {"key", flight->key},
                               {"wedged_phase", wedged}});
      }
      flight->abandoned.store(true, std::memory_order_release);
      if (!flight->replied.exchange(true, std::memory_order_acq_rel)) {
        ScanOutcome outcome;
        outcome.trace_id = flight->trace_id;
        outcome.quarantined = true;
        outcome.report = service_error_report(
            flight->app_name,
            "watchdog: scan cancelled after exceeding its deadline; "
            "content quarantined");
        outcome.report_json = core::to_json(outcome.report);
        flight->promise.set_value(std::move(outcome));
      }
      threads_.emplace_back([this] { worker_loop(); });
    }
  }
}

}  // namespace uchecker::service
