// scand: the uchecker scan daemon.
//
//   $ ./build/examples/scand --socket /run/uchecker.sock
//       --state-dir /var/lib/uchecker
//       [--workers N] [--queue N]
//       [--request-timeout-ms N] [--watchdog-grace-ms N]
//       [--all-findings] [--explain] [--profile]
//       [--metrics-out FILE] [--trace-out FILE]
//       [--log-file FILE] [--log-level debug|info|warn|error]
//       [--version]
//
// A long-running scan service over a Unix socket (line-delimited JSON;
// protocol in src/service/scan_server.h — drive it with scanctl).
// Verdicts and solver outcomes persist in corruption-detecting stores
// under --state-dir, so a restart (including recovery from kill -9)
// re-serves previously scanned content from cache, byte-identical to
// the original scan. A corrupt or torn cache record is detected by
// checksum and recomputed, never trusted.
//
// Robustness: the request queue is bounded (clients get an immediate
// "overloaded" reply instead of unbounded buffering), every scan runs
// under --request-timeout-ms, and a watchdog cancels scans that overrun
// it by --watchdog-grace-ms, answers kAnalysisError on their behalf and
// quarantines the offending content persistently — a wedged scan never
// takes the daemon down, and the same content cannot wedge it twice.
//
// Shutdown: SIGTERM/SIGINT drain — stop accepting, finish queued
// requests, flush + compact the stores, dump each worker's flight
// recorder under --state-dir, exit 0.
//
// Introspection: --profile runs every cold scan under the path
// profiler; `scanctl profile` shows the last service::kProfileHistory
// (32) profiles. Each worker keeps a service::kFlightRecorderCapacity
// (256) slot flight ring; neither size is a flag.
//
// Observability: --log-file/--log-level emit structured JSON-lines
// (request_done, watchdog_cancel, lifecycle; see support/logging.h),
// the `metrics` protocol op serves a Prometheus text exposition, and
// --trace-out writes a Chrome trace of every scan on exit. All of it
// is correlated by request trace IDs (client-supplied or minted).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "service/scan_server.h"
#include "support/logging.h"
#include "support/telemetry.h"
#include "support/trace_export.h"

using namespace uchecker;

namespace {

// SIGTERM/SIGINT must only touch async-signal-safe state: one relaxed
// pointer load plus ScanServer::request_stop (one atomic store).
std::atomic<service::ScanServer*> g_server{nullptr};

void handle_signal(int /*sig*/) {
  if (service::ScanServer* server = g_server.load(std::memory_order_relaxed)) {
    server->request_stop();
  }
}

bool flag_with_value(int argc, char** argv, int& i, const char* flag,
                     std::string& value) {
  const std::size_t len = std::strlen(flag);
  if (std::strncmp(argv[i], flag, len) != 0) return false;
  if (argv[i][len] == '=') {
    value = argv[i] + len + 1;
    return true;
  }
  if (argv[i][len] == '\0' && i + 1 < argc) {
    value = argv[++i];
    return true;
  }
  return false;
}

long parse_positive(const std::string& text, const char* flag) {
  const long value = std::strtol(text.c_str(), nullptr, 10);
  if (value <= 0) {
    std::fprintf(stderr, "error: %s needs a positive integer\n", flag);
    std::exit(2);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string metrics_out;
  std::string trace_out;
  std::string log_file;
  std::string log_level;
  service::ServiceOptions options;
  options.scan.vuln.stop_at_first_finding = true;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (flag_with_value(argc, argv, i, "--socket", value)) {
      socket_path = value;
    } else if (flag_with_value(argc, argv, i, "--state-dir", value)) {
      options.state_dir = value;
    } else if (flag_with_value(argc, argv, i, "--workers", value)) {
      options.workers =
          static_cast<unsigned>(parse_positive(value, "--workers"));
    } else if (flag_with_value(argc, argv, i, "--queue", value)) {
      options.max_queue =
          static_cast<std::size_t>(parse_positive(value, "--queue"));
    } else if (flag_with_value(argc, argv, i, "--request-timeout-ms", value)) {
      options.request_timeout = std::chrono::milliseconds(
          parse_positive(value, "--request-timeout-ms"));
    } else if (flag_with_value(argc, argv, i, "--watchdog-grace-ms", value)) {
      options.watchdog_grace = std::chrono::milliseconds(
          parse_positive(value, "--watchdog-grace-ms"));
    } else if (flag_with_value(argc, argv, i, "--metrics-out", value)) {
      metrics_out = value;
    } else if (flag_with_value(argc, argv, i, "--trace-out", value)) {
      trace_out = value;
    } else if (flag_with_value(argc, argv, i, "--log-file", value)) {
      log_file = value;
    } else if (flag_with_value(argc, argv, i, "--log-level", value)) {
      log_level = value;
    } else if (std::strcmp(argv[i], "--all-findings") == 0) {
      options.scan.vuln.stop_at_first_finding = false;
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      options.scan.explain = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      // Engine introspection on every cold scan; inspect the last runs
      // with `scanctl profile`. Cache bytes are unaffected (the profile
      // is stripped before rendering), so toggling this across restarts
      // never invalidates the verdict store.
      options.scan.profile = true;
    } else if (std::strcmp(argv[i], "--version") == 0) {
      std::printf("%s\n", std::string(core::kEngineVersion).c_str());
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr,
                 "usage: %s --socket PATH [--state-dir DIR] [--workers N] "
                 "[--queue N] [--request-timeout-ms N] "
                 "[--watchdog-grace-ms N] [--all-findings] [--explain] "
                 "[--profile] "
                 "[--metrics-out FILE] [--trace-out FILE] [--log-file FILE] "
                 "[--log-level LEVEL] [--version]\n",
                 argv[0]);
    return 2;
  }

  logging::Logger logger;
  if (!log_level.empty()) {
    logging::Level level = logging::Level::kInfo;
    if (!logging::parse_level(log_level, &level)) {
      std::fprintf(stderr, "error: unknown log level %s\n", log_level.c_str());
      return 2;
    }
    logger.set_min_level(level);
  }
  if (!log_file.empty() && !logger.open_file(log_file)) {
    std::fprintf(stderr, "error: cannot open log file %s\n", log_file.c_str());
    return 2;
  }

  telemetry::Telemetry telemetry;
  options.telemetry = &telemetry;
  // Per-scan tracing feeds the flight recorders, --trace-out and the
  // metric exemplars. Traces accumulate for the daemon's lifetime
  // (bounded per scan by sample decimation); a scrape-and-restart
  // deployment keeps that growth irrelevant.
  options.scan.telemetry = &telemetry;
  options.logger = &logger;

  service::ScanService service(options);
  service.start();

  service::ScanServer server(service, service::ServerOptions{socket_path});
  if (!server.listen()) {
    std::fprintf(stderr, "error: cannot listen on %s: %s\n",
                 socket_path.c_str(), std::strerror(errno));
    service.stop();
    return 2;
  }

  g_server.store(&server, std::memory_order_relaxed);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);

  std::fprintf(stderr, "scand: listening on %s (state: %s)\n",
               socket_path.c_str(),
               options.state_dir.empty() ? "<in-memory>"
                                         : options.state_dir.c_str());
  const int rc = server.run();

  // Drain: queued requests finish, caches flush and compact.
  g_server.store(nullptr, std::memory_order_relaxed);
  service.stop();
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out, std::ios::binary | std::ios::trunc);
    if (out) out << telemetry::metrics_to_json(telemetry);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write metrics to %s\n",
                   metrics_out.c_str());
    }
  }
  if (!trace_out.empty()) {
    std::ofstream out(trace_out, std::ios::binary | std::ios::trunc);
    if (out) out << telemetry::to_chrome_trace_json(telemetry);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write trace to %s\n",
                   trace_out.c_str());
    }
  }
  std::fprintf(stderr, "scand: drained, exiting\n");
  return rc;
}
