// End-to-end tests of the scand service core and its socket protocol:
// durable verdict/solver caches (warm hits byte-identical to the cold
// scan, survival across restart, simulated crash and SIGKILL), corruption
// recovery (a damaged record is detected and recomputed, never
// trusted), backpressure, the watchdog/quarantine path for wedged
// scans, the line-JSON wire protocol, and the scand/scanctl binaries
// themselves over the whole corpus, SIGKILL included.
#include "service/scan_service.h"

#include <fcntl.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "core/detector/app_loader.h"
#include "core/detector/report_io.h"
#include "corpus/corpus.h"
#include "service/scan_server.h"
#include "support/fault_injector.h"
#include "support/jsonlite.h"
#include "support/logging.h"
#include "support/strutil.h"
#include "support/telemetry.h"
#include "support/trace_export.h"

namespace uchecker::service {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

core::Application synth(const std::string& name, bool vulnerable) {
  corpus::SynthSpec spec;
  spec.name = name;
  spec.sequential_ifs = 2;
  spec.vulnerable = vulnerable;
  spec.filler_loc = 60;
  return corpus::synth_app(spec);
}

// The drain dumps each worker's flight recorder as
// `dir`/flightrec-worker<i>.json: one per worker, each with the queue
// pickups in it and no phase left open.
void expect_drain_dumps(const fs::path& dir, std::size_t workers) {
  std::size_t dumps = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("flightrec-worker", 0) != 0) continue;
    ++dumps;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    const auto dump = jsonlite::parse(text.str());
    ASSERT_TRUE(dump.has_value()) << name;
    for (const char* key : {"total_recorded", "dropped", "wedged_phase",
                            "last_progress", "events"}) {
      EXPECT_NE(dump->find(key), nullptr) << name << " lacks " << key;
    }
    ASSERT_NE(dump->find("wedged_phase"), nullptr);
    EXPECT_TRUE(dump->find("wedged_phase")->is_null()) << text.str();
    const jsonlite::Value* events = dump->find("events");
    ASSERT_NE(events, nullptr);
    ASSERT_FALSE(events->items().empty()) << name;
    bool saw_queue = false;
    for (const jsonlite::Value& event : events->items()) {
      const jsonlite::Value* kind = event.find("kind");
      saw_queue |= kind != nullptr && kind->str() == "queue";
    }
    EXPECT_TRUE(saw_queue) << text.str();
  }
  EXPECT_EQ(dumps, workers);
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::instance().disarm_all();
    dir_ = fs::temp_directory_path() /
           ("uchecker_service_test_" +
            std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    FaultInjector::instance().disarm_all();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string state_dir(const char* sub = "state") const {
    return (dir_ / sub).string();
  }

  ServiceOptions base_options(const char* sub = "state") const {
    ServiceOptions options;
    options.state_dir = state_dir(sub);
    options.workers = 2;
    return options;
  }

  fs::path dir_;
};

TEST_F(ServiceTest, VerdictKeyIsContentAndOptionSensitive) {
  const core::Application app = synth("key-app", true);
  core::ScanOptions scan;
  const std::string key = ScanService::verdict_key(app, scan);
  EXPECT_EQ(key.size(), 16u);
  EXPECT_EQ(key, ScanService::verdict_key(app, scan));

  // File order must not matter; file content and options must.
  core::Application reordered = app;
  std::reverse(reordered.files.begin(), reordered.files.end());
  EXPECT_EQ(key, ScanService::verdict_key(reordered, scan));

  core::Application edited = app;
  edited.files[0].content += " ";
  EXPECT_NE(key, ScanService::verdict_key(edited, scan));

  core::ScanOptions explain = scan;
  explain.explain = true;
  EXPECT_NE(key, ScanService::verdict_key(app, explain));
}

TEST_F(ServiceTest, WarmHitIsByteIdenticalToColdScan) {
  ScanService service(base_options());
  ASSERT_TRUE(service.start());
  const core::Application app = synth("warm", true);

  const auto cold = service.scan(app);
  ASSERT_TRUE(cold.has_value());
  EXPECT_FALSE(cold->from_cache);
  EXPECT_EQ(cold->report.verdict, core::Verdict::kVulnerable);
  EXPECT_EQ(cold->report_json, core::to_json(cold->report));

  const auto warm = service.scan(app);
  ASSERT_TRUE(warm.has_value());
  EXPECT_TRUE(warm->from_cache);
  // The replay is the stored bytes of the original scan: identical.
  EXPECT_EQ(warm->report_json, cold->report_json);
  EXPECT_EQ(warm->report.verdict, cold->report.verdict);
  EXPECT_EQ(service.verdict_store_stats().hits, 1u);
  service.stop();
}

TEST_F(ServiceTest, VerdictsSurviveRestart) {
  const core::Application vuln = synth("restart-vuln", true);
  const core::Application benign = synth("restart-benign", false);
  std::string cold_vuln_json;
  std::string cold_benign_json;
  {
    ScanService service(base_options());
    ASSERT_TRUE(service.start());
    cold_vuln_json = service.scan(vuln)->report_json;
    cold_benign_json = service.scan(benign)->report_json;
    service.stop();
  }
  {
    ScanService service(base_options());
    ASSERT_TRUE(service.start());
    EXPECT_FALSE(service.verdict_store_stats().cold_start);
    const auto warm_vuln = service.scan(vuln);
    const auto warm_benign = service.scan(benign);
    ASSERT_TRUE(warm_vuln.has_value());
    ASSERT_TRUE(warm_benign.has_value());
    EXPECT_TRUE(warm_vuln->from_cache);
    EXPECT_TRUE(warm_benign->from_cache);
    EXPECT_EQ(warm_vuln->report_json, cold_vuln_json);
    EXPECT_EQ(warm_benign->report_json, cold_benign_json);
    service.stop();
  }
}

TEST_F(ServiceTest, SolverOutcomesSurviveRestart) {
  {
    ScanService service(base_options());
    ASSERT_TRUE(service.start());
    (void)service.scan(synth("solver-a", true));
    service.stop();
    EXPECT_GT(service.solver_cache().size(), 0u);
  }
  {
    ScanService service(base_options());
    ASSERT_TRUE(service.start());
    // Preloaded from disk before any scan.
    EXPECT_GT(service.solver_cache().size(), 0u);
    // A *different* app with the same vulnerable shape reaches
    // byte-identical sink constraints: the persisted outcome answers
    // without a fresh Z3 call.
    const auto report = service.scan(synth("solver-b", true));
    ASSERT_TRUE(report.has_value());
    EXPECT_FALSE(report->from_cache);  // different verdict key...
    EXPECT_GT(service.solver_cache().hits(), 0u);  // ...same constraints
    EXPECT_EQ(report->report.verdict, core::Verdict::kVulnerable);
    service.stop();
  }
}

TEST_F(ServiceTest, CrashWithoutDrainStillRecovers) {
  const core::Application app = synth("crash", true);
  std::string cold_json;
  {
    ScanService service(base_options());
    ASSERT_TRUE(service.start());
    cold_json = service.scan(app)->report_json;
    // Simulate kill -9: snapshot the store files as they are mid-run
    // (every put is flushed to the OS at append time), with no drain,
    // no final flush, no compaction.
    fs::copy(state_dir(), state_dir("crashed"), fs::copy_options::recursive);
    service.stop();
  }
  ServiceOptions options = base_options("crashed");
  ScanService service(options);
  ASSERT_TRUE(service.start());
  EXPECT_FALSE(service.verdict_store_stats().cold_start);
  const auto warm = service.scan(app);
  ASSERT_TRUE(warm.has_value());
  EXPECT_TRUE(warm->from_cache);
  EXPECT_EQ(warm->report_json, cold_json);
  service.stop();
}

TEST_F(ServiceTest, CorruptVerdictRecordIsRecomputedNotTrusted) {
  const core::Application app = synth("corrupt", true);
  {
    ScanService service(base_options());
    ASSERT_TRUE(service.start());
    const auto cold = service.scan(app);
    ASSERT_TRUE(cold.has_value());
    EXPECT_FALSE(cold->from_cache);
    service.stop();
  }

  // Flip one bit inside the persisted record's payload.
  const std::string path = state_dir() + "/verdicts.kv";
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() - 16] ^= 0x04;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  // Restart: the checksum catches the damage, the record is dropped
  // (counted corrupt) and the verdict is recomputed — and the fresh
  // scan agrees with a cacheless one on everything that matters.
  ScanService service(base_options());
  ASSERT_TRUE(service.start());
  EXPECT_GT(service.verdict_store_stats().corrupt, 0u);
  const auto recomputed = service.scan(app);
  ASSERT_TRUE(recomputed.has_value());
  EXPECT_FALSE(recomputed->from_cache);

  const core::ScanReport direct = core::Detector().scan(app);
  EXPECT_EQ(recomputed->report.verdict, direct.verdict);
  ASSERT_EQ(recomputed->report.findings.size(), direct.findings.size());
  for (std::size_t i = 0; i < direct.findings.size(); ++i) {
    EXPECT_EQ(recomputed->report.findings[i].fingerprint,
              direct.findings[i].fingerprint);
  }
  service.stop();
}

TEST_F(ServiceTest, CorpusVerdictsMatchCachelessAfterCorruption) {
  std::vector<core::Application> apps;
  apps.push_back(synth("corpus-v", true));
  apps.push_back(synth("corpus-b", false));
  for (const auto& entry : corpus::new_vulnerable()) {
    apps.push_back(entry.app);
    if (apps.size() >= 4) break;
  }

  {
    ScanService service(base_options());
    ASSERT_TRUE(service.start());
    for (const auto& app : apps) (void)service.scan(app);
    service.stop();
  }
  // Damage both stores, then require every verdict to match a cacheless
  // run byte-for-byte at the JSON level (modulo wall-clock timing the
  // fresh scans produce themselves).
  for (const char* name : {"/verdicts.kv", "/solver.kv"}) {
    const std::string path = state_dir() + name;
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.is_open()) << path;
    file.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(file.tellg());
    ASSERT_GT(size, 40);
    file.seekp(size / 2);
    char byte = 0;
    file.seekg(size / 2);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    file.seekp(size / 2);
    file.write(&byte, 1);
  }

  ScanService service(base_options());
  ASSERT_TRUE(service.start());
  const core::Detector cacheless;
  for (const auto& app : apps) {
    const auto served = service.scan(app);
    ASSERT_TRUE(served.has_value()) << app.name;
    const core::ScanReport direct = cacheless.scan(app);
    EXPECT_EQ(core::verdict_slug(served->report.verdict),
              core::verdict_slug(direct.verdict))
        << app.name;
    ASSERT_EQ(served->report.findings.size(), direct.findings.size())
        << app.name;
    for (std::size_t i = 0; i < direct.findings.size(); ++i) {
      EXPECT_EQ(served->report.findings[i].fingerprint,
                direct.findings[i].fingerprint);
    }
  }
  service.stop();
}

TEST_F(ServiceTest, InMemoryModeCachesWithoutPersistence) {
  ServiceOptions options;  // no state_dir
  ScanService service(options);
  ASSERT_TRUE(service.start());
  const core::Application app = synth("mem", true);
  const auto cold = service.scan(app);
  const auto warm = service.scan(app);
  ASSERT_TRUE(cold.has_value());
  ASSERT_TRUE(warm.has_value());
  EXPECT_FALSE(cold->from_cache);
  EXPECT_TRUE(warm->from_cache);
  EXPECT_EQ(warm->report_json, cold->report_json);
  service.stop();
}

TEST_F(ServiceTest, BackpressureRejectsWhenQueueFull) {
  telemetry::Telemetry telemetry;
  ServiceOptions options = base_options();
  options.workers = 1;
  options.max_queue = 1;
  options.telemetry = &telemetry;
  ScanService service(options);
  ASSERT_TRUE(service.start());

  // Make each scan slow enough to hold the single worker. Every scan
  // parses; the benign app's roots can be pruned before interpretation.
  FaultInjector::instance().arm("parse", FaultInjector::Action::kStall,
                                300ms, /*max_hits=*/-1);
  auto first = service.submit(synth("bp-0", false));
  ASSERT_TRUE(first.valid());
  // Wait for the worker to pick it up so the queue is empty again.
  for (int i = 0; i < 200 && service.queue_depth() > 0; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(service.queue_depth(), 0u);

  auto queued = service.submit(synth("bp-1", false));
  ASSERT_TRUE(queued.valid());  // fills the queue
  auto rejected = service.submit(synth("bp-2", false));
  EXPECT_FALSE(rejected.valid());  // bounded: immediate backpressure
  EXPECT_GE(telemetry.metrics().counter("scand.overloaded").value(), 1u);

  FaultInjector::instance().disarm_all();
  (void)first.get();
  (void)queued.get();
  service.stop();
}

TEST_F(ServiceTest, WatchdogCancelsWedgedScanAndQuarantines) {
  telemetry::Telemetry telemetry;
  logging::Logger logger;
  std::vector<std::string> log_lines;
  logger.set_sink([&log_lines](const std::string& line) {
    log_lines.push_back(line);
  });
  ServiceOptions options = base_options();
  options.workers = 1;
  options.request_timeout = 50ms;
  options.watchdog_grace = 50ms;
  options.watchdog_poll = 10ms;
  options.telemetry = &telemetry;
  // Per-scan telemetry feeds the flight recorder (phase transitions are
  // mirrored off the scan trace), exactly as scand wires it.
  options.scan.telemetry = &telemetry;
  options.logger = &logger;
  const core::Application app = synth("wedged", true);
  const std::string key = ScanService::verdict_key(app, options.scan);
  {
    ScanService service(options);
    ASSERT_TRUE(service.start());
    // The stall ignores deadlines — exactly a wedged scan.
    FaultInjector::instance().arm("interp", FaultInjector::Action::kStall,
                                  1500ms, /*max_hits=*/1);
    const auto t0 = std::chrono::steady_clock::now();
    const auto outcome = service.scan(app);
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    ASSERT_TRUE(outcome.has_value());
    // The watchdog answered long before the 1.5s stall released.
    EXPECT_LT(elapsed, 1s);
    EXPECT_EQ(outcome->report.verdict, core::Verdict::kAnalysisError);
    EXPECT_TRUE(outcome->quarantined);
    EXPECT_FALSE(outcome->trace_id.empty());
    EXPECT_GE(telemetry.metrics()
                  .counter("scand.watchdog_cancellations")
                  .value(),
              1u);
    EXPECT_TRUE(service.is_quarantined(app));

    // The watchdog dumped the wedged worker's flight recorder next to
    // the quarantine entry, naming the phase the scan was stuck in.
    const std::string dump_path = state_dir() + "/flightrec-" + key + ".json";
    ASSERT_TRUE(fs::exists(dump_path)) << dump_path;
    std::ifstream dump_in(dump_path);
    std::ostringstream dump_buf;
    dump_buf << dump_in.rdbuf();
    const auto dump = jsonlite::parse(dump_buf.str());
    ASSERT_TRUE(dump.has_value()) << dump_buf.str();
    const jsonlite::Value* wedged_phase = dump->find("wedged_phase");
    ASSERT_NE(wedged_phase, nullptr);
    ASSERT_TRUE(wedged_phase->is_string()) << dump_buf.str();
    EXPECT_EQ(wedged_phase->str(), "interp") << dump_buf.str();

    // And logged the cancellation with the same wedged phase.
    bool saw_watchdog_line = false;
    for (const std::string& line : log_lines) {
      const auto parsed = jsonlite::parse(line);
      ASSERT_TRUE(parsed.has_value()) << line;
      if (parsed->find("event")->str() != "watchdog_cancel") continue;
      saw_watchdog_line = true;
      EXPECT_EQ(parsed->find("trace_id")->str(), outcome->trace_id);
      EXPECT_EQ(parsed->find("wedged_phase")->str(), "interp");
    }
    EXPECT_TRUE(saw_watchdog_line);

    // Same content again: answered from quarantine, no scan attempted.
    FaultInjector::instance().disarm_all();
    const auto again = service.scan(app);
    ASSERT_TRUE(again.has_value());
    EXPECT_TRUE(again->quarantined);
    EXPECT_EQ(again->report.verdict, core::Verdict::kAnalysisError);
    EXPECT_GE(telemetry.metrics().counter("scand.quarantine_hits").value(),
              1u);

    // The replacement worker keeps the service serving other content.
    const auto other = service.scan(synth("healthy", false));
    ASSERT_TRUE(other.has_value());
    EXPECT_EQ(other->report.verdict, core::Verdict::kNotVulnerable);
    service.stop();
  }
  // Quarantine is durable: a restarted daemon still refuses the content.
  ScanService restarted(options);
  ASSERT_TRUE(restarted.start());
  EXPECT_TRUE(restarted.is_quarantined(app));
  restarted.stop();
}

TEST_F(ServiceTest, TraceIdPropagatesEndToEnd) {
  telemetry::Telemetry telemetry;
  logging::Logger logger;
  std::vector<std::string> log_lines;
  logger.set_sink([&log_lines](const std::string& line) {
    log_lines.push_back(line);
  });
  ServiceOptions options = base_options();
  options.telemetry = &telemetry;
  options.scan.telemetry = &telemetry;
  options.logger = &logger;
  ScanService service(options);
  ASSERT_TRUE(service.start());
  const core::Application app = synth("traced", true);

  const auto cold = service.scan(app, "feedc0dedeadbeef");
  ASSERT_TRUE(cold.has_value());
  // One ID all the way through: the outcome envelope, the parsed
  // report, the stored/rendered report JSON, the metric exemplar, and
  // the request_done log line.
  EXPECT_EQ(cold->trace_id, "feedc0dedeadbeef");
  EXPECT_EQ(cold->report.trace_id, "feedc0dedeadbeef");
  EXPECT_NE(cold->report_json.find("\"trace_id\": \"feedc0dedeadbeef\""),
            std::string::npos);
  const auto exemplars = telemetry.metrics().exemplars();
  const auto request_exemplar = exemplars.find("scand.request_ms");
  ASSERT_NE(request_exemplar, exemplars.end());
  EXPECT_EQ(request_exemplar->second, "feedc0dedeadbeef");
  bool saw_request_line = false;
  for (const std::string& line : log_lines) {
    const auto parsed = jsonlite::parse(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    if (parsed->find("event")->str() != "request_done") continue;
    saw_request_line = true;
    EXPECT_EQ(parsed->find("trace_id")->str(), "feedc0dedeadbeef");
  }
  EXPECT_TRUE(saw_request_line);
  // The Chrome trace carries the ID in its span args.
  EXPECT_NE(telemetry::to_chrome_trace_json(telemetry)
                .find("feedc0dedeadbeef"),
            std::string::npos);

  // A warm replay serves the original scan's bytes (original trace ID
  // inside) but the outcome envelope carries *this* request's ID.
  const auto warm = service.scan(app, "0123456789abcdef");
  ASSERT_TRUE(warm.has_value());
  EXPECT_TRUE(warm->from_cache);
  EXPECT_EQ(warm->trace_id, "0123456789abcdef");
  EXPECT_EQ(warm->report_json, cold->report_json);

  // No caller-supplied ID: the service mints one, never leaves it empty.
  const auto minted = service.scan(synth("traced-minted", false));
  ASSERT_TRUE(minted.has_value());
  EXPECT_EQ(minted->trace_id.size(), 16u);
  service.stop();
}

TEST_F(ServiceTest, TopRequestsRanksByWallTime) {
  ServiceOptions options = base_options();
  options.top_history = 8;
  ScanService service(options);
  ASSERT_TRUE(service.start());
  const core::Application big = synth("top-big", true);
  (void)service.scan(big);
  (void)service.scan(synth("top-small", false));
  (void)service.scan(big);  // warm hit, near-zero cost

  const auto top = service.top_requests(10);
  ASSERT_EQ(top.size(), 3u);
  // Sorted most-expensive first.
  EXPECT_GE(top[0].total_ms, top[1].total_ms);
  EXPECT_GE(top[1].total_ms, top[2].total_ms);
  for (const RequestCost& cost : top) {
    EXPECT_FALSE(cost.app.empty());
    EXPECT_EQ(cost.trace_id.size(), 16u);
    EXPECT_FALSE(cost.verdict.empty());
  }
  // The cold scan of the vulnerable app attributes cost to its roots.
  bool saw_cold_big = false;
  for (const RequestCost& cost : top) {
    if (cost.app == big.name && !cost.from_cache) {
      saw_cold_big = true;
      EXPECT_FALSE(cost.top_root.empty());
      EXPECT_GT(cost.solver_calls, 0u);
    }
  }
  EXPECT_TRUE(saw_cold_big);
  // The bounded history keeps only the newest top_history entries.
  for (int i = 0; i < 10; ++i) {
    (void)service.scan(synth("top-filler-" + std::to_string(i), false));
  }
  EXPECT_EQ(service.top_requests(100).size(), 8u);
  service.stop();
}

TEST_F(ServiceTest, StopDrainsQueuedRequests) {
  ServiceOptions options = base_options();
  options.workers = 1;
  options.max_queue = 8;
  ScanService service(options);
  ASSERT_TRUE(service.start());
  std::vector<std::future<ScanOutcome>> futures;
  for (int i = 0; i < 4; ++i) {
    auto f = service.submit(synth("drain-" + std::to_string(i), i % 2 == 0));
    ASSERT_TRUE(f.valid());
    futures.push_back(std::move(f));
  }
  service.stop();  // must answer everything already accepted
  for (auto& f : futures) {
    ASSERT_TRUE(f.valid());
    const ScanOutcome outcome = f.get();
    EXPECT_NE(outcome.report_json, "");
  }

  expect_drain_dumps(state_dir(), 1);
}

TEST_F(ServiceTest, UnwritableStateDirDegradesToInMemory) {
  ServiceOptions options;
  options.state_dir = "/proc/definitely/not/writable/state";
  ScanService service(options);
  ASSERT_TRUE(service.start());
  const auto outcome = service.scan(synth("nodisk", true));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->report.verdict, core::Verdict::kVulnerable);
  service.stop();
}

// ---------------------------------------------------------------------------
// Wire protocol

class ServerTest : public ServiceTest {
 protected:
  [[nodiscard]] std::string socket_path() const {
    // sun_path is ~108 bytes; keep it short and unique.
    return "/tmp/ucd_" + std::to_string(::getpid()) + ".sock";
  }

  // One request line, one response line; "" when the server cannot be
  // reached or closes the connection without answering.
  static std::string roundtrip(const std::string& path,
                               const std::string& request) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return "";
    std::string response;
    const std::string line = request + "\n";
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0 &&
        ::send(fd, line.data(), line.size(), 0) ==
            static_cast<ssize_t>(line.size())) {
      char buf[4096];
      ssize_t n = 0;
      while (response.find('\n') == std::string::npos &&
             (n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
        response.append(buf, static_cast<std::size_t>(n));
      }
    }
    ::close(fd);
    if (response.find('\n') == std::string::npos) return "";
    return response.substr(0, response.find('\n'));
  }
};

TEST_F(ServerTest, HandleRequestValidation) {
  ScanService service(base_options());
  ASSERT_TRUE(service.start());
  ScanServer server(service, ServerOptions{socket_path()});

  auto expect_error = [&](const std::string& line) {
    const auto parsed = jsonlite::parse(server.handle_request(line));
    ASSERT_TRUE(parsed.has_value()) << line;
    const jsonlite::Value* status = parsed->find("status");
    ASSERT_NE(status, nullptr);
    EXPECT_EQ(status->str(), "error") << line;
  };
  expect_error("not json at all");
  expect_error("[1, 2, 3]");
  expect_error("{}");
  expect_error("{\"op\": 7}");
  expect_error("{\"op\": \"launch-missiles\"}");
  expect_error("{\"op\": \"scan\"}");
  expect_error("{\"op\": \"scan\", \"path\": \"/nonexistent/nowhere\"}");
  expect_error("{\"op\": \"scan\", \"app\": {\"name\": \"x\"}}");
  expect_error(
      "{\"op\": \"scan\", \"app\": {\"name\": \"x\", \"files\": []}}");

  const auto pong = jsonlite::parse(server.handle_request("{\"op\":\"ping\"}"));
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->find("status")->str(), "ok");
  service.stop();
}

TEST_F(ServerTest, SocketScanStatusShutdown) {
  telemetry::Telemetry telemetry;
  ServiceOptions options = base_options();
  options.telemetry = &telemetry;
  ScanService service(options);
  ASSERT_TRUE(service.start());
  ScanServer server(service, ServerOptions{socket_path(), 20ms});
  ASSERT_TRUE(server.listen());
  std::thread runner([&server] { EXPECT_EQ(server.run(), 0); });

  const std::string pong = roundtrip(socket_path(), "{\"op\": \"ping\"}");
  EXPECT_NE(pong.find("\"pong\": true"), std::string::npos) << pong;

  // Scan an on-disk tree through the socket.
  const fs::path tree = dir_ / "webapp";
  fs::create_directories(tree);
  std::ofstream(tree / "upload.php")
      << "<?php\n"
         "move_uploaded_file($_FILES['f']['tmp_name'], "
         "'/u/' . $_FILES['f']['name']);\n";
  const std::string scan_request =
      "{\"op\": \"scan\", \"path\": \"" + tree.string() + "\"}";
  const std::string cold = roundtrip(socket_path(), scan_request);
  const auto cold_json = jsonlite::parse(cold);
  ASSERT_TRUE(cold_json.has_value()) << cold;
  EXPECT_EQ(cold_json->find("status")->str(), "ok");
  EXPECT_EQ(cold_json->find("verdict")->str(), "vulnerable");
  EXPECT_FALSE(cold_json->find("cached")->boolean());
  ASSERT_NE(cold_json->find("report"), nullptr);
  EXPECT_TRUE(cold_json->find("report")->is_object());

  const std::string warm = roundtrip(socket_path(), scan_request);
  const auto warm_json = jsonlite::parse(warm);
  ASSERT_TRUE(warm_json.has_value());
  EXPECT_TRUE(warm_json->find("cached")->boolean());
  EXPECT_EQ(warm_json->find("verdict")->str(), "vulnerable");

  // SARIF format variant.
  const std::string sarif = roundtrip(
      socket_path(),
      "{\"op\": \"scan\", \"path\": \"" + tree.string() +
          "\", \"format\": \"sarif\"}");
  const auto sarif_json = jsonlite::parse(sarif);
  ASSERT_TRUE(sarif_json.has_value());
  ASSERT_NE(sarif_json->find("sarif"), nullptr);
  EXPECT_NE(sarif_json->find("sarif")->find("runs"), nullptr);

  const std::string status = roundtrip(socket_path(), "{\"op\": \"status\"}");
  const auto status_json = jsonlite::parse(status);
  ASSERT_TRUE(status_json.has_value()) << status;
  const jsonlite::Value* counters = status_json->find("counters");
  ASSERT_NE(counters, nullptr);
  const jsonlite::Value* requests = counters->find("scand.requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_GE(requests->number(), 3.0);
  const jsonlite::Value* gauges = status_json->find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_NE(gauges->find("scand.verdict_cache.hits"), nullptr);

  const std::string bye = roundtrip(socket_path(), "{\"op\": \"shutdown\"}");
  EXPECT_NE(bye.find("\"stopping\": true"), std::string::npos);
  runner.join();
  service.stop();
}

TEST_F(ServerTest, ObservabilityOps) {
  telemetry::Telemetry telemetry;
  ServiceOptions options = base_options();
  options.telemetry = &telemetry;
  options.scan.telemetry = &telemetry;
  ScanService service(options);
  ASSERT_TRUE(service.start());
  ScanServer server(service, ServerOptions{socket_path()});

  // ping / status identify the daemon: engine version, pid, uptime.
  const auto pong = jsonlite::parse(server.handle_request("{\"op\":\"ping\"}"));
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->find("version")->str(), std::string(core::kEngineVersion));
  EXPECT_DOUBLE_EQ(pong->find("pid")->number(),
                   static_cast<double>(::getpid()));
  EXPECT_GE(pong->find("uptime_s")->number(), 0.0);
  const auto status =
      jsonlite::parse(server.handle_request("{\"op\":\"status\"}"));
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->find("version")->str(), std::string(core::kEngineVersion));

  // A scan with a client trace ID: echoed in the envelope and stamped
  // into the report.
  const fs::path tree = dir_ / "webapp";
  fs::create_directories(tree);
  std::ofstream(tree / "upload.php")
      << "<?php\n"
         "move_uploaded_file($_FILES['f']['tmp_name'], "
         "'/u/' . $_FILES['f']['name']);\n";
  const auto scanned = jsonlite::parse(server.handle_request(
      "{\"op\": \"scan\", \"path\": \"" + tree.string() +
      "\", \"trace_id\": \"beefbeefbeefbeef\"}"));
  ASSERT_TRUE(scanned.has_value());
  EXPECT_EQ(scanned->find("trace_id")->str(), "beefbeefbeefbeef");
  EXPECT_EQ(scanned->find("report")->find("trace_id")->str(),
            "beefbeefbeefbeef");

  // metrics: a Prometheus exposition in the JSON envelope, carrying the
  // scan's series and its trace-ID exemplar.
  const auto metrics =
      jsonlite::parse(server.handle_request("{\"op\":\"metrics\"}"));
  ASSERT_TRUE(metrics.has_value());
  ASSERT_NE(metrics->find("metrics"), nullptr);
  const std::string exposition = metrics->find("metrics")->str();
  EXPECT_NE(exposition.find("# TYPE uchecker_scand_requests_total counter"),
            std::string::npos)
      << exposition;
  EXPECT_NE(exposition.find("uchecker_engine_info{version=\"" +
                            std::string(core::kEngineVersion) + "\"} 1"),
            std::string::npos);
  EXPECT_NE(exposition.find("trace_id=\"beefbeefbeefbeef\""),
            std::string::npos);
  EXPECT_NE(exposition.find("uchecker_process_uptime_seconds"),
            std::string::npos);

  // top: the scan shows up as the most expensive recent request.
  const auto top =
      jsonlite::parse(server.handle_request("{\"op\": \"top\", \"n\": 5}"));
  ASSERT_TRUE(top.has_value());
  const jsonlite::Value* requests = top->find("requests");
  ASSERT_NE(requests, nullptr);
  ASSERT_TRUE(requests->is_array());
  ASSERT_GE(requests->items().size(), 1u);
  const jsonlite::Value& first = requests->items()[0];
  EXPECT_EQ(first.find("trace_id")->str(), "beefbeefbeefbeef");
  EXPECT_GT(first.find("total_ms")->number(), 0.0);
  EXPECT_EQ(first.find("top_root")->str(), "upload.php");
  service.stop();
}

// ---------------------------------------------------------------------------
// The daemon binaries: scand started as a child process, driven over its
// socket, killed with SIGKILL and restarted on the same state dir.

// Starts `args` with stdout and stderr appended to `output`; -1 on failure.
pid_t spawn(const std::vector<std::string>& args, const fs::path& output) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, output.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  std::vector<char*> argv;
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc =
      ::posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  return rc == 0 ? pid : -1;
}

// The child's exit status; -1 when it died of a signal.
int wait_exit(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

class ScandProcess : public ServerTest {
 protected:
  void TearDown() override {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      (void)wait_exit(pid_);
    }
    ServerTest::TearDown();
  }

  // Starts scand on state_dir(), with `flags` appended, and waits until
  // it answers ping.
  void start_daemon(const std::vector<std::string>& flags = {}) {
    std::vector<std::string> args = {
        UCHECKER_SCAND, "--socket",  socket_path(), "--state-dir",
        state_dir(),    "--workers", "1",           "--request-timeout-ms",
        "120000"};
    args.insert(args.end(), flags.begin(), flags.end());
    pid_ = spawn(args, dir_ / "scand.out");
    ASSERT_GT(pid_, 0);
    for (int i = 0; i < 600; ++i) {
      if (request("{\"op\": \"ping\"}").find("\"pong\": true") !=
          std::string::npos) {
        return;
      }
      std::this_thread::sleep_for(100ms);
    }
    FAIL() << "scand did not answer ping";
  }

  [[nodiscard]] std::string request(const std::string& line) const {
    return roundtrip(socket_path(), line);
  }

  [[nodiscard]] static std::string scan_request(const fs::path& app) {
    return "{\"op\": \"scan\", \"path\": " + strutil::quote(app.string()) +
           "}";
  }

  // The report bytes of a scan response: its last member, as served.
  [[nodiscard]] static std::string report_bytes(const std::string& response) {
    const std::string key = ", \"report\": ";
    const std::size_t at = response.find(key);
    if (at == std::string::npos) return "";
    return response.substr(at + key.size(),
                           response.size() - at - key.size() - 1);
  }

  // The number at `path` in a fresh status response; -1 when absent.
  [[nodiscard]] double status_value(
      std::initializer_list<const char*> path) const {
    const auto status = jsonlite::parse(request("{\"op\": \"status\"}"));
    const jsonlite::Value* value = status ? &*status : nullptr;
    for (const char* key : path) {
      if (value != nullptr) value = value->find(key);
    }
    return value != nullptr ? value->number() : -1;
  }

  pid_t pid_ = -1;
};

TEST_F(ScandProcess, CorpusSweepWarmReplayAndKillRecovery) {
  // Every Table III app, as the corpus_dump fixture writes it, plus a
  // ladder that exhausts the path budget: its report is degraded, so the
  // daemon never caches it.
  std::vector<fs::path> apps;
  for (const auto& entry : fs::directory_iterator(UCHECKER_CORPUS_DUMP)) {
    if (entry.is_directory()) apps.push_back(entry.path());
  }
  std::sort(apps.begin(), apps.end());
  ASSERT_EQ(apps.size(), corpus::full_corpus().size())
      << "the corpus_dump fixture has not run";
  corpus::SynthSpec ladder;
  ladder.name = "ladder";
  ladder.sequential_ifs = 17;
  ladder.arms_reach_sink = true;
  ladder.filler_loc = 0;
  ladder.filler_files = 0;
  const fs::path ladder_dir = dir_ / "ladder";
  for (const core::AppFile& file : corpus::synth_app(ladder).files) {
    fs::create_directories((ladder_dir / file.name).parent_path());
    std::ofstream(ladder_dir / file.name, std::ios::binary) << file.content;
  }
  apps.push_back(ladder_dir);

  ASSERT_NO_FATAL_FAILURE(start_daemon());

  // Cold: the daemon agrees with an in-process Detector on every app.
  struct Cold {
    std::string verdict;
    std::string report;
    bool degraded = false;
  };
  std::map<fs::path, Cold> cold;
  const core::Detector detector;
  for (const fs::path& app : apps) {
    const std::string response = request(scan_request(app));
    const auto parsed = jsonlite::parse(response);
    ASSERT_TRUE(parsed.has_value()) << app << ": " << response;
    ASSERT_EQ(parsed->find("status")->str(), "ok") << response;
    EXPECT_FALSE(parsed->find("cached")->boolean()) << app;
    std::string error;
    const auto loaded = core::load_application(app.string(), error);
    ASSERT_TRUE(loaded.has_value()) << error;
    const core::ScanReport direct = detector.scan(*loaded);
    EXPECT_EQ(parsed->find("verdict")->str(),
              std::string(core::verdict_slug(direct.verdict)))
        << app;
    const std::string report = report_bytes(response);
    const auto decoded = core::report_from_json(report);
    ASSERT_TRUE(decoded.has_value()) << response;
    ASSERT_EQ(decoded->findings.size(), direct.findings.size()) << app;
    for (std::size_t i = 0; i < direct.findings.size(); ++i) {
      EXPECT_EQ(decoded->findings[i].fingerprint,
                direct.findings[i].fingerprint)
          << app;
    }
    cold[app] = {parsed->find("verdict")->str(), report, decoded->degraded()};
  }
  EXPECT_TRUE(cold[ladder_dir].degraded);

  // Warm: every clean report replays byte-identically from the verdict
  // cache; a degraded one is scanned again, to the same verdict.
  double replays = 0;
  fs::path cached_app;
  for (const fs::path& app : apps) {
    const std::string response = request(scan_request(app));
    const auto parsed = jsonlite::parse(response);
    ASSERT_TRUE(parsed.has_value()) << app << ": " << response;
    EXPECT_EQ(parsed->find("verdict")->str(), cold[app].verdict) << app;
    if (cold[app].degraded) {
      EXPECT_FALSE(parsed->find("cached")->boolean()) << app;
      continue;
    }
    EXPECT_TRUE(parsed->find("cached")->boolean()) << app;
    EXPECT_EQ(report_bytes(response), cold[app].report) << app;
    ++replays;
    cached_app = app;
  }
  ASSERT_GT(replays, 0);
  EXPECT_GE(status_value({"gauges", "scand.verdict_cache.hits"}), replays);

  // SIGKILL mid-scan. With one worker, the ladder request is being
  // analysed once the request counter has moved and the queue is empty;
  // its scan takes far longer than the kill.
  const double requests = status_value({"counters", "scand.requests"});
  std::string killed = "unanswered";
  std::thread client(
      [&] { killed = roundtrip(socket_path(), scan_request(ladder_dir)); });
  bool picked_up = false;
  for (int i = 0; i < 2000 && !picked_up; ++i) {
    picked_up = status_value({"counters", "scand.requests"}) > requests &&
                status_value({"queue_depth"}) == 0;
    std::this_thread::sleep_for(1ms);
  }
  ::kill(pid_, SIGKILL);
  EXPECT_EQ(wait_exit(pid_), -1);
  client.join();
  EXPECT_TRUE(picked_up);
  EXPECT_EQ(killed, "") << "the scan finished before the kill";

  // Restarted on the same state dir, the daemon serves the cached report
  // from its durable store.
  const fs::path trace = dir_ / "trace.json";
  const fs::path log = dir_ / "scand.jsonl";
  ASSERT_NO_FATAL_FAILURE(start_daemon(
      {"--trace-out", trace.string(), "--log-file", log.string()}));
  EXPECT_EQ(status_value({"gauges", "scand.verdict_cache.cold_start"}), 0);
  const std::string recovered = request(scan_request(cached_app));
  const auto parsed = jsonlite::parse(recovered);
  ASSERT_TRUE(parsed.has_value()) << recovered;
  EXPECT_TRUE(parsed->find("cached")->boolean());
  EXPECT_EQ(report_bytes(recovered), cold[cached_app].report);

  // scanctl exits 1 on a vulnerable app.
  const auto vulnerable =
      std::find_if(apps.begin(), apps.end(), [&](const fs::path& app) {
        return cold[app].verdict == "vulnerable";
      });
  ASSERT_NE(vulnerable, apps.end());
  const pid_t ctl = spawn({UCHECKER_SCANCTL, "--socket", socket_path(),
                           "scan", vulnerable->string()},
                          dir_ / "scanctl.out");
  ASSERT_GT(ctl, 0);
  EXPECT_EQ(wait_exit(ctl), 1);

  // SIGTERM drains: exit 0, the worker's flight dump, a Chrome trace
  // that parses, and a log of one JSON object per line.
  ::kill(pid_, SIGTERM);
  EXPECT_EQ(wait_exit(pid_), 0);
  pid_ = -1;
  expect_drain_dumps(state_dir(), 1);
  std::ifstream trace_in(trace);
  std::ostringstream trace_text;
  trace_text << trace_in.rdbuf();
  const auto chrome = jsonlite::parse(trace_text.str());
  ASSERT_TRUE(chrome.has_value()) << trace_text.str();
  EXPECT_NE(chrome->find("traceEvents"), nullptr);
  std::ifstream log_in(log);
  std::size_t lines = 0;
  for (std::string line; std::getline(log_in, line); ++lines) {
    const auto entry = jsonlite::parse(line);
    ASSERT_TRUE(entry.has_value() && entry->find("event") != nullptr) << line;
  }
  EXPECT_GT(lines, 0u);
}

}  // namespace
}  // namespace uchecker::service
