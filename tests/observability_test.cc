// Tests for the observability layer: structured JSON-lines logging,
// the per-worker flight recorder, the Prometheus text exposition, the
// scan event hook that feeds every per-scan consumer, and the
// concurrency contracts that back live export (trace snapshots and
// metrics reads racing a running scan — run under TSan by
// ci/sanitize.sh --tsan).
//
// The histogram tests double as the regression suite for the bucket
// boundary bug: the JSON export and the Prometheus exposition must
// agree on boundary-exact samples, and the final bucket (+Inf / "inf")
// must always equal the total count on both surfaces.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/detector/detector.h"
#include "corpus/corpus.h"
#include "service/scan_service.h"
#include "support/flight_recorder.h"
#include "support/jsonlite.h"
#include "support/logging.h"
#include "support/prom_export.h"
#include "support/telemetry.h"
#include "support/trace_export.h"

namespace uchecker {
namespace {

// ---------------------------------------------------------------------------
// Logging

class CaptureLog {
 public:
  explicit CaptureLog(logging::Logger& logger) {
    logger.set_sink([this](const std::string& line) { lines_.push_back(line); });
  }
  [[nodiscard]] const std::vector<std::string>& lines() const { return lines_; }

 private:
  std::vector<std::string> lines_;
};

TEST(LoggingTest, EveryLineIsOneValidJsonObject) {
  logging::Logger logger;
  CaptureLog capture(logger);
  logger.info("request_done", "a1b2c3d4e5f60718",
              {{"app", "webapp"},
               {"total_ms", 46.25},
               {"cached", false},
               {"solver_calls", std::uint64_t{3}}});
  logger.warn("watchdog_cancel", {}, {{"quote\"key", "va\"lue\n"}});

  ASSERT_EQ(capture.lines().size(), 2u);
  for (const std::string& line : capture.lines()) {
    EXPECT_EQ(line.find('\n'), std::string::npos) << line;
    const auto parsed = jsonlite::parse(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    ASSERT_TRUE(parsed->is_object()) << line;
    ASSERT_NE(parsed->find("ts"), nullptr);
    ASSERT_NE(parsed->find("level"), nullptr);
    ASSERT_NE(parsed->find("event"), nullptr);
    // ts leads the line so `sort` on raw log files is chronological.
    EXPECT_EQ(line.rfind("{\"ts\": ", 0), 0u) << line;
  }

  const auto first = jsonlite::parse(capture.lines()[0]);
  EXPECT_EQ(first->find("level")->str(), "info");
  EXPECT_EQ(first->find("event")->str(), "request_done");
  EXPECT_EQ(first->find("trace_id")->str(), "a1b2c3d4e5f60718");
  EXPECT_EQ(first->find("app")->str(), "webapp");
  EXPECT_DOUBLE_EQ(first->find("total_ms")->number(), 46.25);
  EXPECT_FALSE(first->find("cached")->boolean());
  EXPECT_DOUBLE_EQ(first->find("solver_calls")->number(), 3.0);

  // No trace ID -> the key is omitted, not emitted empty.
  const auto second = jsonlite::parse(capture.lines()[1]);
  EXPECT_EQ(second->find("trace_id"), nullptr);
  EXPECT_EQ(second->find("quote\"key")->str(), "va\"lue\n");
}

TEST(LoggingTest, MinLevelFiltersCheaply) {
  logging::Logger logger;
  CaptureLog capture(logger);
  logger.debug("noisy");  // below default kInfo
  EXPECT_TRUE(capture.lines().empty());
  EXPECT_EQ(logger.emitted(), 0u);

  logger.set_min_level(logging::Level::kDebug);
  logger.debug("noisy");
  EXPECT_EQ(capture.lines().size(), 1u);

  logger.set_min_level(logging::Level::kError);
  logger.warn("ignored");
  logger.error("kept");
  ASSERT_EQ(capture.lines().size(), 2u);
  EXPECT_NE(capture.lines()[1].find("\"kept\""), std::string::npos);
}

TEST(LoggingTest, RateLimitSuppressesAndReports) {
  logging::LoggerOptions options;
  options.rate_limit_per_sec = 3;
  logging::Logger logger(options);
  CaptureLog capture(logger);
  for (int i = 0; i < 10; ++i) logger.info("hot_event");
  // 3 emitted in this window, 7 suppressed (reported on a later emit).
  EXPECT_EQ(capture.lines().size(), 3u);
  EXPECT_EQ(logger.emitted(), 3u);
  EXPECT_EQ(logger.suppressed(), 7u);
  // A different event key is not throttled by hot_event's budget.
  logger.info("other_event");
  EXPECT_EQ(capture.lines().size(), 4u);
}

TEST(LoggingTest, ParseLevelRoundTrips) {
  for (const logging::Level level :
       {logging::Level::kDebug, logging::Level::kInfo, logging::Level::kWarn,
        logging::Level::kError}) {
    logging::Level parsed = logging::Level::kInfo;
    ASSERT_TRUE(logging::parse_level(logging::level_name(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
  logging::Level ignored = logging::Level::kInfo;
  EXPECT_FALSE(logging::parse_level("loud", &ignored));
}

// ---------------------------------------------------------------------------
// Flight recorder

TEST(FlightRecorderTest, RecordsInOrderAndOverwritesOldest) {
  telemetry::FlightRecorder rec(16);
  EXPECT_EQ(rec.capacity(), 16u);
  for (int i = 0; i < 40; ++i) {
    rec.record(telemetry::FlightKind::kEvent, "e" + std::to_string(i),
               static_cast<std::uint64_t>(i));
  }
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 16u);
  // The newest 16 survive, oldest first.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 24 + i);
    EXPECT_EQ(events[i].detail, "e" + std::to_string(24 + i));
    if (i > 0) {
      EXPECT_LT(events[i - 1].index, events[i].index);
    }
  }
  EXPECT_EQ(rec.total_recorded(), 40u);

  const auto parsed = jsonlite::parse(rec.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->find("total_recorded")->number(), 40.0);
  EXPECT_DOUBLE_EQ(parsed->find("dropped")->number(), 24.0);
}

TEST(FlightRecorderTest, TruncatesLongDetail) {
  telemetry::FlightRecorder rec(16);
  const std::string long_detail(200, 'x');
  rec.record(telemetry::FlightKind::kEvent, long_detail);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].detail,
            std::string(telemetry::FlightRecorder::kDetailBytes, 'x'));
}

TEST(FlightRecorderTest, NamesWedgedPhaseAndLastProgress) {
  telemetry::FlightRecorder rec(64);
  rec.record(telemetry::FlightKind::kPhaseBegin, "scan");
  rec.record(telemetry::FlightKind::kPhaseBegin, "parse");
  rec.record(telemetry::FlightKind::kPhaseEnd, "parse");
  rec.record(telemetry::FlightKind::kPhaseBegin, "interp");
  rec.record(telemetry::FlightKind::kProgress, "", 7, 123);
  rec.record(telemetry::FlightKind::kProgress, "", 9, 456);
  EXPECT_EQ(rec.wedged_phase(), "interp");

  const auto parsed = jsonlite::parse(rec.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("wedged_phase")->str(), "interp");
  const jsonlite::Value* progress = parsed->find("last_progress");
  ASSERT_NE(progress, nullptr);
  EXPECT_DOUBLE_EQ(progress->find("live_paths")->number(), 9.0);
  EXPECT_DOUBLE_EQ(progress->find("objects")->number(), 456.0);

  // Closing everything clears the wedge.
  rec.record(telemetry::FlightKind::kPhaseEnd, "interp");
  rec.record(telemetry::FlightKind::kPhaseEnd, "scan");
  EXPECT_EQ(rec.wedged_phase(), "");
  const auto done = jsonlite::parse(rec.to_json());
  EXPECT_TRUE(done->find("wedged_phase")->is_null());
}

// The snapshot path must tolerate a racing writer (the watchdog dumps a
// recorder while the wedged scan keeps writing to it). TSan-checked.
TEST(FlightRecorderTest, SnapshotRacesWriterSafely) {
  telemetry::FlightRecorder rec(64);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      rec.record(telemetry::FlightKind::kProgress, "progress-detail", i, i * 2);
      ++i;
    }
  });
  for (int i = 0; i < 200; ++i) {
    const auto events = rec.snapshot();
    // Every surviving event is internally consistent (b == 2a, detail
    // intact): torn copies must have been discarded.
    for (const auto& ev : events) {
      EXPECT_EQ(ev.b, ev.a * 2);
      EXPECT_EQ(ev.detail, "progress-detail");
    }
    const auto parsed = jsonlite::parse(rec.to_json());
    EXPECT_TRUE(parsed.has_value());
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

// ---------------------------------------------------------------------------
// Scan event hook

// The flight ring is fed by the hook directly, so a scan that attaches
// only a ring (no Telemetry) still records its phases.
TEST(ScanEventsTest, FlightAloneRecordsTheScanPhase) {
  core::Application app;
  app.name = "upload";
  app.files.push_back(core::AppFile{
      "upload.php",
      "<?php\nmove_uploaded_file($_FILES['f']['tmp_name'], '/u/' . "
      "$_FILES['f']['name']);\n"});
  telemetry::FlightRecorder ring(1024);
  core::ScanOptions options;
  options.flight = &ring;
  const core::ScanReport report = core::Detector(options).scan(app);
  ASSERT_EQ(report.verdict, core::Verdict::kVulnerable);

  bool began = false;
  bool ended = false;
  for (const telemetry::FlightEvent& e : ring.snapshot()) {
    if (e.detail != "scan") continue;
    began |= e.kind == telemetry::FlightKind::kPhaseBegin;
    ended |= e.kind == telemetry::FlightKind::kPhaseEnd;
  }
  EXPECT_TRUE(began);
  EXPECT_TRUE(ended);
  EXPECT_EQ(ring.wedged_phase(), "");
}

// Every consumer attached at once: each solver query and each progress
// sample must reach each consumer exactly once.
TEST(ScanEventsTest, EachConsumerSeesEachEventOnce) {
  const corpus::CorpusEntry entry = corpus::known_vulnerable().front();
  telemetry::Telemetry telemetry;
  telemetry::FlightRecorder ring(1 << 16);
  core::ScanOptions options;
  options.telemetry = &telemetry;
  options.flight = &ring;
  options.profile = true;
  const core::ScanReport report = core::Detector(options).scan(entry.app);
  ASSERT_TRUE(report.vulnerable()) << entry.app.name;
  ASSERT_LE(ring.total_recorded(), ring.capacity()) << "ring overwrote events";

  std::uint64_t profile_queries = 0;
  std::uint64_t profile_samples = 0;
  for (const profile::RootProfile& root : report.profile.roots) {
    for (const profile::SolverSiteStats& site : root.solver) {
      profile_queries += site.queries;
    }
    profile_samples += root.samples.size();
  }
  std::uint64_t flight_solver_calls = 0;
  std::uint64_t flight_progress = 0;
  for (const telemetry::FlightEvent& e : ring.snapshot()) {
    flight_solver_calls += e.kind == telemetry::FlightKind::kSolverCall;
    flight_progress += e.kind == telemetry::FlightKind::kProgress;
  }
  ASSERT_EQ(telemetry.traces().size(), 1u);
  const std::uint64_t trace_solver_calls =
      telemetry.traces()[0]->solver_calls().size();

  EXPECT_GT(trace_solver_calls, 0u);
  EXPECT_EQ(profile_queries, trace_solver_calls);
  EXPECT_EQ(flight_solver_calls, trace_solver_calls);
  EXPECT_EQ(telemetry.metrics().counter("solver.checks").value(),
            trace_solver_calls);
  EXPECT_GT(flight_progress, 0u);
  EXPECT_EQ(flight_progress, profile_samples);
}

// ---------------------------------------------------------------------------
// Histogram boundary consistency (regression) + Prometheus exposition

TEST(PromExportTest, BoundaryExactSamplesAgreeAcrossSurfaces) {
  telemetry::Telemetry telemetry;
  telemetry::Histogram& h =
      telemetry.metrics().histogram("scan.ms", {1.0, 2.0, 4.0});
  // Boundary-exact samples: le convention puts each in its own bucket.
  h.observe(1.0);
  h.observe(2.0);
  h.observe(4.0);
  h.observe(8.0);  // overflow

  // Raw per-bucket counts stay non-cumulative (pinned by telemetry_test).
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{1, 1, 1, 1}));
  // Cumulative counts follow the le convention; last == count().
  EXPECT_EQ(h.cumulative_counts(), (std::vector<std::uint64_t>{1, 2, 3, 4}));

  // JSON export: buckets are the cumulative counts and "inf" == count.
  const auto metrics = jsonlite::parse(telemetry::metrics_to_json(telemetry));
  ASSERT_TRUE(metrics.has_value());
  const jsonlite::Value* hist = metrics->find("histograms")->find("scan.ms");
  ASSERT_NE(hist, nullptr);
  const jsonlite::Value* buckets = hist->find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->items().size(), 4u);
  const std::vector<double> expect_counts{1, 2, 3, 4};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(buckets->items()[i].find("count")->number(),
                     expect_counts[i])
        << i;
  }
  EXPECT_EQ(buckets->items()[3].find("le")->str(), "inf");
  EXPECT_DOUBLE_EQ(buckets->items()[3].find("count")->number(),
                   hist->find("count")->number());

  // Prometheus exposition: same cumulative numbers, +Inf == _count.
  const std::string prom = telemetry::to_prometheus_text(telemetry);
  EXPECT_NE(prom.find("uchecker_scan_ms_bucket{le=\"1\"} 1\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("uchecker_scan_ms_bucket{le=\"2\"} 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("uchecker_scan_ms_bucket{le=\"4\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("uchecker_scan_ms_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(prom.find("uchecker_scan_ms_count 4\n"), std::string::npos);
  EXPECT_NE(prom.find("uchecker_scan_ms_sum 15\n"), std::string::npos);
}

TEST(PromExportTest, RendersCountersGaugesAndMetadata) {
  telemetry::Telemetry telemetry;
  telemetry.metrics().counter("scand.requests").add(7);
  telemetry.metrics().gauge("scand.queue_depth").set(3.5);
  telemetry.metrics().set_exemplar("scand.requests", "feedfacecafebeef");

  telemetry::PromOptions options;
  options.engine_version = "uchecker-test";
  options.process_start =
      std::chrono::steady_clock::now() - std::chrono::seconds(5);
  const std::string prom = telemetry::to_prometheus_text(telemetry, options);

  // Counter: sanitized name + _total suffix + exemplar.
  EXPECT_NE(prom.find("# TYPE uchecker_scand_requests_total counter\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("uchecker_scand_requests_total 7 "
                      "# {trace_id=\"feedfacecafebeef\"} 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("uchecker_scand_queue_depth 3.5\n"), std::string::npos);
  EXPECT_NE(prom.find("uchecker_engine_info{version=\"uchecker-test\"} 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("uchecker_process_uptime_seconds"), std::string::npos);

  EXPECT_EQ(telemetry::prom_sanitize_name("scan.seconds_ms"),
            "uchecker_scan_seconds_ms");
  EXPECT_EQ(telemetry::prom_sanitize_name("weird-name: x"),
            "uchecker_weird_name__x");
}

TEST(PromExportTest, EmptyExemplarIsNeverStored) {
  telemetry::Telemetry telemetry;
  telemetry.metrics().counter("c").add(1);
  telemetry.metrics().set_exemplar("c", "");
  EXPECT_TRUE(telemetry.metrics().exemplars().empty());
  const std::string prom = telemetry::to_prometheus_text(telemetry);
  EXPECT_EQ(prom.find("trace_id"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Concurrent trace export (TSan-checked)

// Live exporters (the scand `metrics`/`status` ops, flight dumps) read
// traces while scans are still writing them. The snapshot()-based
// export must stay valid JSON and race-free throughout.
TEST(ConcurrentExportTest, ExportWhileScanWritesStaysValidJson) {
  telemetry::Telemetry telemetry;
  // Writers do a FIXED amount of work (the exporter is O(recorded
  // spans), so an unbounded writer racing a serial exporter would grow
  // without limit on a loaded single-core machine).
  constexpr int kWriterIters = 1500;
  std::atomic<int> active_writers{2};

  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&telemetry, &active_writers, w] {
      telemetry::ScanTrace& trace = telemetry.begin_scan(
          "app-" + std::to_string(w), "00000000000000a" + std::to_string(w));
      for (std::uint64_t i = 0; i < kWriterIters; ++i) {
        const telemetry::SpanId span = trace.begin_span("interp", "root.php");
        trace.sample_progress(i, i * 3, i * 100);
        trace.record_solver_call(12, 1, 0, false, "sat");
        trace.record_event("budget_tick", "detail");
        trace.end_span(span);
        telemetry.metrics().counter("scan.count").add(1);
        telemetry.metrics().histogram("scan.seconds_ms", {1, 10, 100}).observe(
            static_cast<double>(i % 200));
        telemetry.metrics().set_exemplar("scan.count",
                                         "00000000000000a" + std::to_string(w));
      }
      active_writers.fetch_sub(1, std::memory_order_release);
    });
  }

  // Export concurrently while the writers are still recording, then a
  // few more times after they finish.
  int post_writer_exports = 3;
  while (post_writer_exports > 0) {
    if (active_writers.load(std::memory_order_acquire) == 0) {
      --post_writer_exports;
    }
    const std::string trace_json = telemetry::to_chrome_trace_json(telemetry);
    const auto trace_parsed = jsonlite::parse(trace_json);
    ASSERT_TRUE(trace_parsed.has_value());
    ASSERT_NE(trace_parsed->find("traceEvents"), nullptr);

    const std::string metrics_json = telemetry::metrics_to_json(telemetry);
    ASSERT_TRUE(jsonlite::parse(metrics_json).has_value());

    const std::string prom = telemetry::to_prometheus_text(telemetry);
    EXPECT_FALSE(prom.empty());
  }
  for (std::thread& w : writers) w.join();

  // After completion the trace IDs are visible in the export args.
  const std::string final_json = telemetry::to_chrome_trace_json(telemetry);
  EXPECT_NE(final_json.find("00000000000000a0"), std::string::npos);
  EXPECT_NE(final_json.find("00000000000000a1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace-ID minting

TEST(TraceIdTest, MintedIdsAreHexAndDistinct) {
  std::set<std::string> seen;
  for (int i = 0; i < 64; ++i) {
    const std::string id = telemetry::mint_trace_id("hint");
    ASSERT_EQ(id.size(), 16u);
    for (const char c : id) {
      EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << id;
    }
    seen.insert(id);
  }
  EXPECT_EQ(seen.size(), 64u);
}

}  // namespace
}  // namespace uchecker
