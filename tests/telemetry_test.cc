// Telemetry subsystem tests: span nesting, histogram bucket semantics,
// registry thread-safety under scan_many, Chrome trace export (golden
// format check) and end-to-end phase coverage on a real scan.
#include "support/telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include "core/detector/detector.h"
#include "core/detector/scan_many.h"
#include "corpus/corpus.h"
#include "support/jsonlite.h"
#include "support/scan_events.h"
#include "support/trace_export.h"

namespace uchecker::telemetry {
namespace {

using core::Application;
using core::AppFile;
using core::Detector;
using core::ScanOptions;
using core::ScanReport;
using core::Verdict;

// --- spans ----------------------------------------------------------------

TEST(ScanTrace, SpanNesting) {
  Telemetry telemetry;
  ScanTrace& trace = telemetry.begin_scan("app");
  const SpanId outer = trace.begin_span("scan", "app");
  const SpanId inner = trace.begin_span("parse");
  const SpanId leaf = trace.begin_span("parse.file", "a.php");
  trace.end_span(leaf);
  trace.end_span(inner);
  const SpanId sibling = trace.begin_span("locality");
  trace.end_span(sibling);
  trace.end_span(outer);

  ASSERT_EQ(trace.spans().size(), 4u);
  EXPECT_EQ(trace.spans()[0].parent, kNoSpan);
  EXPECT_EQ(trace.spans()[1].parent, outer);
  EXPECT_EQ(trace.spans()[2].parent, inner);
  EXPECT_EQ(trace.spans()[3].parent, outer);
  for (const Span& s : trace.spans()) EXPECT_FALSE(s.open);
  EXPECT_EQ(trace.spans()[2].detail, "a.php");
}

TEST(ScanTrace, EndSpanClosesOpenDescendants) {
  Telemetry telemetry;
  ScanTrace& trace = telemetry.begin_scan("app");
  const SpanId outer = trace.begin_span("scan");
  trace.begin_span("interp");
  trace.begin_span("translate");
  trace.end_span(outer);  // closes translate and interp too
  for (const Span& s : trace.spans()) EXPECT_FALSE(s.open);
}

TEST(ScanEvents, PhaseScopeIsNoopOnNullHook) {
  // The unattached fast path: must not crash, must not record anything.
  { const PhaseScope scope(nullptr, "parse", "x"); }
  const ScanEvents detached(nullptr, nullptr, nullptr, /*profile=*/false);
  EXPECT_FALSE(detached.attached());
}

TEST(ScanTrace, TimestampsAreMonotonic) {
  Telemetry telemetry;
  ScanTrace& trace = telemetry.begin_scan("app");
  const SpanId a = trace.begin_span("a");
  trace.end_span(a);
  const SpanId b = trace.begin_span("b");
  trace.end_span(b);
  EXPECT_LE(trace.spans()[0].start_us, trace.spans()[1].start_us);
}

TEST(ScanTrace, ProgressSamplesAreBounded) {
  Telemetry telemetry;
  ScanTrace& trace = telemetry.begin_scan("app");
  for (std::uint64_t i = 0; i < 100000; ++i) {
    trace.sample_progress(i, i * 2, i * 64);
  }
  // Decimation must keep the trace bounded no matter how hot the loop.
  EXPECT_LE(trace.progress().size(), 4096u);
  EXPECT_GE(trace.progress().size(), 1024u);
}

// --- histograms -----------------------------------------------------------

TEST(Histogram, InclusiveUpperBoundBuckets) {
  Histogram h({1.0, 2.0, 5.0});
  h.observe(1.0);   // == bound -> first bucket (Prometheus "le")
  h.observe(1.5);   // second bucket
  h.observe(2.0);   // second bucket, inclusive
  h.observe(5.0);   // third bucket
  h.observe(100.0); // overflow
  const std::vector<std::uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 109.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(Histogram, EmptyIsAllZero) {
  Histogram h({1.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, QuantilesBracketTheData) {
  Histogram h(MetricsRegistry::default_latency_buckets_ms());
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  const double p50 = h.quantile(0.5);
  const double p99 = h.quantile(0.99);
  EXPECT_GT(p50, 10.0);
  EXPECT_LE(p50, 100.0);
  EXPECT_GE(p99, p50);
  EXPECT_LE(p99, 250.0);  // within one bucket of the true value
}

TEST(Histogram, OverflowQuantileReportsMax) {
  Histogram h({1.0});
  h.observe(70000.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 70000.0);
}

// --- registry -------------------------------------------------------------

TEST(MetricsRegistry, ReferencesAreStable) {
  MetricsRegistry m;
  Counter& c = m.counter("a");
  for (int i = 0; i < 100; ++i) m.counter("pad." + std::to_string(i));
  c.add(3);
  EXPECT_EQ(m.counter("a").value(), 3u);
  EXPECT_EQ(&m.counter("a"), &c);
}

TEST(MetricsRegistry, ConcurrentMixedAccessIsExact) {
  MetricsRegistry m;
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&m] {
      for (int i = 0; i < kIters; ++i) {
        m.counter("shared").add(1);
        m.histogram("lat").observe(static_cast<double>(i % 97));
        m.gauge("g").set(static_cast<double>(i));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(m.counter("shared").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(m.histogram("lat").count(),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(MetricsRegistry, ThreadSafeUnderScanMany) {
  std::vector<Application> apps;
  for (int i = 0; i < 8; ++i) {
    corpus::SynthSpec spec;
    spec.name = "fleet-" + std::to_string(i);
    spec.sequential_ifs = 1 + (i % 3);
    spec.vulnerable = (i % 2) == 0;
    apps.push_back(corpus::synth_app(spec));
  }

  Telemetry telemetry;
  ScanOptions options;
  options.telemetry = &telemetry;
  const Detector detector(options);
  const std::vector<ScanReport> reports =
      core::scan_many(detector, apps, 4);

  ASSERT_EQ(reports.size(), apps.size());
  EXPECT_EQ(telemetry.metrics().counter("scan.count").value(), apps.size());
  EXPECT_EQ(telemetry.metrics().histogram("scan.seconds_ms").count(),
            apps.size());
  EXPECT_EQ(telemetry.traces().size(), apps.size());
  // Every trace got a distinct tid and a complete, closed span tree.
  std::set<std::uint32_t> tids;
  for (const ScanTrace* t : telemetry.traces()) {
    tids.insert(t->tid());
    ASSERT_FALSE(t->spans().empty());
    EXPECT_EQ(t->spans()[0].name, "scan");
    for (const Span& s : t->spans()) EXPECT_FALSE(s.open);
  }
  EXPECT_EQ(tids.size(), apps.size());
}

// --- fleet aggregation ----------------------------------------------------

TEST(Telemetry, FleetPhaseStatsPipelineOrderFirst) {
  Telemetry telemetry;
  ScanTrace& trace = telemetry.begin_scan("app");
  for (const char* name : {"zeta", "solve", "parse", "scan"}) {
    trace.end_span(trace.begin_span(name));
  }
  const std::vector<PhaseStats> stats = telemetry.fleet_phase_stats();
  ASSERT_EQ(stats.size(), 4u);
  EXPECT_EQ(stats[0].phase, "scan");
  EXPECT_EQ(stats[1].phase, "parse");
  EXPECT_EQ(stats[2].phase, "solve");
  EXPECT_EQ(stats[3].phase, "zeta");
  for (const PhaseStats& s : stats) {
    EXPECT_EQ(s.count, 1u);
    EXPECT_GE(s.p95_ms, s.p50_ms);
    EXPECT_GE(s.p99_ms, s.p95_ms);
    EXPECT_GE(s.max_ms, s.p99_ms);
  }
}

TEST(Telemetry, ProgressSinkReceivesLines) {
  Telemetry telemetry;
  telemetry.emit_progress("{\"dropped\": true}");  // no sink yet: no-op
  std::vector<std::string> lines;
  telemetry.set_progress_sink(
      [&lines](const std::string& l) { lines.push_back(l); });
  telemetry.emit_progress("{\"event\": \"app_done\"}");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "{\"event\": \"app_done\"}");
}

// --- export ---------------------------------------------------------------

TEST(TraceExport, GoldenChromeTraceFormat) {
  Telemetry telemetry;
  ScanTrace& trace = telemetry.begin_scan("golden");
  const SpanId scan = trace.begin_span("scan", "golden");
  const SpanId parse = trace.begin_span("parse");
  trace.end_span(parse);
  trace.end_span(scan);
  trace.sample_progress(2, 10, 256);
  trace.record_solver_call(5, 1, 0, false, "sat");
  trace.record_event("deadline_exceeded", "during parse");

  ChromeTraceOptions options;
  options.zero_times = true;
  const std::string json = to_chrome_trace_json(telemetry, options);
  const std::string expected =
      "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
      "  {\"name\": \"thread_name\", \"cat\": \"__metadata\", \"ph\": \"M\", "
      "\"ts\": 0, \"pid\": 1, \"tid\": 1, \"args\": {\"name\": "
      "\"golden\"}},\n"
      "  {\"name\": \"scan\", \"cat\": \"phase\", \"ph\": \"X\", \"ts\": 0, "
      "\"pid\": 1, \"tid\": 1, \"dur\": 0, \"args\": {\"detail\": "
      "\"golden\"}},\n"
      "  {\"name\": \"parse\", \"cat\": \"phase\", \"ph\": \"X\", \"ts\": 0, "
      "\"pid\": 1, \"tid\": 1, \"dur\": 0, \"args\": {\"detail\": \"\"}},\n"
      "  {\"name\": \"interp.progress\", \"cat\": \"sample\", \"ph\": \"C\", "
      "\"ts\": 0, \"pid\": 1, \"tid\": 1, \"args\": {\"live_paths\": 2, "
      "\"objects\": 10, \"heap_bytes\": 256}},\n"
      "  {\"name\": \"solver.check\", \"cat\": \"solver\", \"ph\": \"X\", "
      "\"ts\": 0, \"pid\": 1, \"tid\": 1, \"dur\": 0, \"args\": "
      "{\"attempts\": 1, \"escalations\": 0, \"deadline_exceeded\": false, "
      "\"result\": \"sat\"}},\n"
      "  {\"name\": \"deadline_exceeded\", \"cat\": \"event\", \"ph\": \"i\", "
      "\"ts\": 0, \"pid\": 1, \"tid\": 1, \"s\": \"t\", \"args\": "
      "{\"detail\": \"during parse\"}}\n"
      "]}";
  EXPECT_EQ(json, expected);
  EXPECT_TRUE(jsonlite::valid(json));
}

TEST(TraceExport, MetricsJsonIsValid) {
  Telemetry telemetry;
  telemetry.metrics().counter("scan.count").add(2);
  telemetry.metrics().gauge("load").set(0.5);
  telemetry.metrics().histogram("scan.seconds_ms").observe(12.0);
  ScanTrace& trace = telemetry.begin_scan("app");
  trace.end_span(trace.begin_span("parse"));
  const std::string json = metrics_to_json(telemetry);
  EXPECT_TRUE(jsonlite::valid(json)) << json;
  EXPECT_NE(json.find("\"scan.count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"le\": \"inf\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\": \"parse\""), std::string::npos);
}

TEST(TraceExport, EmptyTelemetryIsValidJson) {
  const Telemetry telemetry;
  EXPECT_TRUE(jsonlite::valid(to_chrome_trace_json(telemetry)));
  EXPECT_TRUE(jsonlite::valid(metrics_to_json(telemetry)));
}

// --- end to end -----------------------------------------------------------

TEST(TelemetryEndToEnd, AllFivePhasesTracedOnVulnerableApp) {
  Application app;
  app.name = "upload-app";
  app.files.push_back(AppFile{
      "handler.php",
      "<?php\nmove_uploaded_file($_FILES['f']['tmp_name'], '/u/' . "
      "$_FILES['f']['name']);"});

  Telemetry telemetry;
  ScanOptions options;
  options.telemetry = &telemetry;
  const ScanReport report = Detector(options).scan(app);
  ASSERT_EQ(report.verdict, Verdict::kVulnerable);

  ASSERT_EQ(telemetry.traces().size(), 1u);
  const ScanTrace& trace = *telemetry.traces()[0];
  std::set<std::string> names;
  for (const Span& s : trace.spans()) names.insert(s.name);
  for (const char* phase :
       {"scan", "parse", "parse.file", "locality", "root", "interp",
        "translate", "solve"}) {
    EXPECT_TRUE(names.count(phase)) << "missing span: " << phase;
  }

  // Per-root child structure: interp/translate/solve hang under "root",
  // which hangs under "scan".
  const auto find_span = [&trace](std::string_view name) -> const Span& {
    const auto it =
        std::find_if(trace.spans().begin(), trace.spans().end(),
                     [name](const Span& s) { return s.name == name; });
    EXPECT_NE(it, trace.spans().end());
    return *it;
  };
  const Span& scan_span = find_span("scan");
  const Span& root_span = find_span("root");
  const Span& interp_span = find_span("interp");
  EXPECT_EQ(scan_span.parent, kNoSpan);
  EXPECT_EQ(root_span.parent, scan_span.id);
  EXPECT_EQ(interp_span.parent, root_span.id);
  for (const Span& s : trace.spans()) EXPECT_FALSE(s.open);

  // Solver instrumentation fired and the fleet view sees every phase.
  ASSERT_FALSE(trace.solver_calls().empty());
  EXPECT_EQ(trace.solver_calls().back().result, "sat");
  EXPECT_GE(telemetry.metrics().counter("solver.checks").value(), 1u);
  EXPECT_EQ(telemetry.metrics().counter("scan.count").value(), 1u);
  std::set<std::string> phases;
  for (const PhaseStats& s : telemetry.fleet_phase_stats()) {
    phases.insert(s.phase);
  }
  for (const char* phase : {"scan", "parse", "locality", "interp",
                            "translate", "solve"}) {
    EXPECT_TRUE(phases.count(phase)) << "missing phase stats: " << phase;
  }

  // The whole trace exports to valid Chrome trace JSON.
  EXPECT_TRUE(jsonlite::valid(to_chrome_trace_json(telemetry)));
}

TEST(TelemetryEndToEnd, UnattachedScanRecordsNothing) {
  Application app;
  app.name = "plain";
  app.files.push_back(AppFile{"a.php", "<?php\necho 'hi';"});
  Telemetry telemetry;  // exists but NOT attached to options
  const ScanReport report = Detector().scan(app);
  EXPECT_EQ(report.verdict, Verdict::kNotVulnerable);
  EXPECT_TRUE(telemetry.traces().empty());
  EXPECT_TRUE(telemetry.metrics().counters().empty());
}

}  // namespace
}  // namespace uchecker::telemetry
