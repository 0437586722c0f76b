// scan_directory: a uchecker command-line scanner for real PHP trees.
//
//   $ ./build/examples/scan_directory path/to/plugin [--all-findings]
//                                                    [--json]
//                                                    [--model-admin-gating]
//                                                    [--timeout-ms N]
//                                                    [--lint]
//                                                    [--no-summaries]
//                                                    [--crosscheck]
//                                                    [--fail-on-lint=SEV]
//                                                    [--trace-out=FILE]
//                                                    [--metrics-out=FILE]
//                                                    [--sarif-out=FILE]
//                                                    [--profile-out=FILE]
//                                                    [--explain]
//                                                    [--quiet | -v]
//
// Recursively collects *.php (and *.module) files under the given
// directory, runs the full UChecker pipeline, and prints a report
// (core::to_text by default, stable JSON with --json). This is the
// example to start from when embedding the library in CI.
//
// Observability: --trace-out writes the scan's span tree (all pipeline
// phases, per-root children, solver calls, interpreter progress samples)
// as Chrome trace-event JSON — load it in Perfetto or chrome://tracing.
// --metrics-out writes the metrics registry plus the per-phase latency
// breakdown as JSON. --quiet suppresses warnings and notes; -v logs
// them, and one app_done line per scan, to stderr as structured JSON
// (one object per line) instead of plain text.
//
// Introspection: --profile-out enables the path-explosion profiler and
// writes its JSON (support/profile.h schema) to FILE: per root, the
// fork sites ranked by paths spawned, solver attribution per sink, heap
// growth by fork depth, and — for a root that died of budget/deadline —
// a post-mortem naming the dominant loop. Verdicts are identical with
// or without it; the report itself differs only in its wall-clock
// fields (stats.seconds and the "cost" milliseconds).
//
// Triage: --explain attaches provenance to every finding — the
// source→sink taint path (each hop anchored to file:line), the path's
// branch guards, and the decoded attack (upload filename + resolved
// destination). Verdicts are identical with or without it. --sarif-out
// writes the report as SARIF 2.1.0 (findings as rule UC001 with
// codeFlows when --explain is also given; lints as UC101..UC106) for
// GitHub code scanning and other SARIF consumers.
//
// Static pass: --lint prints the pre-symbolic pass's structured lint
// findings (UC101..UC108) in the text report; --no-summaries disables
// the inter-procedural summary layer (verdicts are unchanged; only
// pruning and UC107/UC108 lints differ); --crosscheck runs both engines
// on every root, so the pass prunes nothing, and reports any
// disagreement (a soundness oracle for CI).
// --fail-on-lint=info|warning|error makes an otherwise-clean scan exit
// non-zero when a lint at or above the given severity fired.
//
// Degradation behaviour: unreadable files are reported and skipped (the
// scan continues on the rest), and --timeout-ms bounds the whole scan in
// wall-clock time. Exit codes: 0 clean, 1 vulnerable, 2 usage error,
// 3 the scan itself failed (Verdict::kAnalysisError), 4 the engines
// disagreed under --crosscheck, 5 --fail-on-lint tripped on an
// otherwise-clean scan. Per-file read failures alone never change the
// exit code. An unknown flag is a usage error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/detector/app_loader.h"
#include "core/detector/report_io.h"
#include "support/strutil.h"
#include "support/telemetry.h"
#include "support/trace_export.h"

using namespace uchecker::core;

namespace {

enum class Verbosity { kQuiet, kNormal, kVerbose };

// All diagnostics-to-the-operator flow through here (not ad-hoc
// fprintf): quiet drops them, normal prints plain text to stderr, and
// verbose prints a structured JSON line to stderr.
struct EventLog {
  Verbosity verbosity = Verbosity::kNormal;

  void warn(const std::string& event, const std::string& detail,
            const std::string& plain) const {
    if (verbosity == Verbosity::kQuiet) return;
    if (verbosity == Verbosity::kVerbose) {
      std::fprintf(stderr, "{\"event\": %s, \"detail\": %s}\n",
                   uchecker::strutil::quote(event).c_str(),
                   uchecker::strutil::quote(detail).c_str());
      return;
    }
    std::fprintf(stderr, "%s\n", plain.c_str());
  }
};

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

// Accepts "--flag=value" or "--flag value"; returns true and fills
// `value` when argv[i] matches `flag`.
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

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <directory-or-file> [--all-findings] [--json] "
                 "[--model-admin-gating] [--timeout-ms N] [--lint] "
                 "[--no-summaries] [--crosscheck] "
                 "[--fail-on-lint=SEV] "
                 "[--trace-out=FILE] [--metrics-out=FILE] [--sarif-out=FILE] "
                 "[--profile-out=FILE] [--explain] [--quiet] [-v]\n",
                 argv[0]);
    return 2;
  }
  const std::string root = argv[1];
  bool all_findings = false;
  bool json = false;
  bool admin_gating = false;
  bool show_lints = false;
  bool no_summaries = false;
  bool crosscheck = false;
  bool fail_on_lint = false;
  staticpass::Severity fail_severity =
      staticpass::Severity::kError;
  bool explain = false;
  long timeout_ms = 0;
  std::string trace_out;
  std::string metrics_out;
  std::string sarif_out;
  std::string profile_out;
  Verbosity verbosity = Verbosity::kNormal;
  for (int i = 2; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--all-findings") == 0) {
      all_findings = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--model-admin-gating") == 0) {
      admin_gating = true;
    } else if (std::strcmp(argv[i], "--lint") == 0) {
      show_lints = true;
    } else if (std::strcmp(argv[i], "--no-summaries") == 0) {
      no_summaries = true;
    } else if (std::strcmp(argv[i], "--crosscheck") == 0) {
      crosscheck = true;
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      explain = true;
    } else if (std::strcmp(argv[i], "--quiet") == 0 ||
               std::strcmp(argv[i], "-q") == 0) {
      verbosity = Verbosity::kQuiet;
    } else if (std::strcmp(argv[i], "-v") == 0 ||
               std::strcmp(argv[i], "--verbose") == 0) {
      verbosity = Verbosity::kVerbose;
    } else if (flag_with_value(argc, argv, i, "--fail-on-lint", value)) {
      const auto parsed = staticpass::parse_severity(value);
      if (!parsed.has_value()) {
        std::fprintf(stderr,
                     "error: --fail-on-lint needs info, warning or error\n");
        return 2;
      }
      fail_on_lint = true;
      fail_severity = *parsed;
    } else if (flag_with_value(argc, argv, i, "--timeout-ms", value)) {
      timeout_ms = std::strtol(value.c_str(), nullptr, 10);
      if (timeout_ms <= 0) {
        std::fprintf(stderr, "error: --timeout-ms needs a positive integer\n");
        return 2;
      }
    } else if (!flag_with_value(argc, argv, i, "--trace-out", trace_out) &&
               !flag_with_value(argc, argv, i, "--metrics-out", metrics_out) &&
               !flag_with_value(argc, argv, i, "--sarif-out", sarif_out) &&
               !flag_with_value(argc, argv, i, "--profile-out", profile_out)) {
      std::fprintf(stderr, "error: unknown flag or missing value: %s\n",
                   argv[i]);
      return 2;
    }
  }

  // Telemetry is attached only when an export file consumes it;
  // otherwise the scan runs on the zero-overhead path.
  uchecker::telemetry::Telemetry telemetry;
  const bool want_telemetry = !trace_out.empty() || !metrics_out.empty();
  const EventLog log{verbosity};

  std::string error;
  std::vector<std::string> unreadable;
  const std::optional<Application> loaded =
      load_application(root, error, &unreadable);
  for (const std::string& path : unreadable) {
    log.warn("file_unreadable", path,
             "warning: cannot read " + path + "; skipping");
  }
  if (!loaded.has_value()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  const Application& app = *loaded;

  ScanOptions options;
  options.vuln.stop_at_first_finding = !all_findings;
  options.locality.model_admin_gating = admin_gating;
  options.summaries = !no_summaries;
  options.crosscheck = crosscheck;
  options.explain = explain;
  options.budget.time_limit = std::chrono::milliseconds(timeout_ms);
  options.profile = !profile_out.empty();
  if (want_telemetry) options.telemetry = &telemetry;
  Detector detector(options);
  const ScanReport report = detector.scan(app);

  if (verbosity == Verbosity::kVerbose) {
    std::fprintf(stderr,
                 "{\"event\": \"app_done\", \"app\": %s, \"verdict\": "
                 "\"%s\", \"seconds\": %s}\n",
                 uchecker::strutil::quote(report.app_name).c_str(),
                 std::string(verdict_slug(report.verdict)).c_str(),
                 std::to_string(report.seconds).c_str());
  }
  if (!trace_out.empty()) {
    // A profiled scan's trace additionally carries per-root fork-site
    // counter tracks (the overload folds the profile in).
    const std::string trace_json =
        report.profiled
            ? to_chrome_trace_json(telemetry, report.profile)
            : to_chrome_trace_json(telemetry);
    if (!write_file(trace_out, trace_json)) {
      log.warn("trace_write_failed", trace_out,
               "warning: cannot write trace to " + trace_out);
    }
  }
  if (!profile_out.empty() &&
      !write_file(profile_out, uchecker::profile::to_json(report.profile))) {
    log.warn("profile_write_failed", profile_out,
             "warning: cannot write profile to " + profile_out);
  }
  if (!metrics_out.empty() &&
      !write_file(metrics_out, metrics_to_json(telemetry))) {
    log.warn("metrics_write_failed", metrics_out,
             "warning: cannot write metrics to " + metrics_out);
  }
  if (!sarif_out.empty() &&
      !write_file(sarif_out, uchecker::sarif::to_json(to_sarif(report)))) {
    log.warn("sarif_write_failed", sarif_out,
             "warning: cannot write SARIF to " + sarif_out);
  }

  bool lint_tripped = false;
  if (fail_on_lint) {
    for (const auto& l : report.lints) {
      if (l.severity >= fail_severity) lint_tripped = true;
    }
  }
  int exit_code = 0;
  if (report.vulnerable()) {
    exit_code = 1;
  } else if (report.verdict == Verdict::kAnalysisError) {
    exit_code = 3;
  } else if (report.verdict == Verdict::kAnalysisDisagreement) {
    exit_code = 4;
  } else if (lint_tripped) {
    exit_code = 5;
  }
  if (json) {
    std::printf("%s\n", to_json(report).c_str());
    return exit_code;
  }

  const bool quiet = verbosity == Verbosity::kQuiet;
  if (!quiet) {
    std::printf("scanned %zu file(s), %llu LoC; analyzed %.2f%% "
                "(%zu analysis root(s))\n",
                app.files.size(),
                static_cast<unsigned long long>(report.total_loc),
                report.analyzed_percent, report.roots);
    if (!unreadable.empty()) {
      std::printf("note: %zu file(s) could not be read and were skipped\n",
                  unreadable.size());
    }
  }
  std::printf("%s", to_text(report, quiet, show_lints).c_str());
  return exit_code;
}
