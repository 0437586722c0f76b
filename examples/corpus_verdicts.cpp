// corpus_verdicts: deterministic dump of every corpus scan's verdict and
// findings (sink, location, dst/reachability s-exprs, witness,
// fingerprint), with all timing- and machine-dependent stats omitted.
// Two builds of the scanner are behaviorally equivalent on the corpus
// iff their dumps are byte-identical — this is the regression oracle for
// optimizations that must not change analysis results (hash-consing,
// caching, interning).
//
//   $ ./build/examples/corpus_verdicts --suite all > verdicts.txt
//
// --suite full|helper|all selects the Table III corpus (the default),
// the helper-chain suite (uploads persisted through user-defined
// helpers), or both. The remaining flags switch on machinery that must
// never change a result, so each prints the same dump:
//   --explain          evidence collection on every scan;
//   --parse-threads N  each app's files parsed on an N-thread pool
//                      (0 = auto; N must be a non-negative integer);
//   --no-summaries     the inter-procedural summary layer off;
//   --no-prefilter     the static pre-pass prunes no root, so every root
//                      it proves safe is executed symbolically too;
//   --crosscheck       both engines on every root, so a summary-pruned
//                      root the symbolic engine finds vulnerable turns
//                      the verdict into analysis_disagreement;
//   --observe          every scan event consumer attached to the one
//                      Detector: a Telemetry (trace + metrics), a
//                      4096-slot flight ring and the path profiler.
// tests/CMakeLists.txt diffs each of these against the one committed
// golden, tests/data/corpus_verdicts.golden. --dump DIR additionally
// writes each corpus app as a PHP tree under DIR/<app>/ so file-oriented
// tools (scan_directory --sarif-out, external scanners) can run on the
// corpus.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/detector/detector.h"
#include "core/detector/report_io.h"
#include "corpus/corpus.h"
#include "support/flight_recorder.h"
#include "support/telemetry.h"

using namespace uchecker::core;  // NOLINT

namespace {

bool dump_app(const std::filesystem::path& dir, const Application& app) {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const AppFile& f : app.files) {
    const fs::path path = dir / app.name / f.name;
    fs::create_directories(path.parent_path(), ec);
    if (ec) return false;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << f.content;
    if (!out) return false;
  }
  return true;
}

// A whole-string non-negative decimal; std::atoi would read "x" and "-3"
// as 0, which --parse-threads takes as "auto".
bool parse_count(const char* text, std::size_t& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end && ptr != text;
}

}  // namespace

int main(int argc, char** argv) {
  bool explain = false;
  bool crosscheck = false;
  bool summaries = true;
  bool prefilter = true;
  bool observe = false;
  std::size_t parse_threads = 1;
  std::string dump_dir;
  std::string suite = "full";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--explain") == 0) {
      explain = true;
    } else if (std::strcmp(argv[i], "--crosscheck") == 0) {
      crosscheck = true;
    } else if (std::strcmp(argv[i], "--no-summaries") == 0) {
      summaries = false;
    } else if (std::strcmp(argv[i], "--no-prefilter") == 0) {
      prefilter = false;
    } else if (std::strcmp(argv[i], "--observe") == 0) {
      observe = true;
    } else if (std::strcmp(argv[i], "--suite") == 0 && i + 1 < argc) {
      suite = argv[++i];
    } else if (std::strcmp(argv[i], "--dump") == 0 && i + 1 < argc) {
      dump_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--parse-threads") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], parse_threads)) {
        std::fprintf(stderr, "error: --parse-threads needs a non-negative "
                     "integer, got '%s'\n", argv[i]);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--explain] [--crosscheck] [--no-summaries] "
                   "[--no-prefilter] [--observe] [--suite full|helper|all] "
                   "[--dump DIR] [--parse-threads N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (suite != "full" && suite != "helper" && suite != "all") {
    std::fprintf(stderr, "error: unknown suite '%s'\n", suite.c_str());
    return 2;
  }

  ScanOptions options;
  options.explain = explain;
  options.crosscheck = crosscheck;
  options.summaries = summaries;
  options.prefilter = prefilter;
  options.parse_threads = parse_threads;
  uchecker::telemetry::Telemetry telemetry;
  uchecker::telemetry::FlightRecorder flight(4096);
  if (observe) {
    options.telemetry = &telemetry;
    options.flight = &flight;
    options.profile = true;
  }
  Detector detector(options);
  std::vector<uchecker::corpus::CorpusEntry> entries;
  if (suite == "full" || suite == "all") {
    for (uchecker::corpus::CorpusEntry& e : uchecker::corpus::full_corpus()) {
      entries.push_back(std::move(e));
    }
  }
  if (suite == "helper" || suite == "all") {
    for (uchecker::corpus::CorpusEntry& e :
         uchecker::corpus::helper_sink_suite()) {
      entries.push_back(std::move(e));
    }
  }
  for (const uchecker::corpus::CorpusEntry& entry : entries) {
    if (!dump_dir.empty() && !dump_app(dump_dir, entry.app)) {
      std::fprintf(stderr, "error: cannot dump %s under %s\n",
                   entry.app.name.c_str(), dump_dir.c_str());
      return 2;
    }
    const ScanReport report = detector.scan(entry.app);
    std::printf("app: %s\n", entry.app.name.c_str());
    std::printf("verdict: %s\n",
                std::string(verdict_slug(report.verdict)).c_str());
    std::printf("findings: %zu\n", report.findings.size());
    for (const Finding& f : report.findings) {
      std::printf("  sink: %s\n", f.sink_name.c_str());
      std::printf("  location: %s\n", f.location.c_str());
      std::printf("  source: %s\n", f.source_line.c_str());
      std::printf("  dst: %s\n", f.dst_sexpr.c_str());
      std::printf("  reach: %s\n", f.reach_sexpr.c_str());
      std::printf("  witness: %s\n", f.witness.c_str());
      std::printf("  fingerprint: %s\n", f.fingerprint.c_str());
    }
    std::printf("\n");
  }
  return 0;
}
