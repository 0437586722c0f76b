// Tests for the corpus infrastructure: the deterministic filler
// generator and the parameterized synthetic-workload generator.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/detector/detector.h"
#include "corpus/corpus.h"
#include "phpparse/parser.h"
#include "support/source.h"

namespace uchecker::corpus {
namespace {

using core::Detector;
using core::ScanReport;
using core::Verdict;

std::size_t count_loc(const std::string& content) {
  std::size_t n = 0;
  std::size_t start = 0;
  while (start <= content.size()) {
    std::size_t end = content.find('\n', start);
    if (end == std::string::npos) end = content.size();
    if (is_code_line(std::string_view(content).substr(start, end - start))) {
      ++n;
    }
    if (end == content.size()) break;
    start = end + 1;
  }
  return n;
}

bool parses_cleanly(const std::string& php) {
  SourceManager sm;
  DiagnosticSink diags;
  const FileId id = sm.add_file("t.php", php);
  Arena arena;
  (void)phpparse::parse_php(*sm.file(id), diags, arena);
  return !diags.has_errors();
}

// --- filler --------------------------------------------------------------------

TEST(Filler, Deterministic) {
  EXPECT_EQ(filler_php(500, 7, "pfx"), filler_php(500, 7, "pfx"));
  EXPECT_NE(filler_php(500, 7, "pfx"), filler_php(500, 8, "pfx"));
}

TEST(Filler, HitsLocTargetApproximately) {
  for (const std::size_t target : {100u, 500u, 2000u}) {
    const std::string php = filler_php(target, 3, "pad");
    const std::size_t loc = count_loc(php);
    EXPECT_GE(loc + 14, target) << target;
    EXPECT_LE(loc, target + 14) << target;
  }
}

TEST(Filler, ParsesCleanly) {
  EXPECT_TRUE(parses_cleanly(filler_php(3000, 42, "clean")));
}

TEST(Filler, SanitizesHyphenatedPrefixes) {
  EXPECT_TRUE(parses_cleanly(filler_php(200, 1, "my-plugin-slug")));
}

TEST(Filler, BodyVariantHasNoOpenTag) {
  const std::string body = filler_php_body(100, 5, "pfx");
  EXPECT_EQ(body.find("<?php"), std::string::npos);
  EXPECT_TRUE(parses_cleanly("<?php\n" + body));
}

TEST(Filler, ContainsNoUploadConstructs) {
  const std::string php = filler_php(5000, 9, "inert");
  EXPECT_EQ(php.find("_FILES"), std::string::npos);
  EXPECT_EQ(php.find("move_uploaded_file"), std::string::npos);
  EXPECT_EQ(php.find("file_put_contents"), std::string::npos);
}

TEST(FillerStatements, StraightLineOnly) {
  const std::string stmts = filler_statements(40, 11, "    ");
  EXPECT_TRUE(parses_cleanly("<?php\n$meta = array();\n$labels = array();\n"
                             "$totals = array();\n" +
                             stmts));
  EXPECT_EQ(stmts.find("if"), std::string::npos);
  EXPECT_EQ(stmts.find("while"), std::string::npos);
}

// --- synthetic workloads ---------------------------------------------------------

TEST(Synth, PathCountFormula) {
  for (int ifs = 1; ifs <= 6; ++ifs) {
    SynthSpec spec;
    spec.name = "t";
    spec.sequential_ifs = ifs;
    spec.filler_loc = 0;
    spec.filler_files = 0;
    const ScanReport report = Detector().scan(synth_app(spec));
    // ifs option-branches plus the sink conditional.
    EXPECT_EQ(report.paths, 1u << (ifs + 1)) << ifs;
  }
}

TEST(Synth, SwitchMultiplier) {
  SynthSpec spec;
  spec.name = "t";
  spec.sequential_ifs = 2;
  spec.switch_ways = 5;
  spec.filler_loc = 0;
  spec.filler_files = 0;
  const ScanReport report = Detector().scan(synth_app(spec));
  EXPECT_EQ(report.paths, 4u * 5u * 2u);
}

// Structural paths the handler forks: 2^(ifs + 1) * max(1, ways).
std::size_t structural_paths(const SynthSpec& spec) {
  return (std::size_t{2} << spec.sequential_ifs) *
         static_cast<std::size_t>(std::max(1, spec.switch_ways));
}

// Scans with the profiler on and returns the report; `peak` gets the
// most live environments the one analysis root held.
ScanReport scan_profiled(const SynthSpec& spec, std::uint64_t& peak) {
  core::ScanOptions options;
  options.profile = true;
  ScanReport report = Detector(options).scan(synth_app(spec));
  EXPECT_EQ(report.profile.roots.size(), 1u);
  peak = report.profile.roots.empty() ? 0 : report.profile.roots[0].peak_paths;
  return report;
}

TEST(SynthMerge, IrrelevantArmsMergeButKeepThePathCount) {
  for (const int ways : {0, 3}) {
    for (int ifs = 1; ifs <= 8; ++ifs) {
      SynthSpec spec;
      spec.name = "t";
      spec.sequential_ifs = ifs;
      spec.switch_ways = ways;
      spec.filler_loc = 0;
      spec.filler_files = 0;
      std::uint64_t peak = 0;
      const ScanReport report = scan_profiled(spec, peak);
      EXPECT_EQ(report.verdict, Verdict::kVulnerable) << ifs;
      EXPECT_EQ(report.paths, structural_paths(spec)) << ifs;
      EXPECT_LE(peak, 3u) << ifs;
    }
  }
}

TEST(SynthMerge, ArmsReachingTheSinkKeepEveryPathLive) {
  for (const int ways : {0, 3}) {
    for (int ifs = 1; ifs <= 8; ++ifs) {
      SynthSpec spec;
      spec.name = "t";
      spec.sequential_ifs = ifs;
      spec.switch_ways = ways;
      spec.arms_reach_sink = true;
      spec.filler_loc = 0;
      spec.filler_files = 0;
      std::uint64_t peak = 0;
      const ScanReport report = scan_profiled(spec, peak);
      EXPECT_EQ(report.verdict, Verdict::kVulnerable) << ifs;
      EXPECT_EQ(report.paths, structural_paths(spec)) << ifs;
      EXPECT_EQ(peak, structural_paths(spec)) << ifs;
    }
  }
}

TEST(Synth, VulnerableFlagControlsVerdict) {
  SynthSpec vulnerable;
  vulnerable.name = "v";
  vulnerable.filler_loc = 0;
  vulnerable.filler_files = 0;
  EXPECT_EQ(Detector().scan(synth_app(vulnerable)).verdict,
            Verdict::kVulnerable);

  SynthSpec safe = vulnerable;
  safe.name = "s";
  safe.vulnerable = false;
  EXPECT_EQ(Detector().scan(synth_app(safe)).verdict,
            Verdict::kNotVulnerable);
}

TEST(Synth, FillerIncreasesLocNotPaths) {
  SynthSpec small;
  small.name = "t";
  small.filler_loc = 0;
  small.filler_files = 0;
  SynthSpec padded = small;
  padded.filler_loc = 2000;
  padded.filler_files = 2;
  const ScanReport a = Detector().scan(synth_app(small));
  const ScanReport b = Detector().scan(synth_app(padded));
  EXPECT_EQ(a.paths, b.paths);
  EXPECT_GT(b.total_loc, a.total_loc + 1500);
  EXPECT_LT(b.analyzed_percent, a.analyzed_percent);
}

}  // namespace
}  // namespace uchecker::corpus
