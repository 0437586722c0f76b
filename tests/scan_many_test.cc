#include "core/detector/scan_many.h"

#include <gtest/gtest.h>

#include "core/uchecker.h"  // also verifies the umbrella header compiles
#include "corpus/corpus.h"

namespace uchecker::core {
namespace {

std::vector<Application> sample_apps() {
  std::vector<Application> apps;
  for (int i = 0; i < 10; ++i) {
    corpus::SynthSpec spec;
    spec.name = "batch-" + std::to_string(i);
    spec.sequential_ifs = 1 + (i % 4);
    spec.vulnerable = (i % 2) == 0;
    spec.filler_loc = 100;
    apps.push_back(corpus::synth_app(spec));
  }
  return apps;
}

TEST(ScanMany, MatchesSerialResults) {
  const std::vector<Application> apps = sample_apps();
  Detector detector;
  const std::vector<ScanReport> parallel = scan_many(detector, apps, 4);
  ASSERT_EQ(parallel.size(), apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const ScanReport serial = detector.scan(apps[i]);
    EXPECT_EQ(parallel[i].app_name, serial.app_name);
    EXPECT_EQ(parallel[i].verdict, serial.verdict) << apps[i].name;
    EXPECT_EQ(parallel[i].paths, serial.paths) << apps[i].name;
    EXPECT_EQ(parallel[i].objects, serial.objects) << apps[i].name;
    EXPECT_EQ(parallel[i].findings.size(), serial.findings.size());
  }
}

TEST(ScanMany, VerdictsAlternateWithSpec) {
  const std::vector<Application> apps = sample_apps();
  const std::vector<ScanReport> reports = scan_many(Detector(), apps, 4);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const Verdict expected =
        (i % 2) == 0 ? Verdict::kVulnerable : Verdict::kNotVulnerable;
    EXPECT_EQ(reports[i].verdict, expected) << i;
  }
}

TEST(ScanMany, EmptyBatch) {
  EXPECT_TRUE(scan_many(Detector(), {}, 4).empty());
}

TEST(ScanMany, OptionsOverloadMatchesDefault) {
  const std::vector<Application> apps = sample_apps();
  ScanManyOptions options;
  options.threads = 4;
  const std::vector<ScanReport> reports =
      scan_many(Detector(), apps, options);
  ASSERT_EQ(reports.size(), apps.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const Verdict expected =
        (i % 2) == 0 ? Verdict::kVulnerable : Verdict::kNotVulnerable;
    EXPECT_EQ(reports[i].verdict, expected) << i;
    EXPECT_FALSE(reports[i].deadline_exceeded) << i;
    EXPECT_TRUE(reports[i].errors.empty()) << i;
  }
}

TEST(ScanMany, SingleThreadFallback) {
  const std::vector<Application> apps = sample_apps();
  const std::vector<ScanReport> reports = scan_many(Detector(), apps, 1);
  EXPECT_EQ(reports.size(), apps.size());
}

TEST(ScanMany, DefaultThreadCount) {
  std::vector<Application> apps = sample_apps();
  apps.resize(2);
  const std::vector<ScanReport> reports = scan_many(Detector(), apps);
  EXPECT_EQ(reports.size(), 2u);
}

TEST(ScanMany, CorpusSubsetParallelStable) {
  // Run a slice of the real corpus in parallel twice; results identical.
  std::vector<Application> apps;
  for (const auto& entry : corpus::new_vulnerable()) apps.push_back(entry.app);
  for (auto& entry : corpus::benign()) {
    if (apps.size() >= 8) break;
    apps.push_back(entry.app);
  }
  Detector detector;
  const auto a = scan_many(detector, apps, 4);
  const auto b = scan_many(detector, apps, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].verdict, b[i].verdict) << apps[i].name;
    EXPECT_EQ(a[i].paths, b[i].paths) << apps[i].name;
  }
}

}  // namespace
}  // namespace uchecker::core
