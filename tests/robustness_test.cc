// Robustness properties: the lexer and parser must never crash, hang, or
// fail to terminate on arbitrary byte-mutated input — a scanner that
// dies on the first malformed plugin file is useless for crawling a
// plugin repository (the paper scanned 9,160 plugins).
#include <gtest/gtest.h>

#include <chrono>

#include "core/detector/detector.h"
#include "core/detector/scan_many.h"
#include "phpparse/parser.h"
#include "support/fault_injector.h"

namespace uchecker {
namespace {

// Deterministic PRNG (tests must not depend on seed ordering).
class Lcg {
 public:
  explicit Lcg(unsigned seed) : state_(seed * 2654435761u + 17u) {}
  unsigned next() {
    state_ = state_ * 1664525u + 1013904223u;
    return state_ >> 8;
  }
  unsigned next(unsigned bound) { return bound == 0 ? 0 : next() % bound; }

 private:
  unsigned state_;
};

const char* kBaseProgram = R"php(<?php
/* A representative upload handler used as the mutation base. */
function handle_upload($field) {
    $updir = wp_upload_dir();
    $file = $_FILES[$field];
    $ext = strtolower(pathinfo($file['name'], PATHINFO_EXTENSION));
    $allowed = array('jpg', 'png', "gif");
    if (!in_array($ext, $allowed)) {
        wp_die("rejected: $ext");
    }
    $dest = $updir['basedir'] . '/media/' . basename($file['name']);
    if (move_uploaded_file($file['tmp_name'], $dest)) {
        return $dest;
    }
    return false;
}
echo handle_upload('attachment') ? 'ok' : 'failed';
)php";

std::string mutate(unsigned seed) {
  Lcg rng(seed);
  std::string src = kBaseProgram;
  const unsigned mutations = 1 + rng.next(12);
  for (unsigned i = 0; i < mutations && !src.empty(); ++i) {
    const unsigned pos = rng.next(static_cast<unsigned>(src.size()));
    switch (rng.next(4)) {
      case 0:  // flip a byte
        src[pos] = static_cast<char>(rng.next(256));
        break;
      case 1:  // delete a span
        src.erase(pos, 1 + rng.next(8));
        break;
      case 2:  // duplicate a span
        src.insert(pos, src.substr(pos, 1 + rng.next(8)));
        break;
      default: {  // insert syntax-ish noise
        static const char* kNoise[] = {"'", "\"", "{", "}", "(", ")",
                                       "$",  "?>", "<?php", "/*", "*/",
                                       "\\", ";;", "<<<EOT\n"};
        src.insert(pos, kNoise[rng.next(sizeof(kNoise) / sizeof(*kNoise))]);
        break;
      }
    }
  }
  return src;
}

class MutationRobustness : public ::testing::TestWithParam<unsigned> {};

TEST_P(MutationRobustness, PipelineNeverCrashes) {
  const std::string src = mutate(GetParam());
  // Full pipeline: mutated files must produce a report, not a crash.
  core::Application app;
  app.name = "mutated";
  app.files.push_back(core::AppFile{"m.php", src});
  core::ScanOptions options;
  options.budget.max_paths = 2048;
  options.budget.max_objects = 100'000;
  const core::ScanReport report = core::Detector(options).scan(app);
  // Any verdict is acceptable; the property is termination + a report.
  (void)report;
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationRobustness,
                         ::testing::Range(1u, 101u));  // 100 mutants

TEST(Robustness, PathologicalInputs) {
  const std::string cases[] = {
      "",
      "<?php",
      "<?php ",
      "<?",
      "no php here at all",
      "<?php ?><?php ?><?php",
      "<?php ((((((((((",
      "<?php ))))))))))",
      "<?php $",
      "<?php $a = 'unterminated",
      "<?php \"unterminated $interp",
      "<?php /* unterminated",
      "<?php <<<EOT\nno terminator",
      "<?php if if if if",
      "<?php function () {}{}{}",
      "<?php \x00\x01\x02\xff",
      std::string(100000, '('),
      "<?php " + std::string(50000, 'a') + ";",
      "<?php $a" + std::string(5000, '[') + "0" + std::string(5000, ']') + ";",
      // Left-deep chains are built by parser loops, not recursion; they
      // must still respect the AST depth cap or downstream recursive
      // passes blow the stack on the spine.
      [] {
        std::string s = "<?php $a";
        for (int i = 0; i < 5000; ++i) s += "[0]";
        return s + ";";
      }(),
      [] {
        std::string s = "<?php $x = 1";
        for (int i = 0; i < 50000; ++i) s += "+1";
        return s + ";";
      }(),
      [] {
        std::string s = "<?php $o";
        for (int i = 0; i < 5000; ++i) s += "->p";
        return s + ";";
      }(),
  };
  for (const std::string& src : cases) {
    core::Application app;
    app.name = "pathological";
    app.files.push_back(core::AppFile{"p.php", src});
    core::ScanOptions options;
    options.budget.max_paths = 512;
    (void)core::Detector(options).scan(app);
  }
  SUCCEED();
}

TEST(Robustness, DeeplyNestedExpressions) {
  // Deep but bounded nesting must not blow the parser's stack.
  std::string expr = "1";
  for (int i = 0; i < 2000; ++i) expr = "(" + expr + " + 1)";
  core::Application app;
  app.name = "deep";
  app.files.push_back(core::AppFile{"d.php", "<?php $x = " + expr + ";"});
  (void)core::Detector().scan(app);
  SUCCEED();
}

TEST(Robustness, ManySmallFiles) {
  core::Application app;
  app.name = "many-files";
  for (int i = 0; i < 300; ++i) {
    app.files.push_back(core::AppFile{
        "f" + std::to_string(i) + ".php",
        "<?php function fn_" + std::to_string(i) + "() { return " +
            std::to_string(i) + "; }\n"});
  }
  app.files.push_back(core::AppFile{
      "up.php",
      "<?php move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . "
      "$_FILES['f']['name']);"});
  const core::ScanReport report = core::Detector().scan(app);
  EXPECT_EQ(report.verdict, core::Verdict::kVulnerable);
}

// ---------------------------------------------------------------------------
// Fault injection: every pipeline phase's containment path must fire.
// A fault in one app of a batch degrades that app to kAnalysisError with
// phase provenance; the other apps are untouched and the process lives.

// An upload handler that exercises every phase: parse, locality (the file
// reads $_FILES and reaches a sink), interp, translate, and solve. The
// `gated` variant whitelists extensions, so its solver query is UNSAT —
// still reaching the solve phase, but not vulnerable.
core::Application upload_app(int index, bool gated) {
  std::string src = "<?php\n$n = $_FILES['f']['name'];\n";
  src += "$ext = pathinfo($n, PATHINFO_EXTENSION);\n";
  if (gated) {
    src += "if (!in_array($ext, array('jpg', 'png'))) { exit; }\n";
  }
  src += "move_uploaded_file($_FILES['f']['tmp_name'], '/up/' . $n);\n";
  core::Application app;
  app.name = "app-" + std::to_string(index);
  app.files.push_back(core::AppFile{"u.php", std::move(src)});
  return app;
}

std::vector<core::Application> upload_batch(int count) {
  std::vector<core::Application> apps;
  for (int i = 0; i < count; ++i) apps.push_back(upload_app(i, i % 2 == 1));
  return apps;
}

class FaultInjection : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::instance().disarm_all(); }
};

TEST_F(FaultInjection, EachPhaseContainedInScanMany) {
  for (const char* phase :
       {"parse", "locality", "interp", "translate", "solve"}) {
    SCOPED_TRACE(phase);
    FaultInjector::instance().disarm_all();
    const std::vector<core::Application> apps = upload_batch(10);

    // Fire exactly once: one app in the batch hits the fault (arming is
    // serialized, so concurrency cannot double-fire it).
    FaultInjector::instance().arm(phase, FaultInjector::Action::kThrow,
                                  std::chrono::milliseconds{0},
                                  /*max_hits=*/1);
    const std::vector<core::ScanReport> reports =
        core::scan_many(core::Detector(), apps, 4);
    FaultInjector::instance().disarm_all();

    ASSERT_EQ(reports.size(), apps.size());
    std::size_t errored = 0;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const core::ScanReport& r = reports[i];
      if (r.verdict == core::Verdict::kAnalysisError) {
        ++errored;
        ASSERT_FALSE(r.errors.empty());
        EXPECT_EQ(r.errors[0].phase, phase) << r.errors[0].message;
        EXPECT_FALSE(r.errors[0].transient);
      } else {
        // Unaffected apps keep their normal verdicts.
        const core::Verdict expected = (i % 2 == 1)
                                           ? core::Verdict::kNotVulnerable
                                           : core::Verdict::kVulnerable;
        EXPECT_EQ(r.verdict, expected) << r.app_name;
      }
    }
    EXPECT_EQ(errored, 1u);
  }
}

TEST_F(FaultInjection, SerialScanDegradesNotDies) {
  // Single-app sanity check of the same property, without threads.
  FaultInjector::instance().arm("interp", FaultInjector::Action::kThrow,
                                std::chrono::milliseconds{0}, 1);
  const core::ScanReport report = core::Detector().scan(upload_app(0, false));
  EXPECT_EQ(report.verdict, core::Verdict::kAnalysisError);
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_EQ(report.errors[0].phase, "interp");
  EXPECT_EQ(report.errors[0].root, "u.php");
}

TEST_F(FaultInjection, VulnerableFindingSurvivesLaterFault) {
  // Two apps' worth of roots in one app: the first root finds the vuln,
  // a fault on a later phase call must not erase it. Simulated with a
  // multi-file app where the second file's root faults.
  core::Application app;
  app.name = "two-handlers";
  app.files.push_back(core::AppFile{
      "a.php",
      "<?php move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . "
      "$_FILES['f']['name']);"});
  app.files.push_back(core::AppFile{
      "b.php",
      "<?php move_uploaded_file($_FILES['g']['tmp_name'], '/u/' . "
      "$_FILES['g']['name']);"});
  core::ScanOptions options;
  options.vuln.stop_at_first_finding = false;
  // Skip the first two interp runs' faults... arm from the second run on.
  FaultInjector::instance().arm("solve", FaultInjector::Action::kThrow,
                                std::chrono::milliseconds{0}, 1);
  const core::ScanReport report = core::Detector(options).scan(app);
  // One root faulted at solve; the other proved the vulnerability.
  EXPECT_EQ(report.verdict, core::Verdict::kVulnerable);
  EXPECT_EQ(report.errors.size(), 1u);
}

TEST_F(FaultInjection, TransientFaultRetriedOnce) {
  FaultInjector::instance().arm(
      "interp", FaultInjector::Action::kThrowTransient,
      std::chrono::milliseconds{0}, /*max_hits=*/1);
  const std::vector<core::Application> apps{upload_app(0, false)};
  const std::vector<core::ScanReport> reports =
      core::scan_many(core::Detector(), apps, 1);
  ASSERT_EQ(reports.size(), 1u);
  // First attempt failed transiently, retry succeeded.
  EXPECT_EQ(reports[0].verdict, core::Verdict::kVulnerable);
  EXPECT_EQ(FaultInjector::instance().hits("interp"), 1u);
}

TEST_F(FaultInjection, TransientFaultRetriedOnlyOnce) {
  FaultInjector::instance().arm(
      "interp", FaultInjector::Action::kThrowTransient,
      std::chrono::milliseconds{0}, -1);
  const std::vector<core::Application> apps{upload_app(0, false)};
  const std::vector<core::ScanReport> reports =
      core::scan_many(core::Detector(), apps, 1);
  ASSERT_EQ(reports.size(), 1u);
  // The first scan and one immediate retry, then the failure stands.
  EXPECT_EQ(reports[0].verdict, core::Verdict::kAnalysisError);
  EXPECT_TRUE(reports[0].only_transient_errors());
  EXPECT_EQ(FaultInjector::instance().hits("interp"),
            1u + core::kTransientRetries);
}

TEST_F(FaultInjection, PermanentFaultNotRetried) {
  FaultInjector::instance().arm("interp", FaultInjector::Action::kThrow,
                                std::chrono::milliseconds{0}, -1);
  const std::vector<core::Application> apps{upload_app(0, false)};
  const std::vector<core::ScanReport> reports =
      core::scan_many(core::Detector(), apps, 1);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].verdict, core::Verdict::kAnalysisError);
  // No retry for permanent failures: the point fired exactly once.
  EXPECT_EQ(FaultInjector::instance().hits("interp"), 1u);
}

TEST_F(FaultInjection, StallPastDeadlineReturnsPromptly) {
  FaultInjector::instance().arm("interp", FaultInjector::Action::kStall,
                                std::chrono::milliseconds{100}, 1);
  core::ScanOptions options;
  options.budget.time_limit = std::chrono::milliseconds{50};
  const auto start = std::chrono::steady_clock::now();
  const core::ScanReport report = core::Detector(options).scan(upload_app(0, false));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_TRUE(report.deadline_exceeded);
  EXPECT_EQ(report.verdict, core::Verdict::kAnalysisIncomplete);
  // The stall is 2x the deadline; well under a second proves we did not
  // hang past the stall itself.
  EXPECT_LT(elapsed.count(), 1000);
}

TEST(DeadlineRobustness, PathExplosionBoundedByWallClock) {
  // A deliberately stalling input: 24 sequential ifs fork up to 2^24
  // paths, each arm renaming the upload so no join can merge. The path
  // budget is set high enough that only the wall-clock deadline can stop
  // the scan.
  std::string src = "<?php\n$n = $_FILES['f']['name'];\n";
  for (int i = 0; i < 24; ++i) {
    src += "if ($_POST['a" + std::to_string(i) + "']) { $n = 'p" +
           std::to_string(i) + "-' . $n; }\n";
  }
  src += "move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $n);\n";
  core::Application app;
  app.name = "explode";
  app.files.push_back(core::AppFile{"e.php", std::move(src)});

  core::ScanOptions options;
  options.budget.max_paths = 100'000'000;
  options.budget.max_objects = 1'000'000'000;
  options.budget.time_limit = std::chrono::milliseconds{50};
  const auto start = std::chrono::steady_clock::now();
  const core::ScanReport report = core::Detector(options).scan(app);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_TRUE(report.deadline_exceeded);
  EXPECT_EQ(report.verdict, core::Verdict::kAnalysisIncomplete);
  // Generous bound (CI machines vary), but far below the minutes a
  // full 2^24-path execution would take.
  EXPECT_LT(elapsed.count(), 5000);
}

TEST(DeadlineRobustness, UnlimitedByDefault) {
  const core::ScanReport report = core::Detector().scan(upload_app(0, false));
  EXPECT_FALSE(report.deadline_exceeded);
  EXPECT_EQ(report.verdict, core::Verdict::kVulnerable);
  EXPECT_TRUE(report.errors.empty());
}

}  // namespace
}  // namespace uchecker
