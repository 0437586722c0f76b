// Tests for the pre-symbolic static pass (core/staticpass): one
// positive + negative case per lint rule, the pruning soundness contract
// on hand-written traps, and corpus-level acceptance properties
// (plain/crosscheck equivalence, crosscheck oracle, benign prune rate).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/detector/detector.h"
#include "core/staticpass/staticpass.h"
#include "corpus/corpus.h"

namespace uchecker {
namespace {

using namespace core;  // NOLINT

ScanReport scan_snippet(const std::string& php, ScanOptions options = {}) {
  Application app;
  app.name = "snippet";
  app.files.push_back(AppFile{"snippet.php", php});
  return Detector(std::move(options)).scan(app);
}

bool has_lint(const ScanReport& report, const std::string& rule) {
  return std::any_of(report.lints.begin(), report.lints.end(),
                     [&rule](const staticpass::LintFinding& l) {
                       return l.rule == rule;
                     });
}

TEST(Severity, NamesRoundTrip) {
  using staticpass::Severity;
  for (Severity s :
       {Severity::kInfo, Severity::kWarning, Severity::kError}) {
    const auto parsed = staticpass::parse_severity(staticpass::severity_name(s));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(staticpass::parse_severity("fatal").has_value());
}

// ---------------------------------------------------------------------------
// Pruning decisions.

TEST(StaticPass, WhitelistGuardPrunes) {
  const ScanReport report = scan_snippet(R"(<?php
$name = basename($_FILES['f']['name']);
$ext = strtolower(pathinfo($name, PATHINFO_EXTENSION));
$allowed = array('jpg', 'png', 'gif');
if (!in_array($ext, $allowed)) { die('bad type'); }
move_uploaded_file($_FILES['f']['tmp_name'], 'uploads/' . $name);
)");
  EXPECT_EQ(report.verdict, Verdict::kNotVulnerable);
  EXPECT_EQ(report.pruned_roots, 1u);
  // The clean idiom produces no lints at all.
  EXPECT_FALSE(has_lint(report, "UC101"));
  EXPECT_FALSE(has_lint(report, "UC102"));
  EXPECT_FALSE(has_lint(report, "UC103"));
  EXPECT_FALSE(has_lint(report, "UC106"));
  // And pruning skipped the symbolic engine entirely.
  EXPECT_EQ(report.paths, 0u);
  EXPECT_EQ(report.solver_calls, 0u);
}

TEST(StaticPass, SwitchWhitelistPrunes) {
  const ScanReport report = scan_snippet(R"(<?php
$name = basename($_FILES['f']['name']);
$ext = strtolower(pathinfo($name, PATHINFO_EXTENSION));
switch ($ext) {
  case 'jpg':
  case 'png':
    move_uploaded_file($_FILES['f']['tmp_name'], 'uploads/' . $name);
    break;
  default:
    die('rejected');
}
)");
  EXPECT_EQ(report.verdict, Verdict::kNotVulnerable);
  EXPECT_EQ(report.pruned_roots, 1u);
}

TEST(StaticPass, UntaintedSourcePrunes) {
  const ScanReport report = scan_snippet(R"(<?php
if (isset($_FILES['f'])) {
  file_put_contents('uploads/audit.log', 'upload received');
}
)");
  EXPECT_EQ(report.verdict, Verdict::kNotVulnerable);
  EXPECT_EQ(report.pruned_roots, 1u);
}

TEST(StaticPass, ServerGeneratedNamePrunes) {
  const ScanReport report = scan_snippet(R"(<?php
$target = 'uploads/' . md5($_FILES['f']['name']) . '.dat';
move_uploaded_file($_FILES['f']['tmp_name'], $target);
)");
  EXPECT_EQ(report.verdict, Verdict::kNotVulnerable);
  EXPECT_EQ(report.pruned_roots, 1u);
}

TEST(StaticPass, UnguardedRootIsNotPruned) {
  const ScanReport report = scan_snippet(R"(<?php
move_uploaded_file($_FILES['f']['tmp_name'],
                   'uploads/' . $_FILES['f']['name']);
)");
  EXPECT_EQ(report.verdict, Verdict::kVulnerable);
  EXPECT_EQ(report.pruned_roots, 0u);
}

TEST(StaticPass, ReassignmentAfterGuardBlocksPruning) {
  // Flow-insensitive joins must degrade a variable that is ever rebound
  // to something worse: the guard checks $name's extension but the
  // destination uses the raw $_POST override.
  const ScanReport report = scan_snippet(R"(<?php
$name = basename($_FILES['f']['name']);
$ext = strtolower(pathinfo($name, PATHINFO_EXTENSION));
if (!in_array($ext, array('jpg', 'png'))) { die('bad'); }
$name = $_POST['override'];
move_uploaded_file($_FILES['f']['tmp_name'], 'uploads/' . $name);
)");
  EXPECT_EQ(report.pruned_roots, 0u);
}

TEST(StaticPass, HelperCallReachingSinkBailsOut) {
  // The root's own body looks clean, but it calls a helper that reaches
  // a sink; the pass must keep the root on the symbolic path.
  const ScanReport report = scan_snippet(R"(<?php
function store_upload($tmp, $dst) {
  move_uploaded_file($tmp, $dst);
}
store_upload($_FILES['f']['tmp_name'], 'uploads/' . $_FILES['f']['name']);
)");
  EXPECT_EQ(report.verdict, Verdict::kVulnerable);
  EXPECT_EQ(report.pruned_roots, 0u);
}

// ---------------------------------------------------------------------------
// Lint rules: positive and negative cases.

TEST(Lints, UC101UnrestrictedUpload) {
  const ScanReport positive = scan_snippet(R"(<?php
move_uploaded_file($_FILES['f']['tmp_name'],
                   'uploads/' . $_FILES['f']['name']);
)");
  EXPECT_TRUE(has_lint(positive, "UC101"));
  for (const staticpass::LintFinding& l : positive.lints) {
    if (l.rule != "UC101") continue;
    EXPECT_EQ(l.severity, staticpass::Severity::kError);
    EXPECT_NE(l.location.find("snippet.php"), std::string::npos);
    EXPECT_NE(l.evidence.find("move_uploaded_file"), std::string::npos);
  }

  const ScanReport negative = scan_snippet(R"(<?php
$ext = strtolower(pathinfo($_FILES['f']['name'], PATHINFO_EXTENSION));
if (!in_array($ext, array('jpg'))) { die('no'); }
move_uploaded_file($_FILES['f']['tmp_name'],
                   'uploads/' . basename($_FILES['f']['name']));
)");
  EXPECT_FALSE(has_lint(negative, "UC101"));
}

TEST(Lints, UC102ExtensionBlacklist) {
  const ScanReport positive = scan_snippet(R"(<?php
$name = basename($_FILES['f']['name']);
$ext = strtolower(pathinfo($name, PATHINFO_EXTENSION));
if ($ext == 'php') { die('blocked'); }
move_uploaded_file($_FILES['f']['tmp_name'], 'uploads/' . $name);
)");
  EXPECT_TRUE(has_lint(positive, "UC102"));
  // A deny-list is not a proof: the root stays on the symbolic path and
  // the engine finds the php5 bypass.
  EXPECT_EQ(positive.pruned_roots, 0u);
  EXPECT_EQ(positive.verdict, Verdict::kVulnerable);

  const ScanReport negative = scan_snippet(R"(<?php
$name = basename($_FILES['f']['name']);
$ext = strtolower(pathinfo($name, PATHINFO_EXTENSION));
if (!in_array($ext, array('jpg'))) { die('no'); }
move_uploaded_file($_FILES['f']['tmp_name'], 'uploads/' . $name);
)");
  EXPECT_FALSE(has_lint(negative, "UC102"));
}

TEST(Lints, UC103CaseSensitiveCompare) {
  const ScanReport positive = scan_snippet(R"(<?php
$name = basename($_FILES['f']['name']);
$ext = pathinfo($name, PATHINFO_EXTENSION);
if (!in_array($ext, array('jpg', 'png'))) { die('no'); }
move_uploaded_file($_FILES['f']['tmp_name'], 'uploads/' . $name);
)");
  EXPECT_TRUE(has_lint(positive, "UC103"));
  // Case-sensitive whitelists are still sound (stricter), so the root
  // is pruned even though the lint fires.
  EXPECT_EQ(positive.pruned_roots, 1u);
  EXPECT_EQ(positive.verdict, Verdict::kNotVulnerable);

  const ScanReport negative = scan_snippet(R"(<?php
$name = basename($_FILES['f']['name']);
$ext = strtolower(pathinfo($name, PATHINFO_EXTENSION));
if (!in_array($ext, array('jpg', 'png'))) { die('no'); }
move_uploaded_file($_FILES['f']['tmp_name'], 'uploads/' . $name);
)");
  EXPECT_FALSE(has_lint(negative, "UC103"));
}

TEST(Lints, UC104DoubleExtensionSplit) {
  const ScanReport positive = scan_snippet(R"(<?php
$name = $_FILES['f']['name'];
$parts = explode('.', $name);
$ext = $parts[1];
if ($ext != 'php') {
  move_uploaded_file($_FILES['f']['tmp_name'], 'uploads/' . $name);
}
)");
  EXPECT_TRUE(has_lint(positive, "UC104"));
  EXPECT_EQ(positive.pruned_roots, 0u);

  // end(explode(...)) takes the *last* segment: correct, no lint.
  const ScanReport negative = scan_snippet(R"(<?php
$name = basename($_FILES['f']['name']);
$parts = explode('.', $name);
$ext = strtolower(end($parts));
if (!in_array($ext, array('jpg', 'png'))) { die('no'); }
move_uploaded_file($_FILES['f']['tmp_name'], 'uploads/' . $name);
)");
  EXPECT_FALSE(has_lint(negative, "UC104"));
  EXPECT_EQ(negative.pruned_roots, 1u);
}

TEST(Lints, UC105ForcedExecutableDest) {
  // The wp_demo_buddy trap: a strict-looking guard on the archive
  // extension, but the destination appends a constant '.php'. The guard
  // is irrelevant; the pass must flag it and must NOT prune.
  const ScanReport positive = scan_snippet(R"(<?php
$info = pathinfo($_FILES['pkg']['name']);
$ext = strtolower($info['extension']);
if ($ext !== 'zip') { die('only zip archives'); }
$newname = time() . '_' . $info['basename'] . '.php';
move_uploaded_file($_FILES['pkg']['tmp_name'], 'uploads/' . $newname);
)");
  EXPECT_TRUE(has_lint(positive, "UC105"));
  EXPECT_EQ(positive.pruned_roots, 0u);
  EXPECT_EQ(positive.verdict, Verdict::kVulnerable);

  const ScanReport negative = scan_snippet(R"(<?php
$newname = time() . '_upload.txt';
move_uploaded_file($_FILES['f']['tmp_name'], 'uploads/' . $newname);
)");
  EXPECT_FALSE(has_lint(negative, "UC105"));
  EXPECT_EQ(negative.pruned_roots, 1u);
}

TEST(Lints, UC106RawClientFilename) {
  const ScanReport positive = scan_snippet(R"(<?php
$ext = strtolower(pathinfo($_FILES['f']['name'], PATHINFO_EXTENSION));
if (!in_array($ext, array('jpg'))) { die('no'); }
move_uploaded_file($_FILES['f']['tmp_name'],
                   'uploads/' . $_FILES['f']['name']);
)");
  EXPECT_TRUE(has_lint(positive, "UC106"));
  for (const staticpass::LintFinding& l : positive.lints) {
    if (l.rule == "UC106") {
      EXPECT_EQ(l.severity, staticpass::Severity::kInfo);
    }
  }

  const ScanReport negative = scan_snippet(R"(<?php
$ext = strtolower(pathinfo($_FILES['f']['name'], PATHINFO_EXTENSION));
if (!in_array($ext, array('jpg'))) { die('no'); }
move_uploaded_file($_FILES['f']['tmp_name'],
                   'uploads/' . basename($_FILES['f']['name']));
)");
  EXPECT_FALSE(has_lint(negative, "UC106"));
}

TEST(Lints, UC107HelperChainTaint) {
  // The root has no lexical sink: the taint reaches move_uploaded_file
  // only through the helper. The summary layer instantiates the helper
  // at the call site, finds the sink unprovable, names the chain, and
  // keeps the root on the symbolic path — which detects it.
  const ScanReport positive = scan_snippet(R"(<?php
function persist($tmp, $name) {
    move_uploaded_file($tmp, 'uploads/' . $name);
}
$f = $_FILES['f'];
persist($f['tmp_name'], $f['name']);
)");
  EXPECT_TRUE(has_lint(positive, "UC107"));
  for (const staticpass::LintFinding& l : positive.lints) {
    if (l.rule == "UC107") {
      EXPECT_EQ(l.severity, staticpass::Severity::kError);
      EXPECT_NE(l.message.find("persist"), std::string::npos);
    }
  }
  EXPECT_EQ(positive.pruned_roots, 0u);
  EXPECT_EQ(positive.verdict, Verdict::kVulnerable);

  // A helper that validates internally is proven safe at the call site:
  // no lint, and the root prunes via the summary.
  const ScanReport negative = scan_snippet(R"(<?php
function persist($tmp, $name) {
    $ext = strtolower(pathinfo($name, PATHINFO_EXTENSION));
    if (!in_array($ext, array('jpg', 'png'))) { return false; }
    return move_uploaded_file($tmp, 'uploads/' . basename($name));
}
$f = $_FILES['f'];
persist($f['tmp_name'], $f['name']);
)");
  EXPECT_FALSE(has_lint(negative, "UC107"));
  EXPECT_EQ(negative.verdict, Verdict::kNotVulnerable);
  EXPECT_EQ(negative.pruned_roots, 1u);
  EXPECT_EQ(negative.summary_pruned_roots, 1u);
}

TEST(Lints, UC108EscapedCallSites) {
  // Each snippet keeps a (benign) lexical sink so the locality pass
  // creates an analysis root at all — roots exist only where a sink is
  // reachable; the escaped call is what UC108 must surface.
  const ScanReport dynamic = scan_snippet(R"(<?php
$handler = $_POST['handler'];
$f = $_FILES['f'];
$handler($f['tmp_name']);
move_uploaded_file($f['tmp_name'], 'uploads/safe_' . time() . '.txt');
)");
  EXPECT_TRUE(has_lint(dynamic, "UC108"));
  for (const staticpass::LintFinding& l : dynamic.lints) {
    if (l.rule == "UC108") {
      EXPECT_EQ(l.severity, staticpass::Severity::kInfo);
    }
  }
  EXPECT_GE(dynamic.escaped_calls, 1u);

  const ScanReport callback = scan_snippet(R"(<?php
$f = $_FILES['f'];
call_user_func('process_upload', $f['tmp_name']);
move_uploaded_file($f['tmp_name'], 'uploads/safe_' . time() . '.txt');
)");
  EXPECT_TRUE(has_lint(callback, "UC108"));
  EXPECT_GE(callback.escaped_calls, 1u);

  const ScanReport negative = scan_snippet(R"(<?php
$name = basename($_FILES['f']['name']);
$ext = strtolower(pathinfo($name, PATHINFO_EXTENSION));
if (!in_array($ext, array('jpg'))) { die('no'); }
move_uploaded_file($_FILES['f']['tmp_name'], 'uploads/' . $name);
)");
  EXPECT_FALSE(has_lint(negative, "UC108"));
  EXPECT_EQ(negative.escaped_calls, 0u);
}

TEST(Lints, DisabledWithLintOption) {
  ScanOptions options;
  options.lint = false;
  const ScanReport report = scan_snippet(R"(<?php
move_uploaded_file($_FILES['f']['tmp_name'],
                   'uploads/' . $_FILES['f']['name']);
)",
                                         options);
  EXPECT_TRUE(report.lints.empty());
  EXPECT_EQ(report.verdict, Verdict::kVulnerable);
}

// ---------------------------------------------------------------------------
// Crosscheck mode.

TEST(Crosscheck, DisagreementForcesVerdict) {
  // Synthesize a disagreement by construction: none exists in the real
  // pass, so instead verify the plumbing — a crosschecked scan of a
  // vulnerable app keeps its verdict and records no disagreement.
  ScanOptions options;
  options.crosscheck = true;
  const ScanReport report = scan_snippet(R"(<?php
move_uploaded_file($_FILES['f']['tmp_name'],
                   'uploads/' . $_FILES['f']['name']);
)",
                                         options);
  EXPECT_EQ(report.verdict, Verdict::kVulnerable);
  EXPECT_TRUE(report.disagreements.empty());
}

TEST(Crosscheck, PrunableRootStillExecutesSymbolically) {
  ScanOptions options;
  options.crosscheck = true;
  const ScanReport report = scan_snippet(R"(<?php
$name = basename($_FILES['f']['name']);
$ext = strtolower(pathinfo($name, PATHINFO_EXTENSION));
if (!in_array($ext, array('jpg', 'png'))) { die('no'); }
move_uploaded_file($_FILES['f']['tmp_name'], 'uploads/' . $name);
)",
                                         options);
  EXPECT_EQ(report.verdict, Verdict::kNotVulnerable);
  EXPECT_EQ(report.pruned_roots, 1u);  // "would prune"
  EXPECT_GT(report.paths, 0u);         // but still executed
  EXPECT_TRUE(report.disagreements.empty());
}

// ---------------------------------------------------------------------------
// Corpus-level acceptance properties.

// Pruning never changes a result: the plain scan (pruned roots
// skipped) and the crosscheck scan (every root executed) agree on
// verdict, findings, witnesses, lints and the pruned-root count.
TEST(CorpusAcceptance, PlainAndCrosscheckVerdictsIdentical) {
  ScanOptions crosscheck_options;
  crosscheck_options.crosscheck = true;
  const Detector plain;
  const Detector crosscheck(crosscheck_options);
  for (const corpus::CorpusEntry& entry : corpus::full_corpus()) {
    const ScanReport a = plain.scan(entry.app);
    const ScanReport b = crosscheck.scan(entry.app);
    SCOPED_TRACE(entry.app.name);
    EXPECT_EQ(a.verdict, b.verdict);
    ASSERT_EQ(a.findings.size(), b.findings.size());
    for (std::size_t i = 0; i < a.findings.size(); ++i) {
      EXPECT_EQ(a.findings[i].location, b.findings[i].location);
      EXPECT_EQ(a.findings[i].witness, b.findings[i].witness);
    }
    ASSERT_EQ(a.lints.size(), b.lints.size());
    for (std::size_t i = 0; i < a.lints.size(); ++i) {
      EXPECT_EQ(a.lints[i].rule, b.lints[i].rule);
      EXPECT_EQ(a.lints[i].location, b.lints[i].location);
    }
    EXPECT_EQ(a.pruned_roots, b.pruned_roots);
  }
}

TEST(CorpusAcceptance, CrosscheckFindsNoDisagreements) {
  ScanOptions options;
  options.crosscheck = true;
  const Detector detector(options);
  for (const corpus::CorpusEntry& entry : corpus::full_corpus()) {
    const ScanReport report = detector.scan(entry.app);
    SCOPED_TRACE(entry.app.name);
    EXPECT_TRUE(report.disagreements.empty())
        << (report.disagreements.empty() ? ""
                                         : report.disagreements[0].message);
    EXPECT_NE(report.verdict, Verdict::kAnalysisDisagreement);
  }
}

TEST(CorpusAcceptance, BenignPruneRateAtLeastThirtyPercent) {
  const Detector detector;
  std::size_t roots = 0;
  std::size_t pruned = 0;
  for (const corpus::CorpusEntry& entry : corpus::benign()) {
    const ScanReport report = detector.scan(entry.app);
    roots += report.roots;
    pruned += report.pruned_roots;
  }
  ASSERT_GT(roots, 0u);
  const double rate =
      static_cast<double>(pruned) / static_cast<double>(roots);
  EXPECT_GE(rate, 0.30) << pruned << " of " << roots << " roots pruned";
}

}  // namespace
}  // namespace uchecker
