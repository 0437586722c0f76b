// Tests for the vulnerability model (paper §III-C): constraint-1 taint,
// constraint-2 extension satisfiability, constraint-3 reachability, and
// the interplay between them.
#include "core/vulnmodel/vulnmodel.h"

#include <gtest/gtest.h>

#include "core/interp/interp.h"
#include "phpparse/parser.h"
#include "support/diag.h"
#include "support/source.h"

namespace uchecker::core {
namespace {

struct ModelRun {
  SourceManager sources;
  DiagnosticSink diags;
  std::vector<Arena> arenas;  // declared before files: ASTs live here
  std::vector<phpast::PhpFile> files;
  Program program;
  InterpResult exec;
  smt::Checker checker;
  VulnModelResult result;

  explicit ModelRun(const std::string& src, VulnModelOptions options = {},
                    SolverQueryCache* query_cache = nullptr) {
    const FileId id = sources.add_file("t.php", "<?php\n" + src);
    arenas.emplace_back();
    files.push_back(phpparse::parse_php(*sources.file(id), diags, arenas.back()));
    std::vector<const phpast::PhpFile*> ptrs{&files[0]};
    program = build_program(ptrs);
    Interpreter interp(program, diags);
    AnalysisRoot root;
    root.file = &files[0];
    exec = interp.run(root);
    result = check_sinks(exec, checker, options, query_cache);
  }
};

TEST(VulnModel, UncheckedUploadIsVulnerable) {
  ModelRun r("move_uploaded_file($_FILES['f']['tmp_name'], "
             "'/www/' . $_FILES['f']['name']);");
  EXPECT_TRUE(r.result.vulnerable);
  ASSERT_FALSE(r.result.verdicts.empty());
  EXPECT_TRUE(r.result.verdicts[0].taint_ok);
  EXPECT_EQ(r.result.verdicts[0].constraints, smt::SatResult::kSat);
  EXPECT_FALSE(r.result.verdicts[0].witness.empty());
}

TEST(VulnModel, Constraint1FailsWithoutFilesTaint) {
  // Local file copy: the source is not $_FILES data.
  ModelRun r("move_uploaded_file('/tmp/staging.bin', '/www/install.php');");
  EXPECT_FALSE(r.result.vulnerable);
  ASSERT_FALSE(r.result.verdicts.empty());
  EXPECT_FALSE(r.result.verdicts[0].taint_ok);
}

TEST(VulnModel, Constraint2FixedExtensionUnsat) {
  ModelRun r("move_uploaded_file($_FILES['f']['tmp_name'], "
             "'/www/img_' . md5($_FILES['f']['name']) . '.png');");
  EXPECT_FALSE(r.result.vulnerable);
  ASSERT_FALSE(r.result.verdicts.empty());
  EXPECT_TRUE(r.result.verdicts[0].taint_ok);
  EXPECT_EQ(r.result.verdicts[0].constraints, smt::SatResult::kUnsat);
}

TEST(VulnModel, Constraint3BlocksWhitelistedPath) {
  ModelRun r(R"(
$ext = pathinfo($_FILES['f']['name'], PATHINFO_EXTENSION);
if ($ext == 'jpg') {
    move_uploaded_file($_FILES['f']['tmp_name'], '/www/' . $_FILES['f']['name']);
}
)");
  EXPECT_FALSE(r.result.vulnerable);
}

TEST(VulnModel, BlacklistOfAllExecutableExtsIsSafe) {
  // Requires the ext-has-no-dot axiom: otherwise s_ext = "x.php" would
  // slip past "$ext != 'php'".
  ModelRun r(R"(
$ext = pathinfo($_FILES['f']['name'], PATHINFO_EXTENSION);
if ($ext != 'php' && $ext != 'php5' && $ext != 'phtml') {
    move_uploaded_file($_FILES['f']['tmp_name'], '/www/' . $_FILES['f']['name']);
}
)");
  EXPECT_FALSE(r.result.vulnerable);
}

TEST(VulnModel, IncompleteBlacklistStillVulnerable) {
  // Blocking only 'php' leaves 'php5' (and 'phtml') exploitable.
  ModelRun r(R"(
$ext = pathinfo($_FILES['f']['name'], PATHINFO_EXTENSION);
if ($ext != 'php') {
    move_uploaded_file($_FILES['f']['tmp_name'], '/www/' . $_FILES['f']['name']);
}
)");
  EXPECT_TRUE(r.result.vulnerable);
}

TEST(VulnModel, DoubleExtensionRenameVulnerable) {
  // The WP Demo Buddy pattern: ".php" appended after a ".zip" check.
  ModelRun r(R"(
$ext = pathinfo($_FILES['f']['name'], PATHINFO_EXTENSION);
if ($ext == 'zip') {
    $target = '/demos/' . time() . '_' . $_FILES['f']['name'] . '.php';
    move_uploaded_file($_FILES['f']['tmp_name'], $target);
}
)");
  EXPECT_TRUE(r.result.vulnerable);
}

TEST(VulnModel, ExtensionListConfigurable) {
  VulnModelOptions only_asa;
  only_asa.executable_extensions = {"asa"};
  ModelRun r("move_uploaded_file($_FILES['f']['tmp_name'], "
             "'/www/fixed.php');",
             only_asa);
  // dst ends ".php", but the configured executable extension is ".asa".
  EXPECT_FALSE(r.result.vulnerable);
}

TEST(VulnModel, StopAtFirstFindingLimitsChecks) {
  VulnModelOptions all;
  all.stop_at_first_finding = false;
  ModelRun stop_run(R"(
if ($a) { $d = '/x/'; } else { $d = '/y/'; }
move_uploaded_file($_FILES['f']['tmp_name'], $d . $_FILES['f']['name']);
)");
  ModelRun full_run(R"(
if ($a) { $d = '/x/'; } else { $d = '/y/'; }
move_uploaded_file($_FILES['f']['tmp_name'], $d . $_FILES['f']['name']);
)",
                    all);
  EXPECT_TRUE(stop_run.result.vulnerable);
  EXPECT_TRUE(full_run.result.vulnerable);
  EXPECT_LT(stop_run.result.verdicts.size(), full_run.result.verdicts.size());
}

TEST(VulnModel, MemoizationDeduplicatesIdenticalQueries) {
  // Two sinks on the same path share (dst, reach) after the if joins.
  VulnModelOptions all;
  all.stop_at_first_finding = false;
  ModelRun r(R"(
$d = '/www/img.png';
move_uploaded_file($_FILES['f']['tmp_name'], $d);
move_uploaded_file($_FILES['f']['tmp_name'], $d);
)",
             all);
  EXPECT_EQ(r.result.verdicts.size(), 2u);
  EXPECT_EQ(r.result.solver_calls, 1u);  // second hit memoized
}

TEST(VulnModel, MemoHitReplaysWitness) {
  // Regression: the per-call (dst, reach) memo used to cache only the
  // SatResult, so the duplicate sink lost its witness text.
  VulnModelOptions all;
  all.stop_at_first_finding = false;
  ModelRun r(R"(
$d = '/www/' . $_FILES['f']['name'];
move_uploaded_file($_FILES['f']['tmp_name'], $d);
move_uploaded_file($_FILES['f']['tmp_name'], $d);
)",
             all);
  ASSERT_EQ(r.result.verdicts.size(), 2u);
  EXPECT_EQ(r.result.solver_calls, 1u);
  EXPECT_FALSE(r.result.verdicts[0].witness.empty());
  EXPECT_EQ(r.result.verdicts[0].witness, r.result.verdicts[1].witness);
}

TEST(VulnModel, QueryCacheHitReplaysWitnessAndEvidence) {
  // Two independent check_sinks runs over the same source, sharing one
  // SolverQueryCache: the second run must answer from the cache and
  // still deliver the full evidence bundle — identical witness text,
  // identical decoded attack, taint path and guards recomputed against
  // its own (structurally identical) graph.
  const std::string src = R"(
if (strlen($_FILES['f']['name']) > 3) {
    move_uploaded_file($_FILES['f']['tmp_name'], '/up/' . $_FILES['f']['name']);
}
)";
  VulnModelOptions options;
  options.collect_evidence = true;
  SolverQueryCache cache;
  ModelRun first(src, options, &cache);
  ModelRun second(src, options, &cache);

  ASSERT_TRUE(first.result.vulnerable);
  ASSERT_TRUE(second.result.vulnerable);
  EXPECT_EQ(first.result.query_cache_hits, 0u);
  EXPECT_GT(second.result.query_cache_hits, 0u);
  EXPECT_EQ(second.result.solver_calls, 0u);

  const SinkVerdict& a = first.result.verdicts[0];
  const SinkVerdict& b = second.result.verdicts[0];
  EXPECT_FALSE(b.witness.empty());
  EXPECT_EQ(a.witness, b.witness);
  // The replayed evidence bundle matches the fresh solve's exactly.
  ASSERT_EQ(a.taint_path.size(), b.taint_path.size());
  for (std::size_t i = 0; i < a.taint_path.size(); ++i) {
    EXPECT_EQ(a.taint_path[i].description, b.taint_path[i].description);
    EXPECT_EQ(a.taint_path[i].loc.line, b.taint_path[i].loc.line);
  }
  ASSERT_EQ(a.guards.size(), b.guards.size());
  for (std::size_t i = 0; i < a.guards.size(); ++i) {
    EXPECT_EQ(a.guards[i].sexpr, b.guards[i].sexpr);
  }
  EXPECT_TRUE(b.attack.has_model);
  EXPECT_EQ(a.attack.upload_filename, b.attack.upload_filename);
  EXPECT_EQ(a.attack.destination, b.attack.destination);
  ASSERT_EQ(a.attack.bindings.size(), b.attack.bindings.size());
  for (std::size_t i = 0; i < a.attack.bindings.size(); ++i) {
    EXPECT_EQ(a.attack.bindings[i].symbol, b.attack.bindings[i].symbol);
    EXPECT_EQ(a.attack.bindings[i].decoded, b.attack.bindings[i].decoded);
  }
}

TEST(VulnModel, SExpressionsMatchPaperNotation) {
  ModelRun r(R"(
$path_array = wp_upload_dir();
$pathAndName = $path_array['path'] . "/" . $_FILES['upload_file']['name'];
if (strlen($_FILES['upload_file']['name']) > 5) {
    move_uploaded_file($_FILES['upload_file']['tmp_name'], $pathAndName);
}
)");
  ASSERT_TRUE(r.result.vulnerable);
  const SinkVerdict& v = r.result.verdicts[0];
  // se_dst = (. s_path (. "/" (. s_name s_ext))) modulo assoc order.
  EXPECT_NE(v.dst_sexpr.find("s_files_upload_file_filename"), std::string::npos);
  EXPECT_NE(v.dst_sexpr.find("s_files_upload_file_ext"), std::string::npos);
  EXPECT_NE(v.reach_sexpr.find("(> (strlen"), std::string::npos);
  // The witness assigns the extension symbol something ending in php.
  EXPECT_NE(v.witness.find("s_files_upload_file_ext"), std::string::npos);
}

TEST(VulnModel, FilePutContentsAlsoModeled) {
  ModelRun r("file_put_contents('/www/shell' . $_FILES['f']['name'], "
             "$_FILES['f']['tmp_name']);");
  EXPECT_TRUE(r.result.vulnerable);
}

TEST(VulnModel, UnreachedSinkReportsNothing) {
  ModelRun r("if (false) { } $x = $_FILES['f']['name'];");
  EXPECT_TRUE(r.result.verdicts.empty());
  EXPECT_FALSE(r.result.vulnerable);
}

TEST(VulnModel, SizeCheckDoesNotBlockDetection) {
  ModelRun r(R"(
if ($_FILES['f']['size'] < 1048576) {
    move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $_FILES['f']['name']);
}
)");
  EXPECT_TRUE(r.result.vulnerable);
}

TEST(VulnModel, ContradictoryReachabilityUnsat) {
  ModelRun r(R"(
$mode = 'locked';
if ($mode == 'open') {
    move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $_FILES['f']['name']);
}
)");
  EXPECT_FALSE(r.result.vulnerable);
}

TEST(VulnModel, StrposFalseGuardWitnessHasNoNul) {
  // The NUL-byte guard admits only names without a NUL. Translated as
  // "found at 0" it used to force a witness name that starts with NUL.
  ModelRun r(R"(
$name = $_FILES['f']['name'];
if (strpos($name, "\0") === false) {
    move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $name);
}
)");
  ASSERT_TRUE(r.result.vulnerable);
  ASSERT_EQ(r.result.verdicts.size(), 1u);
  const SinkVerdict& v = r.result.verdicts[0];
  EXPECT_NE(v.reach_sexpr.find("strpos"), std::string::npos) << v.reach_sexpr;
  EXPECT_EQ(v.witness.find("\\u{0}"), std::string::npos) << v.witness;
}

}  // namespace
}  // namespace uchecker::core
