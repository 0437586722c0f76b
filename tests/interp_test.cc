#include "core/interp/interp.h"

#include <gtest/gtest.h>

#include "core/heapgraph/sexpr.h"
#include "phpparse/parser.h"
#include "support/diag.h"
#include "support/source.h"

namespace uchecker::core {
namespace {

// Runs the interpreter over a single file's top-level body.
struct ExecRun {
  SourceManager sources;
  DiagnosticSink diags;
  std::vector<Arena> arenas;  // declared before files: ASTs live here
  std::vector<phpast::PhpFile> files;
  Program program;
  InterpResult result;

  explicit ExecRun(const std::string& src, Budget budget = {}) {
    const FileId id = sources.add_file("t.php", "<?php\n" + src);
    arenas.emplace_back();
    files.push_back(phpparse::parse_php(*sources.file(id), diags, arenas.back()));
    std::vector<const phpast::PhpFile*> ptrs{&files[0]};
    program = build_program(ptrs);
    Interpreter interp(program, diags, budget);
    AnalysisRoot root;
    root.file = &files[0];
    result = interp.run(root);
  }

  // The value of variable `name` in path `path`, as an s-expression.
  [[nodiscard]] std::string value(const std::string& name,
                                  std::size_t path = 0) const {
    return to_sexpr(result.graph, result.envs.at(path).get_map(name));
  }

  [[nodiscard]] std::string reach(std::size_t path = 0) const {
    const Label cur = result.envs.at(path).cur();
    return cur == kNoLabel ? "true" : to_sexpr(result.graph, cur);
  }
};

// --- literals and variables ---------------------------------------------------

TEST(Interp, ConcreteAssignments) {
  ExecRun r("$i = 42; $f = 1.5; $s = 'x'; $b = true; $n = null;");
  ASSERT_EQ(r.result.envs.size(), 1u);
  EXPECT_EQ(r.value("i"), "42");
  EXPECT_EQ(r.value("s"), "\"x\"");
  EXPECT_EQ(r.value("b"), "true");
  EXPECT_EQ(r.value("n"), "null");
}

TEST(Interp, UninitializedVariableBecomesSymbol) {
  ExecRun r("$y = $x;");
  const Label y = r.result.envs[0].get_map("y");
  EXPECT_EQ(r.result.graph.at(y).kind, Object::Kind::kSymbol);
}

TEST(Interp, BinaryOpsBuildOpNodes) {
  ExecRun r("$z = $a + 5; $c = $s . '/tail';");
  EXPECT_EQ(r.value("z"), "(+ s_a_1 5)");
  EXPECT_EQ(r.value("c"), "(. s_s_2 \"/tail\")");
}

TEST(Interp, TypeInferenceFromConcat) {
  ExecRun r("$c = $s . 'x';");
  const Label s = r.result.envs[0].get_map("s");
  EXPECT_EQ(r.result.graph.at(s).type, Type::kString);
}

TEST(Interp, TypeInferenceFromArith) {
  ExecRun r("$c = $n + 1;");
  const Label n = r.result.envs[0].get_map("n");
  EXPECT_EQ(r.result.graph.at(n).type, Type::kInt);
}

TEST(Interp, CompoundAssignDesugars) {
  ExecRun r("$p = '/base'; $p .= '/x';");
  EXPECT_EQ(r.value("p"), "(. \"/base\" \"/x\")");
}

TEST(Interp, UnaryOps) {
  ExecRun r("$a = !$x; $b = -$y;");
  EXPECT_EQ(r.value("a"), "(NOT s_x_1)");
  EXPECT_EQ(r.value("b"), "(neg s_y_2)");
}

TEST(Interp, IncrementRebindsVariable) {
  ExecRun r("$i = 1; $i++; $j = ++$k;");
  EXPECT_EQ(r.value("i"), "(+ 1 1)");
  EXPECT_EQ(r.value("j"), "(+ s_k_1 1)");
  EXPECT_EQ(r.value("k"), "(+ s_k_1 1)");
}

TEST(Interp, TernaryBuildsNode) {
  ExecRun r("$m = $c ? 'a' : 'b';");
  EXPECT_EQ(r.value("m"), "(ternary s_c_1 \"a\" \"b\")");
  ASSERT_EQ(r.result.envs.size(), 1u);  // ternary does not fork paths
}

// --- arrays --------------------------------------------------------------------

TEST(Interp, ArrayLiteralStructureKnown) {
  ExecRun r("$a = array('x' => 1, 'y' => 2); $v = $a['y'];");
  EXPECT_EQ(r.value("v"), "2");
}

TEST(Interp, ArrayLiteralPositionalKeys) {
  ExecRun r("$a = array('p', 'q'); $v = $a[1];");
  EXPECT_EQ(r.value("v"), "\"q\"");
}

TEST(Interp, ArrayWriteCreatesNewObject) {
  ExecRun r("$a = array('x' => 1); $a['y'] = 2; $v = $a['y']; $w = $a['x'];");
  EXPECT_EQ(r.value("v"), "2");
  EXPECT_EQ(r.value("w"), "1");
}

TEST(Interp, ArrayWriteOnFreshVariable) {
  ExecRun r("$a['k'] = 'v'; $x = $a['k'];");
  EXPECT_EQ(r.value("x"), "\"v\"");
}

TEST(Interp, ArrayPushAppends) {
  ExecRun r("$a = array(); $a[] = 'first'; $a[] = 'second';");
  const Object& arr = r.result.graph.at(r.result.envs[0].get_map("a"));
  ASSERT_EQ(arr.kind, Object::Kind::kArray);
  EXPECT_EQ(arr.entries.size(), 2u);
}

TEST(Interp, UnknownIndexBecomesArrayAccessOp) {
  ExecRun r("$v = $arr[$i];");
  const Object& v = r.result.graph.at(r.result.envs[0].get_map("v"));
  ASSERT_EQ(v.kind, Object::Kind::kOp);
  EXPECT_EQ(v.op, OpKind::kArrayAccess);
  ASSERT_EQ(v.children.size(), 2u);  // (array, index), ordered
}

TEST(Interp, PropertyReadAndWrite) {
  ExecRun r("$o->name = 'x'; $v = $o->name;");
  EXPECT_EQ(r.value("v"), "\"x\"");
}

TEST(Interp, ListDestructuringFromKnownArray) {
  ExecRun r("list($a, $b) = array('u', 'v');");
  EXPECT_EQ(r.value("a"), "\"u\"");
  EXPECT_EQ(r.value("b"), "\"v\"");
}

// --- the pre-structured $_FILES model (paper §III-B4, Fig. 6) -----------------

TEST(Interp, FilesEntryIsPreStructured) {
  ExecRun r("$f = $_FILES['up']; $n = $f['name']; $t = $f['tmp_name'];");
  EXPECT_EQ(r.value("n"), "(. (. s_files_up_filename \".\") s_files_up_ext)");
  EXPECT_EQ(r.value("t"), "s_files_up_tmp");
}

TEST(Interp, FilesEntrySharedAcrossAccesses) {
  ExecRun r("$a = $_FILES['up']['name']; $b = $_FILES['up']['name'];");
  EXPECT_EQ(r.result.envs[0].get_map("a"), r.result.envs[0].get_map("b"));
}

TEST(Interp, FilesValuesAreTainted) {
  ExecRun r("$t = $_FILES['up']['tmp_name']; $d = '/www/' . $_FILES['up']['name'];");
  EXPECT_TRUE(r.result.graph.reaches_files_taint(r.result.envs[0].get_map("t")));
  EXPECT_TRUE(r.result.graph.reaches_files_taint(r.result.envs[0].get_map("d")));
}

TEST(Interp, OtherSuperglobalsNotFilesTainted) {
  ExecRun r("$p = $_POST['x']; $g = $_GET['y'];");
  EXPECT_FALSE(r.result.graph.reaches_files_taint(r.result.envs[0].get_map("p")));
  EXPECT_FALSE(r.result.graph.reaches_files_taint(r.result.envs[0].get_map("g")));
}

TEST(Interp, FilesErrorAndSizeAreInts) {
  ExecRun r("$e = $_FILES['u']['error']; $s = $_FILES['u']['size'];");
  EXPECT_EQ(r.result.graph.at(r.result.envs[0].get_map("e")).type, Type::kInt);
  EXPECT_EQ(r.result.graph.at(r.result.envs[0].get_map("s")).type, Type::kInt);
}

// --- conditionals and path forking ---------------------------------------------

TEST(Interp, IfForksTwoPaths) {
  ExecRun r("$a = 55; if ($b + $a > 10) { $a = $b - 22; } else { $a = 88; }");
  ASSERT_EQ(r.result.envs.size(), 2u);
  EXPECT_EQ(r.value("a", 0), "(- s_b_1 22)");
  EXPECT_EQ(r.reach(0), "(> (+ s_b_1 55) 10)");
  EXPECT_EQ(r.value("a", 1), "88");
  EXPECT_EQ(r.reach(1), "(NOT (> (+ s_b_1 55) 10))");
}

TEST(Interp, IfWithoutElseStillForks) {
  ExecRun r("if ($c) { $x = 1; }");
  ASSERT_EQ(r.result.envs.size(), 2u);
  EXPECT_EQ(r.value("x", 0), "1");
  EXPECT_EQ(r.result.envs[1].get_map("x"), kNoLabel);
}

TEST(Interp, ElseIfChainMakesThreePaths) {
  ExecRun r("if ($a) { $x = 1; } elseif ($b) { $x = 2; } else { $x = 3; }");
  ASSERT_EQ(r.result.envs.size(), 3u);
  EXPECT_EQ(r.value("x", 0), "1");
  EXPECT_EQ(r.value("x", 1), "2");
  EXPECT_EQ(r.value("x", 2), "3");
  // The else path's constraint is (AND (NOT a) (NOT b)).
  EXPECT_EQ(r.reach(2), "(AND (NOT s_a_1) (NOT s_b_2))");
}

TEST(Interp, NestedIfsMultiplyPaths) {
  ExecRun r("if ($a) { $x = 1; } if ($b) { $y = 2; } if ($c) { $z = 3; }");
  EXPECT_EQ(r.result.envs.size(), 8u);
  EXPECT_EQ(r.result.stats.paths, 8u);
}

TEST(Interp, ReachabilityAccumulatesWithAnd) {
  ExecRun r("if ($a) { if ($b) { $x = 1; } }");
  ASSERT_EQ(r.result.envs.size(), 3u);
  EXPECT_EQ(r.reach(0), "(AND s_a_1 s_b_2)");
}

TEST(Interp, SwitchForksPerCasePlusDefault) {
  ExecRun r(R"(switch ($m) {
    case 'a': $x = 1; break;
    case 'b': $x = 2; break;
    default: $x = 3;
})");
  ASSERT_EQ(r.result.envs.size(), 3u);
  EXPECT_EQ(r.value("x", 0), "1");
  EXPECT_EQ(r.reach(0), "(== s_m_1 \"a\")");
  // Default path carries negations of all case guards.
  EXPECT_EQ(r.reach(2), "(AND (NOT (== s_m_1 \"a\")) (NOT (== s_m_1 \"b\")))");
}

TEST(Interp, SwitchWithoutDefaultAddsFallPast) {
  ExecRun r("switch ($m) { case 1: $x = 1; break; }");
  EXPECT_EQ(r.result.envs.size(), 2u);
}

TEST(Interp, WhileForksSkipAndEnter) {
  ExecRun r("while ($i < 3) { $i = $i + 1; }");
  ASSERT_EQ(r.result.envs.size(), 2u);
}

TEST(Interp, ForeachOverKnownArrayUnrolls) {
  ExecRun r("$sum = 0; foreach (array(1, 2, 3) as $v) { $sum = $sum + $v; }");
  ASSERT_EQ(r.result.envs.size(), 1u);  // deterministic unroll, no fork
  EXPECT_EQ(r.value("sum"), "(+ (+ (+ 0 1) 2) 3)");
}

TEST(Interp, ForeachOverUnknownForks) {
  ExecRun r("foreach ($rows as $row) { $x = $row; }");
  EXPECT_EQ(r.result.envs.size(), 2u);  // skip + enter-once
}

TEST(Interp, ForeachKeyValueBinding) {
  ExecRun r("foreach (array('k' => 'v') as $key => $val) { $a = $key; $b = $val; }");
  EXPECT_EQ(r.value("a"), "\"k\"");
  EXPECT_EQ(r.value("b"), "\"v\"");
}

// --- statements controlling path status ----------------------------------------

TEST(Interp, ExitTerminatesPath) {
  ExecRun r("if ($bad) { exit; } $x = 1;");
  ASSERT_EQ(r.result.envs.size(), 2u);
  std::size_t running = 0;
  for (const Env& env : r.result.envs) {
    if (env.status() == Env::Status::kRunning) ++running;
  }
  EXPECT_EQ(running, 1u);
}

TEST(Interp, WpDieTerminatesPath) {
  ExecRun r("if ($bad) { wp_die('no'); } $x = 1;");
  std::size_t exited = 0;
  for (const Env& env : r.result.envs) {
    if (env.status() == Env::Status::kExited) ++exited;
  }
  EXPECT_EQ(exited, 1u);
}

TEST(Interp, ThrowTerminatesPath) {
  ExecRun r("if ($bad) { throw new Exception('x'); } $x = 1;");
  std::size_t exited = 0;
  for (const Env& env : r.result.envs) {
    if (env.status() == Env::Status::kExited) ++exited;
  }
  EXPECT_EQ(exited, 1u);
}

TEST(Interp, TryCatchForksHandlerPath) {
  ExecRun r("try { $x = 1; } catch (Exception $e) { $x = 2; }");
  ASSERT_EQ(r.result.envs.size(), 2u);
  EXPECT_EQ(r.value("x", 0), "1");
  EXPECT_EQ(r.value("x", 1), "2");
}

TEST(Interp, GlobalBindsSharedSymbol) {
  ExecRun r("global $wpdb; $x = $wpdb;");
  const Object& x = r.result.graph.at(r.result.envs[0].get_map("x"));
  EXPECT_EQ(x.kind, Object::Kind::kSymbol);
}

// --- user-defined function inlining ----------------------------------------------

TEST(Interp, FunctionCallInlinesBody) {
  ExecRun r(R"(
function make_path($dir, $name) {
    return $dir . '/' . $name;
}
$p = make_path('/base', $n);
)");
  EXPECT_EQ(r.value("p"), "(. (. \"/base\" \"/\") s_n_1)");
}

TEST(Interp, FunctionDefaultsApplied) {
  ExecRun r("function f($a, $b = 7) { return $a + $b; } $x = f(1);");
  EXPECT_EQ(r.value("x"), "(+ 1 7)");
}

TEST(Interp, FunctionLocalsDoNotLeak) {
  ExecRun r("function f() { $local = 5; return $local; } $x = f();");
  EXPECT_EQ(r.result.envs[0].get_map("local"), kNoLabel);
}

TEST(Interp, CallerLocalsRestoredAfterCall) {
  ExecRun r("function f($a) { $a = 99; return $a; } $a = 1; $x = f(2); $y = $a;");
  EXPECT_EQ(r.value("y"), "1");
}

TEST(Interp, FunctionForkPropagatesToCaller) {
  ExecRun r(R"(
function pick($c) {
    if ($c) { return 'yes'; }
    return 'no';
}
$v = pick($flag);
)");
  ASSERT_EQ(r.result.envs.size(), 2u);
  EXPECT_EQ(r.value("v", 0), "\"yes\"");
  EXPECT_EQ(r.value("v", 1), "\"no\"");
}

TEST(Interp, FunctionWithoutReturnYieldsNull) {
  ExecRun r("function f() { $x = 1; } $v = f();");
  EXPECT_EQ(r.value("v"), "null");
}

TEST(Interp, RecursionDegradesToSymbol) {
  ExecRun r("function rec($n) { return rec($n - 1); } $v = rec(3);");
  const Object& v = r.result.graph.at(r.result.envs[0].get_map("v"));
  EXPECT_EQ(v.kind, Object::Kind::kSymbol);
}

TEST(Interp, MethodsInlineByName) {
  ExecRun r(R"(
class Store {
    public function path($n) { return '/store/' . $n; }
}
$s = new Store();
$p = $s->path('f');
)");
  EXPECT_EQ(r.value("p"), "(. \"/store/\" \"f\")");
}

// --- sink recording (§III-C inputs) ----------------------------------------------

TEST(Interp, MoveUploadedFileRecordsSink) {
  ExecRun r("move_uploaded_file($_FILES['f']['tmp_name'], '/www/' . $_FILES['f']['name']);");
  ASSERT_EQ(r.result.sinks.size(), 1u);
  const SinkHit& hit = r.result.sinks[0];
  EXPECT_EQ(hit.sink_name, "move_uploaded_file");
  EXPECT_TRUE(r.result.graph.reaches_files_taint(hit.src));
  EXPECT_EQ(to_sexpr(r.result.graph, hit.dst),
            "(. \"/www/\" (. (. s_files_f_filename \".\") s_files_f_ext))");
  EXPECT_EQ(hit.reachability, kNoLabel);  // top-level: unconditioned
}

TEST(Interp, FilePutContentsArgOrderSwapped) {
  ExecRun r("file_put_contents('/www/x.php', $_FILES['f']['tmp_name']);");
  ASSERT_EQ(r.result.sinks.size(), 1u);
  EXPECT_EQ(to_sexpr(r.result.graph, r.result.sinks[0].dst), "\"/www/x.php\"");
  EXPECT_TRUE(r.result.graph.reaches_files_taint(r.result.sinks[0].src));
}

TEST(Interp, SinkInsideIfCapturesReachability) {
  ExecRun r("if ($ok) { move_uploaded_file($_FILES['f']['tmp_name'], $d); }");
  ASSERT_EQ(r.result.sinks.size(), 1u);
  EXPECT_EQ(to_sexpr(r.result.graph, r.result.sinks[0].reachability), "s_ok_1");
}

TEST(Interp, SinkPerPath) {
  ExecRun r(R"(
if ($a) { $d = '/a/'; } else { $d = '/b/'; }
move_uploaded_file($_FILES['f']['tmp_name'], $d . $_FILES['f']['name']);
)");
  EXPECT_EQ(r.result.sinks.size(), 2u);  // one hit per reaching path
}

TEST(Interp, SinkCallYieldsBooleanResult) {
  ExecRun r("$ok = move_uploaded_file($_FILES['f']['tmp_name'], $d);");
  const Object& ok = r.result.graph.at(r.result.envs[0].get_map("ok"));
  EXPECT_EQ(ok.kind, Object::Kind::kFunc);
  EXPECT_EQ(ok.type, Type::kBool);
}

// --- budget ----------------------------------------------------------------------

// An upload whose destination directory gets one optional segment per
// `if`: the sink reads every arm's write, so no join merges and the
// ladder forks 2^ifs live paths.
std::string dest_ladder(int ifs) {
  std::string php = "$dir = '/u/';\n";
  for (int i = 0; i < ifs; ++i) {
    php += "if ($c" + std::to_string(i) + ") { $dir .= 'd" +
           std::to_string(i) + "/'; }\n";
  }
  php += "move_uploaded_file($_FILES['f']['tmp_name'], "
         "$dir . $_FILES['f']['name']);\n";
  return php;
}

TEST(Interp, PathBudgetExhaustionAborts) {
  Budget tight;
  tight.max_paths = 8;
  ExecRun r(dest_ladder(10), tight);
  EXPECT_TRUE(r.result.stats.budget_exhausted);
  EXPECT_LT(r.result.stats.paths, 1u << 10);
}

TEST(Interp, ObjectBudgetExhaustionAborts) {
  Budget tight;
  tight.max_objects = 10;
  ExecRun r(dest_ladder(3), tight);
  EXPECT_TRUE(r.result.stats.budget_exhausted);
}

TEST(Interp, StatsPopulated) {
  ExecRun r("if ($a) { $x = 1; }");
  EXPECT_EQ(r.result.stats.paths, 2u);
  EXPECT_GT(r.result.stats.objects, 0u);
  EXPECT_GE(r.result.stats.peak_paths, 2u);
  EXPECT_GT(r.result.stats.env_bytes, 0u);
  EXPECT_FALSE(r.result.stats.budget_exhausted);
}


// --- include/require following ----------------------------------------------------

struct MultiFileRun {
  SourceManager sources;
  DiagnosticSink diags;
  std::vector<Arena> arenas;  // declared before files: ASTs live here
  std::vector<phpast::PhpFile> files;
  Program program;
  InterpResult result;

  MultiFileRun(std::initializer_list<std::pair<std::string, std::string>> in,
               Budget budget = {}) {
    for (const auto& [name, content] : in) {
      const FileId id = sources.add_file(name, content);
      arenas.emplace_back();
      files.push_back(
          phpparse::parse_php(*sources.file(id), diags, arenas.back()));
    }
    std::vector<const phpast::PhpFile*> ptrs;
    for (const auto& f : files) ptrs.push_back(&f);
    program = build_program(ptrs);
    Interpreter interp(program, diags, budget);
    AnalysisRoot root;
    root.file = &files[0];
    result = interp.run(root);
  }
};

TEST(InterpInclude, FollowsResolvableInclude) {
  MultiFileRun r({{"main.php", "<?php\nrequire 'lib/config.php';\n$x = $setting;"},
                  {"lib/config.php", "<?php\n$setting = 'configured';"}});
  EXPECT_EQ(to_sexpr(r.result.graph, r.result.envs.at(0).get_map("x")),
            "\"configured\"");
}

TEST(InterpInclude, SinkInsideIncludedFileRecorded) {
  MultiFileRun r(
      {{"main.php", "<?php\nif ($_POST['go']) { require 'up.php'; }"},
       {"up.php",
        "<?php\nmove_uploaded_file($_FILES['f']['tmp_name'], '/u/' . "
        "$_FILES['f']['name']);"}});
  ASSERT_EQ(r.result.sinks.size(), 1u);
  // The include was conditional: reachability carries the guard.
  EXPECT_NE(r.result.sinks[0].reachability, kNoLabel);
}

TEST(InterpInclude, OnceSemantics) {
  MultiFileRun r({{"main.php",
                   "<?php\nrequire_once 'inc.php';\nrequire_once 'inc.php';\n"
                   "$x = $counter;"},
                  {"inc.php", "<?php\n$counter = 'ran';"}});
  // Second require_once yields an opaque value instead of re-executing;
  // there is exactly one path and $counter is bound once.
  EXPECT_EQ(r.result.envs.size(), 1u);
  EXPECT_EQ(to_sexpr(r.result.graph, r.result.envs.at(0).get_map("x")),
            "\"ran\"");
}

TEST(InterpInclude, CyclicIncludesTerminate) {
  MultiFileRun r({{"a.php", "<?php\n$a = 1;\ninclude 'b.php';"},
                  {"b.php", "<?php\n$b = 2;\ninclude 'a.php';"}});
  EXPECT_EQ(r.result.envs.size(), 1u);  // terminated, no explosion
}

TEST(InterpInclude, UnresolvableIncludeIsOpaque) {
  MultiFileRun r({{"main.php", "<?php\n$x = include 'not-in-program.php';"}});
  const Object& x = r.result.graph.at(r.result.envs.at(0).get_map("x"));
  EXPECT_EQ(x.kind, Object::Kind::kSymbol);
}

TEST(InterpInclude, DepthLimitStopsDeepChains) {
  Budget shallow;
  shallow.max_include_depth = 1;
  MultiFileRun r({{"main.php", "<?php\ninclude 'l1.php';\n$x = $deep;"},
                  {"l1.php", "<?php\ninclude 'l2.php';"},
                  {"l2.php", "<?php\n$deep = 'reached';"}},
                 shallow);
  // l2 was beyond the depth limit: $deep stays symbolic.
  const Object& x = r.result.graph.at(r.result.envs.at(0).get_map("x"));
  EXPECT_EQ(x.kind, Object::Kind::kSymbol);
}

// --- property: path counts are products of independent branch factors -------------

class PathCountProperty : public ::testing::TestWithParam<int> {};

TEST_P(PathCountProperty, SequentialIfsDoublePaths) {
  const int n = GetParam();
  std::string src;
  for (int i = 0; i < n; ++i) {
    src += "if ($c" + std::to_string(i) + ") { $x" + std::to_string(i) + " = 1; }\n";
  }
  ExecRun r(src);
  EXPECT_EQ(r.result.envs.size(), 1u << n);
  // Object sharing: total objects grow far slower than paths * objects.
  EXPECT_LT(r.result.stats.objects, (1u << n) * 24u + 64u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PathCountProperty,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 10));

class SwitchFactorProperty : public ::testing::TestWithParam<int> {};

TEST_P(SwitchFactorProperty, SwitchMultipliesByCaseCount) {
  const int ways = GetParam();
  std::string src = "switch ($m) {\n";
  for (int i = 0; i < ways - 1; ++i) {
    src += "case " + std::to_string(i) + ": $x = " + std::to_string(i) + "; break;\n";
  }
  src += "default: $x = 99;\n}\n";
  ExecRun r(src);
  EXPECT_EQ(r.result.envs.size(), static_cast<std::size_t>(ways));
}

INSTANTIATE_TEST_SUITE_P(Sweep, SwitchFactorProperty,
                         ::testing::Values(2, 3, 5, 9));

// --- property: all labels referenced by envs are valid ----------------------------

TEST(InterpProperty, EnvironmentsReferenceValidObjects) {
  ExecRun r(R"(
$a = $_FILES['f'];
if ($a['size'] > 100) { $big = true; } else { $big = false; }
$p = '/www/' . $a['name'];
if ($big) { move_uploaded_file($a['tmp_name'], $p); }
)");
  for (const Env& env : r.result.envs) {
    for (const auto& [var, label] : env.map()) {
      EXPECT_NE(r.result.graph.find(label), nullptr) << var;
    }
    if (env.cur() != kNoLabel) {
      EXPECT_NE(r.result.graph.find(env.cur()), nullptr);
    }
  }
}

// --- merging at if/switch joins -----------------------------------------------

// `ifs` option branches whose arms write only $audit, which the upload
// never reads, followed by `tail` and an upload to a fixed directory.
std::string audit_ladder(int ifs, const std::string& tail = "") {
  std::string php = "$audit = array();\n";
  for (int i = 0; i < ifs; ++i) {
    php += "if (isset($_POST['f" + std::to_string(i) + "'])) { $audit[] = '" +
           std::to_string(i) + "'; }\n";
  }
  php += tail;
  php += "move_uploaded_file($_FILES['f']['tmp_name'], "
         "'/u/' . $_FILES['f']['name']);\n";
  return php;
}

TEST(InterpMerge, IrrelevantArmsMergeAndWeightsCountPaths) {
  ExecRun r(audit_ladder(10));
  EXPECT_EQ(r.result.stats.paths, 1u << 10);
  ASSERT_EQ(r.result.envs.size(), 1u);
  EXPECT_EQ(r.result.envs[0].weight(), 1u << 10);
  EXPECT_LE(r.result.stats.peak_paths, 2u);
  EXPECT_EQ(r.result.sinks.size(), 1u);
  // Every descendant of the one pre-fork env merged back: the arms are
  // exhaustive, so the reachability is the pre-fork one.
  EXPECT_EQ(r.reach(0), "true");
}

TEST(InterpMerge, SwitchAndElseifArmsMerge) {
  ExecRun r(R"(
$mode = 'none';
switch ($_POST['m']) {
case 'a': $mode = 'a'; break;
case 'b': $mode = 'b'; break;
default: $mode = 'z';
}
if ($_POST['t'] == 'x') { $note = 1; } elseif ($_POST['t'] == 'y') { $note = 2; } else { $note = 3; }
move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $_FILES['f']['name']);
)");
  EXPECT_EQ(r.result.stats.paths, 9u);
  ASSERT_EQ(r.result.envs.size(), 1u);
  EXPECT_EQ(r.reach(0), "true");
  // The merged env keeps the program-order-first arm's bindings.
  EXPECT_EQ(r.value("mode"), "\"a\"");
  EXPECT_EQ(r.value("note"), "1");
}

TEST(InterpMerge, MergesStayWithinOnePreForkEnv) {
  ExecRun r(R"(
$k = 'x';
if ($_POST['a']) { $d = $k; } else { $d = 'y'; }
if ($_POST['b']) { $d = $k; }
move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $d);
)");
  EXPECT_EQ(r.result.stats.paths, 4u);
  // a&b and a&!b both hold $d = $k and are all of the `a` path's
  // descendants: they merge back to `a`. !a&b also holds $d = $k, but it
  // descends from the `!a` path, whose other arm has $d = 'y'; merging
  // across pre-fork envs would need a disjunction, so it stays apart.
  ASSERT_EQ(r.result.envs.size(), 3u);
  EXPECT_EQ(r.result.envs[0].weight(), 2u);
  EXPECT_EQ(r.reach(0), "(array_access $_POST \"a\")");
  EXPECT_EQ(r.value("d", 0), "\"x\"");
  EXPECT_EQ(r.value("d", 1), "\"x\"");
  EXPECT_EQ(r.value("d", 2), "\"y\"");
  EXPECT_EQ(r.result.sinks.size(), 3u);
}

// Each of these keeps every path apart: the live envs are the
// structural paths.
void expect_unmerged(const std::string& php, std::size_t paths,
                     std::size_t sinks) {
  SCOPED_TRACE(php);
  ExecRun r(php);
  EXPECT_EQ(r.result.stats.paths, paths);
  EXPECT_EQ(r.result.envs.size(), paths);
  EXPECT_EQ(r.result.stats.peak_paths, paths);
  for (const Env& env : r.result.envs) EXPECT_EQ(env.weight(), 1u);
  EXPECT_EQ(r.result.sinks.size(), sinks);
}

TEST(InterpMerge, ArmWritingTheDestinationStopsMerging) {
  expect_unmerged(dest_ladder(6), 64, 64);
}

TEST(InterpMerge, ArmThatEndsThePathStopsMerging) {
  // The arms write $x, which the sink never reads, but a later branch
  // on $x ends some paths: merging the arms would decide that branch
  // with one member's $x for all of them.
  std::string ladder = "$x = '';\n";
  for (int i = 0; i < 5; ++i) {
    ladder += "if (isset($_POST['f" + std::to_string(i) + "'])) { $x .= '" +
              std::to_string(i) + "'; }\n";
  }
  const auto program = [&ladder](const std::string& stop) {
    return "function note() { }\n" + ladder + "if ($x == '') { " + stop +
           " }\nmove_uploaded_file($_FILES['f']['tmp_name'], "
           "'/u/' . $_FILES['f']['name']);\n";
  };
  for (const char* stop :
       {"wp_die('no');", "return;", "exit;", "throw new Exception('x');"}) {
    expect_unmerged(program(stop), 64, 32);
  }
  // A user call (which may end the path) keeps the ladder apart too; the
  // call's own arms end nothing here, so they merge back.
  ExecRun r(program("note();"));
  EXPECT_EQ(r.result.stats.paths, 64u);
  EXPECT_EQ(r.result.envs.size(), 32u);
  EXPECT_EQ(r.result.sinks.size(), 32u);
}

TEST(InterpMerge, DynamicVariableAccessDisablesMerging) {
  for (const char* dynamic :
       {"$$name = 1;\n", "extract($_POST);\n", "$alias = &$target;\n",
        "$GLOBALS['g'] = 1;\n", "$fn = 'f'; $fn();\n",
        "compact('audit');\n", "function by_ref(&$p) { }\nby_ref($audit);\n"}) {
    expect_unmerged(audit_ladder(5, dynamic), 32, 32);
  }
}

TEST(InterpMerge, ForeachUnrollsNoFurtherThanUnmerged) {
  // Unrolling a known array stops after the first entry whose body
  // forks; a fork whose arms merged back still counts.
  const std::string body = R"(
foreach (array(1, 2, 3) as $it) {
    if (isset($_POST['k'])) { $audit[] = $it; }
}
move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $_FILES['f']['name']);
)";
  ExecRun merged(body);
  ExecRun unmerged("extract(array());\n" + body);
  EXPECT_EQ(merged.result.envs.size(), 1u);
  EXPECT_EQ(unmerged.result.envs.size(), 2u);
  EXPECT_EQ(merged.result.stats.paths, unmerged.result.stats.paths);
}

TEST(InterpMerge, RootWithoutSinkRunsUnmerged) {
  ExecRun r("if ($a) { $x = 1; } if ($b) { $y = 2; }");
  EXPECT_EQ(r.result.envs.size(), 4u);
  EXPECT_EQ(r.result.stats.paths, 4u);
}

}  // namespace
}  // namespace uchecker::core
