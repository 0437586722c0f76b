// Property tests over generated PHP programs.
//
// A deterministic grammar-driven generator produces programs mixing the
// constructs the interpreter supports (assignments, string/arith
// expressions, conditionals, loops, switch, functions, $_FILES accesses,
// sinks). For every seed the whole pipeline must uphold its invariants:
// the parser recovers or succeeds, the interpreter terminates within
// budget, every environment references valid heap-graph objects, the
// graph stays a DAG, and the detector returns a definite verdict.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/detector/detector.h"
#include "core/heapgraph/sexpr.h"
#include "core/interp/interp.h"
#include "phpast/printer.h"
#include "phpparse/parse_pool.h"
#include "phpparse/parser.h"
#include "program_generator.h"
#include "witness_resolve.h"

namespace uchecker {
namespace {

using namespace core;  // NOLINT

using testing_fuzz::ProgramGenerator;

class FuzzPipeline : public ::testing::TestWithParam<unsigned> {};

TEST_P(FuzzPipeline, InvariantsHold) {
  ProgramGenerator gen(GetParam());
  const std::string php = gen.generate();
  SCOPED_TRACE(php);

  // 1. Parsing must not crash and must not produce errors (the generator
  //    only emits supported grammar).
  SourceManager sources;
  DiagnosticSink diags;
  const FileId id = sources.add_file("fuzz.php", php);
  Arena arena;
  const phpast::PhpFile file =
      phpparse::parse_php(*sources.file(id), diags, arena);
  EXPECT_EQ(diags.error_count(), 0u) << diags.render(sources);

  // 2. The interpreter terminates within budget and maintains heap
  //    invariants.
  const Program program = build_program({&file});
  Budget budget;
  budget.max_paths = 4096;
  budget.max_objects = 200'000;
  Interpreter interp(program, diags, budget);
  AnalysisRoot root;
  root.file = &file;
  const InterpResult result = interp.run(root);

  EXPECT_GE(result.envs.size(), 1u);
  for (const Env& env : result.envs) {
    for (const auto& [name, label] : env.map()) {
      ASSERT_NE(result.graph.find(label), nullptr) << name;
    }
    if (env.cur() != kNoLabel) {
      ASSERT_NE(result.graph.find(env.cur()), nullptr);
    }
  }
  // DAG invariant: children precede parents.
  for (const Object& obj : result.graph.objects()) {
    for (Label child : obj.children) {
      ASSERT_LT(child, obj.label);
      ASSERT_NE(child, kNoLabel);
    }
    for (const ArrayEntry& e : obj.entries) {
      ASSERT_LE(e.value, result.graph.object_count());
    }
  }
  // Sinks reference valid objects and were recorded on running paths.
  for (const SinkHit& sink : result.sinks) {
    ASSERT_NE(result.graph.find(sink.src), nullptr);
    ASSERT_NE(result.graph.find(sink.dst), nullptr);
    // S-expression rendering never crashes on any recorded object.
    (void)to_sexpr(result.graph, sink.dst);
  }

  // 3. End-to-end: the detector returns a definite verdict (generated
  //    programs stay within budget).
  Application app;
  app.name = "fuzz";
  app.files.push_back(AppFile{"fuzz.php", php});
  ScanOptions options;
  options.budget = budget;
  const ScanReport report = Detector(options).scan(app);
  EXPECT_NE(report.verdict, Verdict::kAnalysisIncomplete);
  // The generator always appends a (guarded or unguarded) sink with
  // $_FILES flowing into it, so a root must exist.
  EXPECT_GE(report.roots, 1u);

  // 4. Crosscheck oracle and pruning invariance: running both engines
  //    on every root must find no root the static pass would prune that
  //    the symbolic engine flags (the pruning soundness contract), and
  //    executing the pruned roots must not change the verdict, the
  //    findings or the lints.
  ScanOptions crosscheck = options;
  crosscheck.crosscheck = true;
  const ScanReport both = Detector(crosscheck).scan(app);
  EXPECT_TRUE(both.disagreements.empty())
      << php << "\n"
      << (both.disagreements.empty() ? "" : both.disagreements[0].message);
  EXPECT_EQ(report.verdict, both.verdict) << php;
  ASSERT_EQ(report.findings.size(), both.findings.size()) << php;
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    EXPECT_EQ(report.findings[i].location, both.findings[i].location);
    EXPECT_EQ(report.findings[i].sink_name, both.findings[i].sink_name);
  }
  // Lints are computed by the same pass either way.
  ASSERT_EQ(report.lints.size(), both.lints.size());

  // 5. Summary invariance: the inter-procedural summary layer may prune
  //    more roots and emit UC107/UC108 lints, but verdicts and findings
  //    must be byte-identical with it disabled.
  ScanOptions no_summaries = options;
  no_summaries.summaries = false;
  const ScanReport plain = Detector(no_summaries).scan(app);
  EXPECT_EQ(report.verdict, plain.verdict) << php;
  ASSERT_EQ(report.findings.size(), plain.findings.size()) << php;
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    EXPECT_EQ(report.findings[i].location, plain.findings[i].location);
    EXPECT_EQ(report.findings[i].sink_name, plain.findings[i].sink_name);
    EXPECT_EQ(report.findings[i].fingerprint, plain.findings[i].fingerprint);
  }
}

// Every SAT outcome of a seed's scan is a model of its query: the query
// plus one equality per binding stays SAT (see witness_resolve.h).
TEST_P(FuzzPipeline, WitnessesSatisfyTheirQueries) {
  ProgramGenerator gen(GetParam());
  const std::string php = gen.generate();
  SCOPED_TRACE(php);
  Application app;
  app.name = "fuzz";
  app.files.push_back(AppFile{"fuzz.php", php});
  ScanOptions options;
  options.budget.max_paths = 4096;
  options.budget.max_objects = 200'000;
  options.explain = true;
  for (const Finding& f : Detector(options).scan(app).findings) {
    testing_witness::expect_witness_resolves(f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipeline,
                         ::testing::Range(1u, 41u));  // 40 seeds

// Parallel-parse invariance: parsing the same app serially and on the
// thread pool must produce byte-identical ASTs (printer dumps) and the
// same corpus verdicts/findings — thread count is a wall-clock knob,
// never a semantic one. Also the TSan scenario for the parse pool under
// a realistic multi-file workload.
TEST(FuzzParallelParse, SerialAndParallelAgree) {
  // One multi-file app per seed batch: files generated from distinct
  // seeds so they differ in shape, plus one syntactically broken file to
  // exercise per-file diagnostic isolation.
  for (unsigned base = 200; base < 204; ++base) {
    Application app;
    app.name = "fuzz-parallel";
    for (unsigned i = 0; i < 12; ++i) {
      ProgramGenerator gen(base * 31 + i);
      app.files.push_back(
          AppFile{"f" + std::to_string(i) + ".php", gen.generate()});
    }
    app.files.push_back(AppFile{"broken.php", "<?php if ($x { nope"});

    // AST identity, file by file.
    SourceManager serial_sm;
    SourceManager parallel_sm;
    std::vector<const SourceFile*> serial_files;
    std::vector<const SourceFile*> parallel_files;
    for (const AppFile& f : app.files) {
      serial_files.push_back(serial_sm.file(serial_sm.add_file(f.name, f.content)));
      parallel_files.push_back(
          parallel_sm.file(parallel_sm.add_file(f.name, f.content)));
    }
    const auto serial_units = phpparse::parse_files(serial_files, 1);
    const auto parallel_units = phpparse::parse_files(parallel_files, 4);
    ASSERT_EQ(serial_units.size(), parallel_units.size());
    for (std::size_t i = 0; i < serial_units.size(); ++i) {
      EXPECT_EQ(phpast::dump(serial_units[i].ast),
                phpast::dump(parallel_units[i].ast))
          << app.files[i].name;
      EXPECT_EQ(serial_units[i].diags.error_count(),
                parallel_units[i].diags.error_count())
          << app.files[i].name;
    }

    // Verdict identity end to end.
    ScanOptions serial_opts;
    serial_opts.parse_threads = 1;
    ScanOptions parallel_opts;
    parallel_opts.parse_threads = 4;
    const ScanReport a = Detector(serial_opts).scan(app);
    const ScanReport b = Detector(parallel_opts).scan(app);
    EXPECT_EQ(a.verdict, b.verdict) << base;
    EXPECT_EQ(a.parse_errors, b.parse_errors);
    EXPECT_EQ(a.roots, b.roots);
    ASSERT_EQ(a.findings.size(), b.findings.size());
    for (std::size_t i = 0; i < a.findings.size(); ++i) {
      EXPECT_EQ(a.findings[i].location, b.findings[i].location);
      EXPECT_EQ(a.findings[i].sink_name, b.findings[i].sink_name);
      EXPECT_EQ(a.findings[i].fingerprint, b.findings[i].fingerprint);
    }
    ASSERT_EQ(a.lints.size(), b.lints.size());
    EXPECT_EQ(a.diagnostics_by_phase, b.diagnostics_by_phase);
  }
}

// Helper-wrapped differential: move the generated program's final sink
// into a user-defined helper so the root has no lexical sink and the
// static pass must reason inter-procedurally. Verdicts must match the
// inlined shape, agree with summaries on/off, and survive crosscheck.
TEST(FuzzSummaries, HelperWrappedSinkDifferential) {
  for (unsigned seed = 300; seed < 320; ++seed) {
    ProgramGenerator gen(seed);
    std::string php = gen.generate();
    // Replace the generator's trailing sink line(s) with a helper call:
    // everything before the first sink-related line stays as prefix noise.
    const std::size_t cut = std::min(php.find("$ext = strtolower"),
                                     php.find("move_uploaded_file("));
    ASSERT_NE(cut, std::string::npos);
    const bool guarded = php.find("in_array($ext") != std::string::npos;
    std::string wrapped = php.substr(0, cut);
    if (guarded) {
      wrapped +=
          "function fuzz_store($tmp, $name) {\n"
          "    $ext = strtolower(pathinfo($name, PATHINFO_EXTENSION));\n"
          "    if (!in_array($ext, array('jpg', 'png'))) { return false; }\n"
          "    return move_uploaded_file($tmp, '/u/' . basename($name));\n"
          "}\n";
    } else {
      wrapped +=
          "function fuzz_store($tmp, $name) {\n"
          "    return move_uploaded_file($tmp, '/u/' . $name);\n"
          "}\n";
    }
    wrapped += "$fz = $_FILES['f'];\n";
    wrapped += "fuzz_store($fz['tmp_name'], $fz['name']);\n";

    Application app;
    app.name = "fuzz-helper";
    app.files.push_back(AppFile{"fuzz.php", wrapped});
    SCOPED_TRACE(wrapped);

    const ScanReport with = Detector().scan(app);
    ScanOptions off_opts;
    off_opts.summaries = false;
    const ScanReport without = Detector(off_opts).scan(app);
    EXPECT_EQ(with.verdict, without.verdict) << seed;
    EXPECT_EQ(with.verdict,
              guarded ? Verdict::kNotVulnerable : Verdict::kVulnerable)
        << seed;
    ASSERT_EQ(with.findings.size(), without.findings.size()) << seed;
    for (std::size_t i = 0; i < with.findings.size(); ++i) {
      EXPECT_EQ(with.findings[i].fingerprint, without.findings[i].fingerprint);
    }

    ScanOptions cross_opts;
    cross_opts.crosscheck = true;
    const ScanReport cross = Detector(cross_opts).scan(app);
    EXPECT_TRUE(cross.disagreements.empty()) << seed;
    EXPECT_NE(cross.verdict, Verdict::kAnalysisDisagreement) << seed;
  }
}

// The unguarded variant must always be detected; the whitelist-guarded
// variant never. Split by the generator's own coin flip.
TEST(FuzzVerdict, GuardDecidesVerdict) {
  for (unsigned seed = 100; seed < 120; ++seed) {
    ProgramGenerator gen(seed);
    const std::string php = gen.generate();
    const bool guarded = php.find("in_array($ext") != std::string::npos;
    Application app;
    app.name = "fuzz-verdict";
    app.files.push_back(AppFile{"fuzz.php", php});
    const ScanReport report = Detector().scan(app);
    SCOPED_TRACE(php);
    if (guarded) {
      EXPECT_EQ(report.verdict, Verdict::kNotVulnerable) << seed;
    } else {
      EXPECT_EQ(report.verdict, Verdict::kVulnerable) << seed;
    }
  }
}

// --- merging at if/switch joins --------------------------------------------

InterpResult interpret(const std::string& php, Budget budget) {
  SourceManager sources;
  DiagnosticSink diags;
  Arena arena;
  const phpast::PhpFile file =
      phpparse::parse_php(*sources.file(sources.add_file("m.php", php)),
                          diags, arena);
  const Program program = build_program({&file});
  AnalysisRoot root;
  root.file = &file;
  return Interpreter(program, diags, budget).run(root);
}

Budget fuzz_budget() {
  Budget budget;
  budget.max_paths = 4096;
  budget.max_objects = 200'000;
  return budget;
}

// The findings of a scan, as (dst, fingerprint). The
// generator's upload has one fixed destination, so whichever path the
// first finding comes from, it names the same dst.
std::set<std::string> findings_of(const std::string& php, Verdict& verdict) {
  Application app;
  app.name = "fuzz-merge";
  app.files.push_back(AppFile{"fuzz.php", php});
  ScanOptions options;
  options.budget = fuzz_budget();
  const ScanReport report = Detector(options).scan(app);
  verdict = report.verdict;
  std::set<std::string> out;
  for (const Finding& f : report.findings) {
    out.insert(f.dst_sexpr + " | " + f.fingerprint);
  }
  return out;
}

// The generator's program with `lines` inserted just before its final
// upload (the sink tail the generator always appends).
std::string insert_before_sink(const std::string& php,
                               const std::string& lines) {
  const std::size_t cut = std::min(php.find("$ext = strtolower"),
                                   php.find("move_uploaded_file("));
  return php.substr(0, cut) + lines + php.substr(cut);
}

// A name-based slice cannot follow a variable variable, extract() or a
// reference, so any of them switches merging off for the root. That
// gives an unmerged run of the same program to check the merged one
// against: same structural path count, same verdict, same findings.
TEST(FuzzMerge, UnmergedRunAgrees) {
  const char* const kStoppers[] = {"$$merge_off = 0;", "extract(array());",
                                   "$merge_alias = &$merge_target;"};
  for (unsigned seed = 1; seed <= 20; ++seed) {
    ProgramGenerator gen(seed);
    const std::string php = gen.generate();
    const std::string unmerged =
        "<?php\n" + std::string(kStoppers[seed % 3]) + php.substr(5);
    SCOPED_TRACE(unmerged);

    const InterpResult a = interpret(php, fuzz_budget());
    const InterpResult b = interpret(unmerged, fuzz_budget());
    EXPECT_EQ(a.stats.paths, b.stats.paths);
    EXPECT_EQ(b.envs.size(), b.stats.paths);
    for (const Env& env : b.envs) EXPECT_EQ(env.weight(), 1u);
    EXPECT_LE(a.envs.size(), b.envs.size());

    Verdict va = Verdict::kAnalysisError;
    Verdict vb = Verdict::kAnalysisError;
    const std::set<std::string> fa = findings_of(php, va);
    const std::set<std::string> fb = findings_of(unmerged, vb);
    EXPECT_EQ(va, vb);
    EXPECT_EQ(fa, fb);
  }
}

// Metamorphic: ladders of if/elseif/switch whose arms write only
// variables the sink never reads, inserted before the sink, merge back
// and leave the verdict, every finding's dst and its fingerprint as
// they were.
TEST(FuzzMerge, IrrelevantLaddersLeaveFindingsUnchanged) {
  for (unsigned seed = 1; seed <= 15; ++seed) {
    ProgramGenerator gen(seed);
    const std::string php = gen.generate();
    unsigned state = seed * 7919u + 13u;
    const auto next = [&state](unsigned bound) {
      state = state * 1664525u + 1013904223u;
      return (state >> 8) % bound;
    };
    std::string ladders;
    const unsigned count = 1 + next(3);
    for (unsigned l = 0; l < count; ++l) {
      const std::string tag = std::to_string(l);
      if (next(2) == 0) {
        const unsigned ifs = 1 + next(4);
        for (unsigned i = 0; i < ifs; ++i) {
          const std::string key = "'lad" + tag + "_" + std::to_string(i) + "'";
          ladders += "if (isset($_POST[" + key + "])) { $lad_audit[] = " +
                     key + "; }";
          if (next(2) == 0) {
            ladders += " elseif ($_POST['lad_alt'] == " + key +
                       ") { $lad_note = 1; } else { $lad_note = 2; }";
          }
          ladders += "\n";
        }
      } else {
        ladders += "switch ($_POST['lad_mode" + tag + "']) {\n";
        const unsigned ways = 2 + next(3);
        for (unsigned w = 0; w < ways; ++w) {
          ladders += "case 'm" + std::to_string(w) + "': $lad_mode = 'm" +
                     std::to_string(w) + "'; break;\n";
        }
        ladders += "default: $lad_mode = 'none';\n}\n";
      }
    }
    const std::string laddered = insert_before_sink(php, ladders);
    SCOPED_TRACE(laddered);

    Verdict before = Verdict::kAnalysisError;
    Verdict after = Verdict::kAnalysisError;
    const std::set<std::string> fa = findings_of(php, before);
    const std::set<std::string> fb = findings_of(laddered, after);
    EXPECT_EQ(before, after);
    EXPECT_EQ(fa, fb);
    // The ladders merged back: no more live paths at the end than before.
    const InterpResult a = interpret(php, fuzz_budget());
    const InterpResult b = interpret(laddered, fuzz_budget());
    EXPECT_FALSE(b.stats.budget_exhausted);
    EXPECT_LE(b.envs.size(), a.envs.size());
  }
}

// Arms that write the destination, call wp_die or return keep every
// path apart: the live environments are the structural paths.
TEST(FuzzMerge, SinkRelevantArmsKeepEveryPathLive) {
  for (unsigned seed = 1; seed <= 40; ++seed) {
    unsigned state = seed * 104729u + 7u;
    const auto next = [&state](unsigned bound) {
      state = state * 1664525u + 1013904223u;
      return (state >> 8) % bound;
    };
    std::string php = "<?php\n$dir = '/u/';\n";
    const unsigned ifs = 2 + next(6);
    for (unsigned i = 0; i < ifs; ++i) {
      const std::string n = std::to_string(i);
      const char* const kThen[] = {"$dir .= 'a", "wp_die('", "return; //"};
      const unsigned kind = next(3);
      php += "if (isset($_POST['k" + n + "'])) { " + kThen[kind] + n +
             (kind == 0 ? "/';" : kind == 1 ? "');" : "") + " }";
      if (next(2) == 0) php += " else { $dir .= 'b" + n + "/'; }";
      php += "\n";
    }
    php += "move_uploaded_file($_FILES['f']['tmp_name'], "
           "$dir . $_FILES['f']['name']);\n";
    SCOPED_TRACE(php);
    const InterpResult r = interpret(php, fuzz_budget());
    EXPECT_EQ(r.envs.size(), r.stats.paths);
    EXPECT_EQ(r.stats.peak_paths, r.stats.paths);
    for (const Env& env : r.envs) EXPECT_EQ(env.weight(), 1u);
  }
}

}  // namespace
}  // namespace uchecker
