// Tests for the inter-procedural function-summary layer
// (core/staticpass/summaries): SCC condensation order, recursive-SCC
// conservatism, context-insensitive facts, on-demand summarization
// (only what a query reaches, the same facts in any query order),
// memoized instantiation vs.
// inlined ground truth, and the end-to-end pruning/lint behaviour that
// only summaries enable (UC107/UC108, summary_pruned roots).
#include "core/staticpass/summaries.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/callgraph/callgraph.h"
#include "core/detector/detector.h"
#include "core/staticpass/absdomain.h"
#include "corpus/corpus.h"
#include "phpparse/parser.h"
#include "program_generator.h"
#include "support/diag.h"
#include "support/source.h"

namespace uchecker::core {
namespace {

using staticpass::AbsVal;
using staticpass::FunctionFacts;
using staticpass::SummaryInstance;
using staticpass::SummaryStore;

struct Fixture {
  SourceManager sources;
  DiagnosticSink diags;
  std::vector<Arena> arenas;  // declared before files: ASTs live here
  std::vector<phpast::PhpFile> files;
  Program program;
  CallGraph graph;
  SinkRegistry sinks;
  staticpass::StaticPassOptions options;
  SummaryStore store;

  explicit Fixture(const std::string& php)
      : Fixture(std::vector<std::pair<std::string, std::string>>{
            {"a.php", php}}) {}

  explicit Fixture(
      const std::vector<std::pair<std::string, std::string>>& sources_in)
      : store((build_all(sources_in), program), graph, sources, sinks,
              options) {}

 private:
  // Comma-operator helper so `store` can be constructed last in the
  // initializer list after everything it references exists.
  void build_all(
      const std::vector<std::pair<std::string, std::string>>& sources_in) {
    for (const auto& [name, content] : sources_in) {
      const FileId id = sources.add_file(name, content);
      arenas.emplace_back();
      files.push_back(
          phpparse::parse_php(*sources.file(id), diags, arenas.back()));
    }
    std::vector<const phpast::PhpFile*> ptrs;
    for (const auto& f : files) ptrs.push_back(&f);
    program = build_program(ptrs);
    graph = build_call_graph(program);
  }
};

int scc_of(SummaryStore& store, const std::string& name) {
  const FunctionFacts* f = store.facts(name);
  return f == nullptr ? -1 : f->scc;
}

// ---------------------------------------------------------------------------
// SCC condensation.

TEST(Summaries, SccEmissionIsCalleeFirst) {
  Fixture f(R"php(<?php
function a() { b(); }
function b() { c(); }
function c() { return 1; }
)php");
  // Callees must be emitted before callers: a's SCC index is the largest.
  EXPECT_GT(scc_of(f.store, "a"), scc_of(f.store, "b"));
  EXPECT_GT(scc_of(f.store, "b"), scc_of(f.store, "c"));
  for (const FunctionFacts* facts :
       {f.store.facts("a"), f.store.facts("b"), f.store.facts("c")}) {
    ASSERT_NE(facts, nullptr);
    EXPECT_FALSE(facts->recursive);
  }
}

TEST(Summaries, MutualRecursionCondensesToOneScc) {
  Fixture f(R"php(<?php
function ping($n) { if ($n > 0) { pong($n - 1); } }
function pong($n) { if ($n > 0) { ping($n - 1); } }
function leaf() { return 2; }
)php");
  EXPECT_EQ(scc_of(f.store, "ping"), scc_of(f.store, "pong"));
  EXPECT_NE(scc_of(f.store, "ping"), scc_of(f.store, "leaf"));
  ASSERT_NE(f.store.facts("ping"), nullptr);
  EXPECT_TRUE(f.store.facts("ping")->recursive);
  EXPECT_TRUE(f.store.facts("pong")->recursive);
  EXPECT_FALSE(f.store.facts("leaf")->recursive);
  // The condensation lists the pair as one SCC with members sorted.
  bool found_pair = false;
  for (const std::vector<std::string>& scc : f.store.sccs()) {
    if (scc.size() == 2) {
      EXPECT_EQ(scc[0], "ping");
      EXPECT_EQ(scc[1], "pong");
      found_pair = true;
    }
  }
  EXPECT_TRUE(found_pair);
}

TEST(Summaries, SelfLoopIsRecursive) {
  Fixture f("<?php function rec($n) { return $n > 0 ? rec($n - 1) : 0; }");
  ASSERT_NE(f.store.facts("rec"), nullptr);
  EXPECT_TRUE(f.store.facts("rec")->recursive);
}

// ---------------------------------------------------------------------------
// Context-insensitive facts.

TEST(Summaries, SinkReachabilityIsTransitive) {
  Fixture f(R"php(<?php
function outer($t, $d) { return inner($t, $d); }
function inner($t, $d) { return move_uploaded_file($t, $d); }
function clean($x) { return $x + 1; }
)php");
  const FunctionFacts* inner = f.store.facts("inner");
  const FunctionFacts* outer = f.store.facts("outer");
  const FunctionFacts* clean = f.store.facts("clean");
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(clean, nullptr);
  EXPECT_TRUE(inner->has_local_sink);
  EXPECT_TRUE(inner->reaches_sink);
  EXPECT_FALSE(outer->has_local_sink);
  EXPECT_TRUE(outer->reaches_sink);
  EXPECT_FALSE(clean->reaches_sink);
  EXPECT_TRUE(f.store.function_reaches_sink("outer"));
  EXPECT_FALSE(f.store.function_reaches_sink("clean"));
  // The UC107 witness chain walks caller -> sink holder.
  ASSERT_GE(outer->sink_chain.size(), 2u);
  EXPECT_EQ(outer->sink_chain.front(), "outer");
  EXPECT_EQ(outer->sink_chain.back(), "inner");
}

TEST(Summaries, CallbackBuiltinAndDynamicCallEscape) {
  Fixture f(R"php(<?php
function uses_callback($items) { return array_map('trim', $items); }
function uses_dynamic($fn) { return $fn(); }
function plain($x) { return strlen($x); }
)php");
  ASSERT_NE(f.store.facts("uses_callback"), nullptr);
  EXPECT_TRUE(f.store.facts("uses_callback")->escapes);
  EXPECT_TRUE(f.store.facts("uses_dynamic")->escapes);
  EXPECT_FALSE(f.store.facts("plain")->escapes);
  // An escaped body might do anything, so it "reaches a sink".
  EXPECT_TRUE(f.store.function_reaches_sink("uses_callback"));
  EXPECT_TRUE(f.store.function_reaches_sink("uses_dynamic"));
  // Escape status propagates to callers like sink reachability.
  EXPECT_TRUE(staticpass::callback_builtins().contains("array_map"));
  EXPECT_FALSE(staticpass::callback_builtins().contains("strlen"));
}

TEST(Summaries, ReadsFilesPropagatesUpward) {
  Fixture f(R"php(<?php
function reader() { return $_FILES['f']['name']; }
function caller() { return reader(); }
function unrelated() { return 7; }
)php");
  EXPECT_TRUE(f.store.facts("reader")->reads_files);
  EXPECT_TRUE(f.store.facts("caller")->reads_files);
  EXPECT_FALSE(f.store.facts("unrelated")->reads_files);
}

TEST(Summaries, FactsForUnknownFunctionIsNull) {
  Fixture f("<?php function g() { return 1; }");
  EXPECT_EQ(f.store.facts("nonexistent"), nullptr);
  EXPECT_EQ(f.store.facts("strlen"), nullptr);
}

// ---------------------------------------------------------------------------
// On-demand summarization.

TEST(Summaries, OnlyReachableFunctionsAreSummarized) {
  std::string php = R"php(<?php
function handler() { return helper(); }
function helper() { return 1; }
)php";
  for (int i = 0; i < 200; ++i) {
    // A chain of unrelated functions, each calling the next.
    php += "function unrelated_" + std::to_string(i) + "() { return " +
           (i + 1 < 200 ? "unrelated_" + std::to_string(i + 1) + "()"
                        : std::string("0")) +
           "; }\n";
  }
  Fixture f(php);
  EXPECT_TRUE(f.store.sccs().empty());  // construction summarizes nothing
  ASSERT_NE(f.store.facts("handler"), nullptr);
  const std::vector<std::vector<std::string>> expected = {{"helper"},
                                                          {"handler"}};
  EXPECT_EQ(f.store.sccs(), expected);
  // A finished component is reused, not summarized again.
  ASSERT_NE(f.store.facts("helper"), nullptr);
  EXPECT_EQ(f.store.sccs(), expected);
  EXPECT_EQ(f.store.facts("nonexistent"), nullptr);
  EXPECT_EQ(f.store.sccs(), expected);
}

// Queries every function of `f`'s program in ascending name order in
// one store and in descending order in another: every fact but the
// component index must agree, and in both stores every component must
// come after the components it reaches. A method is queried by its own
// key; its bare-name entry shares its facts.
void expect_facts_independent_of_query_order(const Fixture& f) {
  std::vector<std::string> names;
  for (const auto& [name, info] : f.program.functions) {
    if (name == info.name) names.push_back(name);
  }
  SummaryStore up(f.program, f.graph, f.sources, f.sinks, f.options);
  SummaryStore down(f.program, f.graph, f.sources, f.sinks, f.options);
  for (const std::string& name : names) ASSERT_NE(up.facts(name), nullptr);
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    ASSERT_NE(down.facts(*it), nullptr);
  }
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const FunctionFacts& a = *up.facts(name);
    const FunctionFacts& b = *down.facts(name);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.recursive, b.recursive);
    EXPECT_EQ(a.has_local_sink, b.has_local_sink);
    EXPECT_EQ(a.reaches_sink, b.reaches_sink);
    EXPECT_EQ(a.reads_files, b.reads_files);
    EXPECT_EQ(a.escapes, b.escapes);
    EXPECT_EQ(a.sink_chain, b.sink_chain);
  }
  for (SummaryStore* store : {&up, &down}) {
    const std::vector<std::vector<std::string>>& sccs = store->sccs();
    std::map<std::string, int> position;
    for (std::size_t i = 0; i < sccs.size(); ++i) {
      for (const std::string& member : sccs[i]) {
        EXPECT_EQ(store->facts(member)->scc, static_cast<int>(i)) << member;
        position[member] = static_cast<int>(i);
      }
    }
    EXPECT_EQ(position.size(), names.size());
    // A fresh store asked about one component summarizes exactly the
    // components that component reaches, finishing it last.
    for (std::size_t i = 0; i < sccs.size(); ++i) {
      SummaryStore alone(f.program, f.graph, f.sources, f.sinks, f.options);
      ASSERT_NE(alone.facts(sccs[i].front()), nullptr);
      ASSERT_FALSE(alone.sccs().empty());
      EXPECT_EQ(alone.sccs().back(), sccs[i]);
      for (const std::vector<std::string>& reached : alone.sccs()) {
        EXPECT_LE(position[reached.front()], static_cast<int>(i))
            << sccs[i].front() << " reaches " << reached.front();
      }
    }
  }
}

std::vector<std::pair<std::string, std::string>> sources_of(
    const Application& app) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const AppFile& file : app.files) {
    out.emplace_back(file.name, file.content);
  }
  return out;
}

TEST(Summaries, FactsDoNotDependOnQueryOrder) {
  // Every app `corpus_verdicts --suite all` scans.
  std::vector<corpus::CorpusEntry> entries = corpus::full_corpus();
  for (corpus::CorpusEntry& e : corpus::helper_sink_suite()) {
    entries.push_back(std::move(e));
  }
  for (const corpus::CorpusEntry& entry : entries) {
    SCOPED_TRACE(entry.app.name);
    const Fixture f(sources_of(entry.app));
    expect_facts_independent_of_query_order(f);
  }
  // The property fuzzer's generated programs.
  for (unsigned seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    testing_fuzz::ProgramGenerator gen(seed);
    const Fixture f(gen.generate());
    expect_facts_independent_of_query_order(f);
  }
  // Two classes with a same-named method, reached by static, method and
  // plain calls: each declaration is summarized once, under its own key.
  Fixture classes(R"php(<?php
class Safe { static function save($f) { return clean($f); } }
class Up {
    static function save($f) { move_uploaded_file($f, '/u/' . $f); }
    function run($f) { $this->save($f); }
}
function clean($f) { return basename($f); }
Up::save($_FILES['x']);
save($_FILES['y']);
)php");
  expect_facts_independent_of_query_order(classes);
  EXPECT_EQ(classes.store.facts("save"), classes.store.facts("safe::save"));
}

// ---------------------------------------------------------------------------
// Context-keyed instantiation.

TEST(Summaries, GuardedHelperInstantiatesSafe) {
  Fixture f(R"php(<?php
function store_upload($tmp, $name, $dir) {
    $ext = strtolower(pathinfo($name, PATHINFO_EXTENSION));
    if (!in_array($ext, array('jpg', 'png'))) { return false; }
    return move_uploaded_file($tmp, $dir . basename($name));
}
)php");
  const std::vector<AbsVal> args = {
      staticpass::files(AbsVal::Kind::kFilesData, "f"),
      staticpass::files(AbsVal::Kind::kFilesName, "f"),
      staticpass::top()};
  const SummaryInstance& inst = f.store.instantiate("store_upload", args);
  EXPECT_TRUE(inst.analyzable);
  EXPECT_TRUE(inst.all_sinks_safe);
  ASSERT_EQ(inst.sinks.size(), 1u);
}

TEST(Summaries, UnguardedHelperInstantiatesUnsafe) {
  Fixture f(R"php(<?php
function store_upload($tmp, $name, $dir) {
    return move_uploaded_file($tmp, $dir . $name);
}
)php");
  const std::vector<AbsVal> args = {
      staticpass::files(AbsVal::Kind::kFilesData, "f"),
      staticpass::files(AbsVal::Kind::kFilesName, "f"),
      staticpass::top()};
  const SummaryInstance& inst = f.store.instantiate("store_upload", args);
  EXPECT_TRUE(inst.analyzable);
  EXPECT_FALSE(inst.all_sinks_safe);
  EXPECT_FALSE(inst.reason.empty());
}

TEST(Summaries, InstantiationIsContextSensitive) {
  // The same helper is safe or unsafe depending on what flows in: with a
  // clean name the destination never carries client-chosen text.
  Fixture f(R"php(<?php
function persist($tmp, $name) {
    return move_uploaded_file($tmp, 'uploads/' . $name);
}
)php");
  const SummaryInstance& tainted = f.store.instantiate(
      "persist", {staticpass::files(AbsVal::Kind::kFilesData, "f"),
                  staticpass::files(AbsVal::Kind::kFilesName, "f")});
  EXPECT_FALSE(tainted.all_sinks_safe);
  const SummaryInstance& clean = f.store.instantiate(
      "persist", {staticpass::files(AbsVal::Kind::kFilesData, "f"),
                  staticpass::safe_atom()});
  EXPECT_TRUE(clean.all_sinks_safe);
}

TEST(Summaries, InstantiationIsMemoized) {
  Fixture f("<?php function id($x) { return $x; }");
  const std::vector<AbsVal> args = {staticpass::safe_atom()};
  (void)f.store.instantiate("id", args);
  EXPECT_EQ(f.store.stats().cache_misses, 1u);
  EXPECT_EQ(f.store.stats().cache_hits, 0u);
  const SummaryInstance& again = f.store.instantiate("id", args);
  EXPECT_EQ(f.store.stats().cache_misses, 1u);
  EXPECT_EQ(f.store.stats().cache_hits, 1u);
  EXPECT_EQ(again.return_value.kind, AbsVal::Kind::kSafeAtom);
  // A different argument tuple is a different memo entry.
  (void)f.store.instantiate("id", {staticpass::top()});
  EXPECT_EQ(f.store.stats().cache_misses, 2u);
}

TEST(Summaries, RecursiveFunctionDegradesToTop) {
  // Must terminate (no infinite instantiation) and match the symbolic
  // interpreter, which replaces recursive calls with a fresh symbol.
  Fixture f("<?php function rec($n) { return $n > 0 ? rec($n - 1) : 0; }");
  const SummaryInstance& inst =
      f.store.instantiate("rec", {staticpass::safe_atom()});
  EXPECT_FALSE(inst.analyzable);
  EXPECT_EQ(inst.return_value.kind, AbsVal::Kind::kTop);
}

TEST(Summaries, EscapedFunctionDegradesToTop) {
  Fixture f("<?php function esc($f) { return $f(); }");
  const SummaryInstance& inst =
      f.store.instantiate("esc", {staticpass::top()});
  EXPECT_FALSE(inst.analyzable);
  EXPECT_EQ(inst.return_value.kind, AbsVal::Kind::kTop);
}

TEST(Summaries, ReturnValueJoinsAllReturns) {
  Fixture f(R"php(<?php
function pick($name) {
    if (strlen($name) > 3) { return $name; }
    return 'fallback.jpg';
}
)php");
  const SummaryInstance& inst = f.store.instantiate(
      "pick", {staticpass::files(AbsVal::Kind::kFilesName, "f")});
  // join(kFilesName, kConst) = top: the caller must assume the worst.
  EXPECT_EQ(inst.return_value.kind, AbsVal::Kind::kTop);
}

// ---------------------------------------------------------------------------
// Summary vs. inlined ground truth: wrapping a body in a helper must not
// change the scan verdict (summaries only move the proof inter-procedural).

ScanReport scan_snippet(const std::string& php, bool summaries) {
  Application app;
  app.name = "snippet";
  app.files.push_back(AppFile{"snippet.php", php});
  ScanOptions options;
  options.summaries = summaries;
  return Detector(std::move(options)).scan(app);
}

TEST(Summaries, HelperWrappedVulnMatchesInlined) {
  const std::string inlined = R"php(<?php
move_uploaded_file($_FILES['f']['tmp_name'],
                   'uploads/' . $_FILES['f']['name']);
)php";
  const std::string wrapped = R"php(<?php
function persist($tmp, $name) {
    move_uploaded_file($tmp, 'uploads/' . $name);
}
persist($_FILES['f']['tmp_name'], $_FILES['f']['name']);
)php";
  for (const bool with_summaries : {true, false}) {
    EXPECT_EQ(scan_snippet(inlined, with_summaries).verdict,
              Verdict::kVulnerable);
    EXPECT_EQ(scan_snippet(wrapped, with_summaries).verdict,
              Verdict::kVulnerable);
  }
}

TEST(Summaries, HelperWrappedBenignMatchesInlinedAndPrunes) {
  // The taint is read in the root, which itself has no lexical sink; the
  // only way to prune it is to prove persist() safe at the call site.
  // (When the call's arguments are the $_FILES reads themselves, the
  // locality pass makes persist() the root and binds the arguments there
  // — intraprocedural, no summary needed; this shape forces the
  // inter-procedural path.)
  const std::string wrapped = R"php(<?php
function persist($tmp, $name) {
    $ext = strtolower(pathinfo($name, PATHINFO_EXTENSION));
    if (!in_array($ext, array('jpg', 'png'))) { return false; }
    return move_uploaded_file($tmp, 'uploads/' . basename($name));
}
$f = $_FILES['f'];
persist($f['tmp_name'], $f['name']);
)php";
  const ScanReport with = scan_snippet(wrapped, true);
  EXPECT_EQ(with.verdict, Verdict::kNotVulnerable);
  // Summaries prove the helper safe at the call site; the root prunes
  // without symbolic execution and the prune is attributed to summaries.
  EXPECT_EQ(with.pruned_roots, 1u);
  EXPECT_EQ(with.summary_pruned_roots, 1u);
  EXPECT_EQ(with.paths, 0u);
  // Without summaries the verdict is identical but costs the interpreter.
  const ScanReport without = scan_snippet(wrapped, false);
  EXPECT_EQ(without.verdict, Verdict::kNotVulnerable);
  EXPECT_EQ(without.summary_pruned_roots, 0u);
}

}  // namespace
}  // namespace uchecker::core
