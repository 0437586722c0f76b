// Experiment E5: per-phase micro-costs of the pipeline (google-benchmark).
//
// Table III's Time column aggregates parsing, locality analysis, symbolic
// execution, translation and solving. These benchmarks separate the
// phases on a representative corpus app so the cost structure is visible.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "core/callgraph/callgraph.h"
#include "core/callgraph/locality.h"
#include "core/detector/detector.h"
#include "core/interp/interp.h"
#include "core/translate/translate.h"
#include "core/vulnmodel/vulnmodel.h"
#include "corpus/corpus.h"
#include "phplex/lexer.h"
#include "phpparse/parse_pool.h"
#include "phpparse/parser.h"
#include "smt/solver.h"
#include "support/scan_events.h"
#include "support/telemetry.h"

// Binary-wide allocation counter so BM_Lex can prove the "lexing never
// heap-allocates per token" contract as a measured number instead of a
// comment. Arena blocks come from std::malloc and are deliberately NOT
// counted — the counter sees exactly the operator-new traffic the arena
// was introduced to eliminate.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace uchecker;          // NOLINT
using namespace uchecker::core;    // NOLINT

const corpus::CorpusEntry& sample_app() {
  // Foxypress: mid-sized (15.8K LoC), 64 paths.
  static const auto* entry = new corpus::CorpusEntry(
      uchecker::corpus::known_vulnerable()[2]);
  return *entry;
}

struct Parsed {
  SourceManager sources;
  DiagnosticSink diags;
  std::vector<Arena> arenas;  // one per file; moves preserve AST pointers
  std::vector<phpast::PhpFile> files;
  Program program;
};

Parsed parse_sample() {
  Parsed p;
  for (const AppFile& f : sample_app().app.files) {
    const FileId id = p.sources.add_file(f.name, f.content);
    p.arenas.emplace_back();
    p.files.push_back(
        phpparse::parse_php(*p.sources.file(id), p.diags, p.arenas.back()));
  }
  std::vector<const phpast::PhpFile*> ptrs;
  for (const auto& f : p.files) ptrs.push_back(&f);
  p.program = build_program(ptrs);
  return p;
}

// Arena front end over the sample app: per file, one fresh arena and a
// full lex+parse (files registered once outside the loop, statements
// counted, nothing else).
void BM_Parse(benchmark::State& state) {
  SourceManager sources;
  std::vector<const SourceFile*> files;
  for (const AppFile& f : sample_app().app.files) {
    files.push_back(sources.file(sources.add_file(f.name, f.content)));
  }
  for (auto _ : state) {
    std::size_t statements = 0;
    for (const SourceFile* f : files) {
      DiagnosticSink diags;
      Arena arena;
      const phpast::PhpFile file = phpparse::parse_php(*f, diags, arena);
      statements += file.statements.size();
    }
    benchmark::DoNotOptimize(statements);
  }
  state.counters["loc"] = static_cast<double>(sources.total_loc());
}
BENCHMARK(BM_Parse)->Unit(benchmark::kMillisecond);

// Lexing alone, across every file of the sample app. The contract under
// test: tokens are arena-backed views, so the only operator-new traffic
// is the per-file token vector's growth — fractions of an allocation per
// token, not one-plus (EXPERIMENTS.md E5 records the last same-run
// comparison with the old per-token std::string lexer).
void BM_Lex(benchmark::State& state) {
  SourceManager sources;
  std::vector<const SourceFile*> files;
  std::uint64_t bytes = 0;
  for (const AppFile& f : sample_app().app.files) {
    files.push_back(sources.file(sources.add_file(f.name, f.content)));
    bytes += f.content.size();
  }
  std::uint64_t tokens = 0;
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    tokens = 0;
    const std::uint64_t before = heap_allocs();
    Arena arena;
    for (const SourceFile* f : files) {
      DiagnosticSink diags;
      const auto toks = phplex::lex_file(*f, diags, arena);
      tokens += toks.size();
      benchmark::DoNotOptimize(toks.data());
    }
    allocs = heap_allocs() - before;
    state.SetBytesProcessed(state.bytes_processed() +
                            static_cast<std::int64_t>(bytes));
  }
  state.counters["tokens"] = static_cast<double>(tokens);
  state.counters["heap_allocs"] = static_cast<double>(allocs);
  state.counters["allocs_per_token"] =
      tokens == 0 ? 0.0
                  : static_cast<double>(allocs) / static_cast<double>(tokens);
}
BENCHMARK(BM_Lex)->Unit(benchmark::kMillisecond);

// Per-file parse fan-out on the same app: the parse pool with 1..N
// workers, one arena per file. Thread count 1 is the serial baseline the
// speedup is measured against.
void BM_ParseParallel(benchmark::State& state) {
  SourceManager sources;
  std::vector<const SourceFile*> files;
  for (const AppFile& f : sample_app().app.files) {
    files.push_back(sources.file(sources.add_file(f.name, f.content)));
  }
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto units = phpparse::parse_files(files, threads);
    benchmark::DoNotOptimize(units.size());
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["files"] = static_cast<double>(files.size());
}
BENCHMARK(BM_ParseParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_CallGraphAndLocality(benchmark::State& state) {
  Parsed p = parse_sample();
  for (auto _ : state) {
    const CallGraph graph = build_call_graph(p.program);
    const LocalityResult locality =
        analyze_locality(p.program, graph, p.sources);
    benchmark::DoNotOptimize(locality.roots.size());
  }
}
BENCHMARK(BM_CallGraphAndLocality)->Unit(benchmark::kMillisecond);

void BM_SymbolicExecution(benchmark::State& state) {
  Parsed p = parse_sample();
  const CallGraph graph = build_call_graph(p.program);
  const LocalityResult locality = analyze_locality(p.program, graph, p.sources);
  std::size_t paths = 0;
  for (auto _ : state) {
    Interpreter interp(p.program, p.diags);
    const InterpResult result = interp.run(locality.roots.at(0));
    paths = result.stats.paths;
    benchmark::DoNotOptimize(result.stats.objects);
  }
  state.counters["paths"] = static_cast<double>(paths);
}
BENCHMARK(BM_SymbolicExecution)->Unit(benchmark::kMillisecond);

void BM_TranslateAndSolve(benchmark::State& state) {
  Parsed p = parse_sample();
  const CallGraph graph = build_call_graph(p.program);
  const LocalityResult locality = analyze_locality(p.program, graph, p.sources);
  Interpreter interp(p.program, p.diags);
  const InterpResult exec = interp.run(locality.roots.at(0));
  for (auto _ : state) {
    smt::Checker checker;
    const VulnModelResult result = check_sinks(exec, checker);
    benchmark::DoNotOptimize(result.vulnerable);
  }
}
BENCHMARK(BM_TranslateAndSolve)->Unit(benchmark::kMillisecond);

void BM_EndToEnd(benchmark::State& state) {
  Detector detector;
  for (auto _ : state) {
    const ScanReport report = detector.scan(sample_app().app);
    benchmark::DoNotOptimize(report.verdict);
  }
}
BENCHMARK(BM_EndToEnd)->Unit(benchmark::kMillisecond);

// Cost of the pre-symbolic static pass alone: analyze_root over every
// locality root of the sample app. Counters report the prune rate and
// the pass throughput in KLoC/s — the pass is pure AST work (no solver,
// no interpreter), so it should stay orders of magnitude cheaper than
// the symbolic execution it skips.
void BM_StaticPass(benchmark::State& state) {
  Parsed p = parse_sample();
  const CallGraph graph = build_call_graph(p.program);
  const LocalityResult locality = analyze_locality(p.program, graph, p.sources);
  const SinkRegistry sinks;
  const staticpass::StaticPassOptions options;
  std::size_t pruned = 0;
  std::size_t lints = 0;
  for (auto _ : state) {
    pruned = 0;
    lints = 0;
    for (const AnalysisRoot& root : locality.roots) {
      const staticpass::RootAnalysis analysis = staticpass::analyze_root(
          p.program, graph, root, p.sources, sinks, options);
      if (analysis.prunable) ++pruned;
      lints += analysis.lints.size();
    }
    benchmark::DoNotOptimize(pruned);
  }
  state.counters["roots"] = static_cast<double>(locality.roots.size());
  state.counters["pruned"] = static_cast<double>(pruned);
  state.counters["lints"] = static_cast<double>(lints);
  state.counters["kloc_per_s"] = benchmark::Counter(
      static_cast<double>(p.sources.total_loc()) / 1000.0,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_StaticPass)->Unit(benchmark::kMillisecond);

// The same end-to-end scan under crosscheck: every root runs
// symbolically, pruned or not. The gap to BM_EndToEnd is the wall-clock
// the pruning saves on this app.
void BM_EndToEndCrosscheck(benchmark::State& state) {
  ScanOptions options;
  options.crosscheck = true;
  Detector detector(options);
  for (auto _ : state) {
    const ScanReport report = detector.scan(sample_app().app);
    benchmark::DoNotOptimize(report.verdict);
  }
}
BENCHMARK(BM_EndToEndCrosscheck)->Unit(benchmark::kMillisecond);

// Telemetry overhead contract: BM_EndToEnd is the unattached case (the
// single null-check no-op path); this is the same scan with a trace
// attached, collecting spans, solver samples and progress samples. The
// gap between the two is the observability cost; ci/check.sh gates the
// ratio of the two medians, measured in the same run.
void BM_EndToEndTelemetry(benchmark::State& state) {
  uchecker::telemetry::Telemetry telemetry;
  ScanOptions options;
  options.telemetry = &telemetry;
  Detector detector(options);
  for (auto _ : state) {
    const ScanReport report = detector.scan(sample_app().app);
    benchmark::DoNotOptimize(report.verdict);
  }
  state.counters["traces"] = static_cast<double>(telemetry.traces().size());
}
BENCHMARK(BM_EndToEndTelemetry)->Unit(benchmark::kMillisecond);

// Evidence overhead contract (mirrors the telemetry one): BM_EndToEnd is
// the explain-off case — check_sinks takes a single untaken branch per
// sink, the null-telemetry idiom — and this is the same scan with full
// provenance collection (taint paths, guards, witness decoding). The gap
// is the evidence cost, paid only by scans that asked for it.
void BM_EndToEndExplain(benchmark::State& state) {
  ScanOptions options;
  options.explain = true;
  Detector detector(options);
  std::size_t hops = 0;
  for (auto _ : state) {
    const ScanReport report = detector.scan(sample_app().app);
    hops = 0;
    for (const Finding& f : report.findings) {
      hops += f.evidence.taint_path.size();
    }
    benchmark::DoNotOptimize(report.verdict);
  }
  state.counters["taint_hops"] = static_cast<double>(hops);
}
BENCHMARK(BM_EndToEndExplain)->Unit(benchmark::kMillisecond);

// Evidence extraction alone: taint-path + guard walk over the sink
// verdicts of one symbolically-executed root (no solver in the loop).
void BM_EvidenceExtraction(benchmark::State& state) {
  Parsed p = parse_sample();
  const CallGraph graph = build_call_graph(p.program);
  const LocalityResult locality = analyze_locality(p.program, graph, p.sources);
  Interpreter interp(p.program, p.diags);
  const InterpResult exec = interp.run(locality.roots.at(0));
  std::size_t hops = 0;
  std::size_t guards = 0;
  for (auto _ : state) {
    hops = 0;
    guards = 0;
    for (const SinkHit& sink : exec.sinks) {
      if (sink.src != kNoLabel) {
        hops += extract_taint_path(exec.graph, sink.src, sink.loc).size();
      }
      guards += extract_guards(exec.graph, sink.reachability).size();
    }
    benchmark::DoNotOptimize(hops);
  }
  state.counters["sinks"] = static_cast<double>(exec.sinks.size());
  state.counters["taint_hops"] = static_cast<double>(hops);
  state.counters["guards"] = static_cast<double>(guards);
}
BENCHMARK(BM_EvidenceExtraction)->Unit(benchmark::kMicrosecond);

// Cost of one disarmed PhaseScope: what every engine emission site pays
// when no consumer is attached. Should be on the order of a branch.
void BM_PhaseScopeNull(benchmark::State& state) {
  uchecker::telemetry::ScanEvents* events = nullptr;
  benchmark::DoNotOptimize(events);
  for (auto _ : state) {
    const uchecker::telemetry::PhaseScope phase(events, "parse");
    benchmark::DoNotOptimize(&phase);
  }
}
BENCHMARK(BM_PhaseScopeNull);

// Cost of one live phase begin/end pair through the hook into a real
// trace.
void BM_PhaseScopeLive(benchmark::State& state) {
  uchecker::telemetry::Telemetry telemetry;
  uchecker::telemetry::ScanTrace& trace = telemetry.begin_scan("bench");
  uchecker::telemetry::ScanEvents events(&trace, &telemetry.metrics(),
                                         nullptr, /*profile=*/false);
  for (auto _ : state) {
    const uchecker::telemetry::PhaseScope phase(&events, "parse");
    benchmark::DoNotOptimize(&phase);
  }
  state.counters["spans"] = static_cast<double>(trace.spans().size());
}
BENCHMARK(BM_PhaseScopeLive);

// Histogram hot path: one observe() on a default latency histogram.
void BM_HistogramObserve(benchmark::State& state) {
  uchecker::telemetry::MetricsRegistry metrics;
  uchecker::telemetry::Histogram& h = metrics.histogram("bench.latency_ms");
  double v = 0.0;
  for (auto _ : state) {
    h.observe(v);
    v += 0.37;
    if (v > 70000.0) v = 0.0;
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramObserve);

void BM_HeapGraphOps(benchmark::State& state) {
  for (auto _ : state) {
    HeapGraph graph;
    Label prev = graph.add_symbol("s", Type::kString, {});
    for (int i = 0; i < 1000; ++i) {
      const Label c = graph.add_concrete(Value(std::int64_t{i}), {});
      prev = graph.add_op(OpKind::kConcat, Type::kString, {prev, c}, {});
    }
    benchmark::DoNotOptimize(graph.object_count());
  }
}
BENCHMARK(BM_HeapGraphOps);

void BM_TaintReachability(benchmark::State& state) {
  HeapGraph graph;
  Label prev = graph.add_symbol("$_FILES", Type::kArray, {}, true);
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    const Label c = graph.add_concrete(Value(std::int64_t{i}), {});
    prev = graph.add_op(OpKind::kConcat, Type::kString, {prev, c}, {});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.reaches_files_taint(prev));
  }
}
BENCHMARK(BM_TaintReachability)->Arg(100)->Arg(1000)->Arg(10000);

// Structural sharing: the same 250-node concat chain built four times
// into one graph. Rounds 2-4 are answered entirely by the cons table, so
// the graph holds one copy and cons_hits counts the deduplicated builds.
void BM_HeapGraphConsDedup(benchmark::State& state) {
  std::size_t hits = 0;
  std::size_t objects = 0;
  for (auto _ : state) {
    HeapGraph graph;
    for (int rep = 0; rep < 4; ++rep) {
      Label prev = graph.add_concrete(Value(std::string("seed")), {});
      for (int i = 0; i < 250; ++i) {
        const Label c = graph.add_concrete(Value(std::int64_t{i}), {});
        prev = graph.add_op(OpKind::kConcat, Type::kString, {prev, c}, {});
      }
      benchmark::DoNotOptimize(prev);
    }
    hits = graph.cons_hits();
    objects = graph.object_count();
  }
  state.counters["cons_hits"] = static_cast<double>(hits);
  state.counters["objects"] = static_cast<double>(objects);
}
BENCHMARK(BM_HeapGraphConsDedup);

// Environment access through interned symbol IDs: the cost of the
// get/set pairs the interpreter issues on every statement. Names are
// interned once; steady-state lookups are integer binary searches over
// a flat array instead of string-keyed tree walks.
void BM_EnvVarAccess(benchmark::State& state) {
  const auto interner = std::make_shared<VarInterner>();
  std::vector<std::string> names;
  for (int i = 0; i < 64; ++i) names.push_back("$var_" + std::to_string(i));
  Env env;
  env.bind_interner(interner);
  for (auto _ : state) {
    for (const std::string& name : names) {
      env.set(interner->intern(name), Label{1});
      benchmark::DoNotOptimize(env.get(interner->intern(name)));
    }
  }
  state.counters["vars"] = static_cast<double>(interner->size());
}
BENCHMARK(BM_EnvVarAccess);

}  // namespace

BENCHMARK_MAIN();
