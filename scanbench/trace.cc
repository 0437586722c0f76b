#include "trace.h"

#include <cstdio>
#include <deque>
#include <optional>

#include "core/detector/report_io.h"
#include "core/staticpass/summaries.h"
#include "phplex/lexer.h"
#include "phpparse/parser.h"
#include "support/profile.h"
#include "support/strutil.h"

namespace scanbench {

using namespace uchecker;        // NOLINT
using namespace uchecker::core;  // NOLINT

std::int32_t SpanLog::open(Layer layer, std::uint32_t app,
                           std::uint32_t pass) {
  SpanRecord span;
  span.layer = layer;
  span.parent = current_;
  span.app = app;
  span.pass = pass;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
  spans_.push_back(span);
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  return current_;
}

void SpanLog::close(std::int32_t index) {
  SpanRecord& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - epoch_)
                    .count();
  current_ = span.parent;
}

LayerCounts& LayerCounts::operator+=(const LayerCounts& o) {
  tokens += o.tokens;
  checkers += o.checkers;
  budget_exhausted += o.budget_exhausted;
  sinks += o.sinks;
  report_bytes += o.report_bytes;
  return *this;
}

namespace {

class SpanScope {
 public:
  SpanScope(SpanLog& log, Layer layer, std::uint32_t app, std::uint32_t pass)
      : log_(log), index_(log.open(layer, app, pass)) {}
  ~SpanScope() { log_.close(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog& log_;
  std::int32_t index_;
};

// Same rendering as the detector's root names, so root costs match.
std::string root_name(const AnalysisRoot& root) {
  if (root.function != nullptr) return strutil::cat(root.function->name, "()");
  if (root.file != nullptr) return root.file->name;
  return "<root>";
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// The pipeline body; traced_scan adds the root span and containment.
void run_layers(const Application& app, const ScanOptions& options,
                SolverQueryCache& cache, SpanLog& log, std::uint32_t app_index,
                std::uint32_t pass, LayerCounts& counts, ScanReport& report) {
  const auto span = [&](Layer layer) {
    return SpanScope(log, layer, app_index, pass);
  };

  // Front end: registration, then lex and parse per file. Every file has
  // its own arena and diagnostic sink, as in phpparse::parse_files.
  SourceManager sources;
  DiagnosticSink diags;
  std::deque<Arena> arenas;
  std::deque<phpast::PhpFile> asts;
  const Clock::time_point parse_start = Clock::now();
  std::vector<const SourceFile*> files;
  {
    const SpanScope s = span(kParse);
    files.reserve(app.files.size());
    for (const AppFile& f : app.files) {
      files.push_back(sources.file(sources.add_file(f.name, f.content)));
    }
  }
  for (const SourceFile* file : files) {
    DiagnosticSink file_diags;
    file_diags.set_phase("parse");
    std::vector<phplex::Token> tokens;
    {
      const SpanScope s = span(kLex);
      phplex::Lexer lexer(*file, file_diags, arenas.emplace_back());
      tokens = lexer.lex_all();
    }
    counts.tokens += tokens.size();
    const SpanScope s = span(kParse);
    asts.push_back(phpparse::Parser(*file, std::move(tokens), file_diags,
                                    arenas.back())
                       .parse_file());
    diags.merge(file_diags);
  }
  report.phase_ms["parse"] = ms_between(parse_start, Clock::now());
  const std::size_t parse_diags = diags.error_count();
  report.parse_errors = parse_diags;
  report.total_loc = sources.total_loc();

  const Clock::time_point locality_start = Clock::now();
  std::optional<Program> program;
  std::optional<CallGraph> call_graph;
  {
    const SpanScope s = span(kCallgraph);
    std::vector<const phpast::PhpFile*> file_ptrs;
    for (const phpast::PhpFile& ast : asts) file_ptrs.push_back(&ast);
    program.emplace(build_program(file_ptrs));
    call_graph.emplace(build_call_graph(*program, options.sinks));
  }
  diags.set_phase("locality");
  LocalityResult locality;
  {
    const SpanScope s = span(kLocality);
    locality =
        analyze_locality(*program, *call_graph, sources, options.locality);
  }
  report.phase_ms["locality"] = ms_between(locality_start, Clock::now());
  report.roots = locality.roots.size();
  report.analyzed_loc = locality.analyzed_loc;
  report.analyzed_percent =
      report.total_loc == 0
          ? 0.0
          : 100.0 * static_cast<double>(report.analyzed_loc) /
                static_cast<double>(report.total_loc);

  if (!locality.roots.empty()) {
    diags.set_phase("staticpass");
    const Clock::time_point staticpass_start = Clock::now();
    std::vector<staticpass::RootAnalysis> pre;
    {
      const SpanScope s = span(kStaticpass);
      staticpass::StaticPassOptions pass_options;
      pass_options.executable_extensions = options.vuln.executable_extensions;
      std::optional<staticpass::SummaryStore> summaries;
      if (options.summaries) {
        summaries.emplace(*program, *call_graph, sources, options.sinks,
                          pass_options);
        pass_options.summaries = &*summaries;
      }
      pre.reserve(locality.roots.size());
      for (const AnalysisRoot& root : locality.roots) {
        pre.push_back(staticpass::analyze_root(*program, *call_graph, root,
                                               sources, options.sinks,
                                               pass_options));
      }
      if (summaries.has_value()) {
        report.summary_cache_hits = summaries->stats().cache_hits;
      }
    }
    for (const staticpass::RootAnalysis& ra : pre) {
      report.escaped_calls += ra.escaped_calls;
      if (ra.prunable && ra.summary_pruned) report.summary_pruned_roots += 1;
      if (options.lint) {
        report.lints.insert(report.lints.end(), ra.lints.begin(),
                            ra.lints.end());
      }
    }
    report.phase_ms["staticpass"] =
        ms_between(staticpass_start, Clock::now());

    diags.set_phase("interp");
    std::optional<smt::Checker> checker;
    {
      const SpanScope s = span(kSmt);
      checker.emplace(options.vuln.solver_timeout_ms);
    }
    counts.checkers += 1;
    std::size_t accounted = 0;
    for (std::size_t ri = 0; ri < locality.roots.size(); ++ri) {
      const AnalysisRoot& root = locality.roots[ri];
      RootCost cost;
      cost.root = root_name(root);
      if (pre[ri].prunable) {
        report.pruned_roots += 1;
        cost.pruned = true;
        report.root_costs.push_back(std::move(cost));
        continue;
      }
      // The interpreter result lives and dies inside interp spans, so
      // freeing the heap graph and environments is charged to interp.
      std::optional<InterpResult> exec;
      Clock::time_point t0 = Clock::now();
      {
        const SpanScope s = span(kInterp);
        Interpreter interp(*program, diags, options.budget, options.sinks);
        exec.emplace(interp.run(root));
      }
      cost.interp_ms = ms_between(t0, Clock::now());
      const InterpStats& stats = exec->stats;
      cost.paths = stats.paths;
      cost.objects = stats.objects;
      report.paths += stats.paths;
      report.objects += stats.objects;
      report.cons_hits += stats.cons_hits;
      report.budget_exhausted |= stats.budget_exhausted;
      report.deadline_exceeded |= stats.deadline_exceeded;
      report.sink_hits += exec->sinks.size();
      accounted += stats.env_bytes + exec->graph.memory_bytes();
      counts.budget_exhausted += stats.budget_exhausted ? 1 : 0;

      if (!stats.budget_exhausted && !stats.deadline_exceeded) {
        t0 = Clock::now();
        VulnModelResult vuln;
        {
          const SpanScope s = span(kVulnmodel);
          VulnModelOptions vuln_options = options.vuln;
          vuln_options.collect_evidence = false;
          vuln = check_sinks(*exec, *checker, vuln_options, &cache);
        }
        cost.solve_ms = ms_between(t0, Clock::now());
        cost.solver_calls = vuln.solver_calls;
        cost.solver_cache_hits = vuln.query_cache_hits;
        report.solver_calls += vuln.solver_calls;
        report.solver_cache_hits += vuln.query_cache_hits;
        report.deadline_exceeded |= vuln.deadline_exceeded;
        counts.sinks += vuln.verdicts.size();
        if (vuln.vulnerable) {
          report.verdict = Verdict::kVulnerable;
          for (const SinkVerdict& sv : vuln.verdicts) {
            if (!sv.exploitable()) continue;
            Finding finding;
            finding.sink_name = sv.sink.sink_name;
            finding.location = sources.describe(sv.sink.loc);
            if (const SourceFile* sf = sources.file(sv.sink.loc.file)) {
              finding.source_line = std::string(sf->line(sv.sink.loc.line));
              finding.file = sf->name();
              finding.line = sv.sink.loc.line;
            }
            finding.dst_sexpr = sv.dst_sexpr;
            finding.reach_sexpr = sv.reach_sexpr;
            finding.witness = sv.witness;
            finding.fingerprint =
                finding_fingerprint(app.name, sv.sink.sink_name, sv.dst_sexpr);
            report.findings.push_back(std::move(finding));
          }
        }
      }
      {
        const SpanScope s = span(kInterp);
        exec.reset();
      }
      report.root_costs.push_back(std::move(cost));
    }
    report.solver_retries = checker->retry_count();
    {
      const SpanScope s = span(kSmt);
      checker.reset();
    }
    double interp_ms = 0.0;
    double solve_ms = 0.0;
    for (const RootCost& rc : report.root_costs) {
      interp_ms += rc.interp_ms;
      solve_ms += rc.solve_ms;
    }
    report.phase_ms["interp"] = interp_ms;
    report.phase_ms["solve"] = solve_ms;
    report.analysis_errors = diags.error_count() - parse_diags;
    report.objects_per_path =
        report.paths == 0 ? 0.0
                          : static_cast<double>(report.objects) /
                                static_cast<double>(report.paths);
    report.accounted_bytes = accounted;
    report.memory_mb = static_cast<double>(accounted) / (1024.0 * 1024.0);
  }
  report.diagnostics_by_phase = diags.error_counts_by_phase();

  // The front end's arenas, ASTs and sources are freed here; charge it
  // to the parse layer that allocated them.
  const SpanScope s = span(kParse);
  call_graph.reset();
  program.reset();
  asts.clear();
  arenas.clear();
  sources = SourceManager();
}

}  // namespace

ScanReport traced_scan(const Application& app, const ScanOptions& options,
                       SolverQueryCache& cache, SpanLog& log,
                       std::uint32_t app_index, std::uint32_t pass,
                       LayerCounts& counts) {
  const Clock::time_point start = Clock::now();
  const SpanScope scan(log, kScan, app_index, pass);
  ScanReport report;
  report.app_name = app.name;
  try {
    run_layers(app, options, cache, log, app_index, pass, counts, report);
  } catch (...) {
    ScanError error;
    error.phase = "scan";
    error.message = "traced pipeline threw";
    report.errors.push_back(std::move(error));
  }
  if (report.verdict != Verdict::kVulnerable) {
    if (!report.errors.empty()) {
      report.verdict = Verdict::kAnalysisError;
    } else if (report.budget_exhausted || report.deadline_exceeded) {
      report.verdict = Verdict::kAnalysisIncomplete;
    }
  }
  report.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  report.peak_rss_bytes = profile::peak_rss_bytes();  // as Detector::scan
  const SpanScope s(log, kReport, app_index, pass);
  counts.report_bytes += to_json(report).size();
  return report;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<SpanLog>& logs,
                        const std::vector<std::string>& app_names) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [", out);
  bool first = true;
  for (const SpanLog& log : logs) {
    for (const SpanRecord& span : log.spans()) {
      const char* name = kLayerNames[span.layer];
      const std::string app = span.app < app_names.size()
                                  ? strutil::quote(app_names[span.app])
                                  : std::string("\"\"");
      std::fprintf(out,
                   "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"app\": %s, \"app_id\": %u, \"pass\": %u, "
                   "\"parent\": %d}}",
                   first ? "" : ",", name, log.thread(),
                   static_cast<double>(span.start_ns) / 1000.0,
                   static_cast<double>(span.end_ns - span.start_ns) / 1000.0,
                   app.c_str(), span.app, span.pass, span.parent);
      first = false;
    }
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace scanbench
