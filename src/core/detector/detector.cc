#include "core/detector/detector.h"

#include <algorithm>
#include <chrono>
#include <new>
#include <optional>

#include "core/staticpass/summaries.h"
#include "phpparse/parse_pool.h"
#include "phpparse/parser.h"
#include "support/strutil.h"
#include "smt/solver.h"
#include "support/fault_injector.h"
#include "support/scan_events.h"
#include "support/store.h"
#include "support/telemetry.h"

namespace uchecker::core {
namespace {

// Display name of an analysis root for error attribution.
std::string root_name(const AnalysisRoot& root) {
  if (root.function != nullptr) return strutil::cat(root.function->name, "()");
  if (root.file != nullptr) return root.file->name;
  return "<root>";
}

// "file:line" anchor for an evidence hop/guard (no column: hops anchor
// whole lines). Returns empty strings when the location is unknown.
void render_anchor(const SourceManager& sources, SourceLoc loc,
                   std::string& file, std::uint32_t& line,
                   std::string& location) {
  const SourceFile* sf = sources.file(loc.file);
  if (sf == nullptr || loc.line == 0) return;
  file = sf->name();
  line = loc.line;
  location = file + ":" + std::to_string(loc.line);
}

// Maps the structural evidence on a SinkVerdict into the rendered,
// source-anchored bundle a Finding carries.
FindingEvidence render_evidence(const SourceManager& sources,
                                const SinkVerdict& sv) {
  FindingEvidence evidence;
  evidence.taint_path.reserve(sv.taint_path.size());
  for (const TaintHop& hop : sv.taint_path) {
    EvidenceHop rendered;
    rendered.kind = std::string(object_kind_name(hop.kind));
    rendered.description = hop.description;
    render_anchor(sources, hop.loc, rendered.file, rendered.line,
                  rendered.location);
    evidence.taint_path.push_back(std::move(rendered));
  }
  evidence.guards.reserve(sv.guards.size());
  for (const PathGuard& guard : sv.guards) {
    EvidenceGuard rendered;
    rendered.sexpr = guard.sexpr;
    render_anchor(sources, guard.loc, rendered.file, rendered.line,
                  rendered.location);
    evidence.guards.push_back(std::move(rendered));
  }
  evidence.bindings = sv.attack.bindings;
  evidence.query = sv.attack.query;
  evidence.upload_filename = sv.attack.upload_filename;
  evidence.destination = sv.attack.destination;
  evidence.destination_complete = sv.attack.destination_complete;
  return evidence;
}

// Converts the exception in flight into a ScanError. InjectedFault
// carries its exact fault point, which overrides the containment-site
// phase — that is how tests prove phase provenance end to end.
ScanError describe_current_exception(std::string phase, std::string root) {
  ScanError error;
  error.phase = std::move(phase);
  error.root = std::move(root);
  try {
    throw;
  } catch (const InjectedFault& e) {
    error.phase = e.point();
    error.message = e.what();
    error.transient = e.transient();
  } catch (const TransientError& e) {
    error.message = e.what();
    error.transient = true;
  } catch (const std::bad_alloc&) {
    error.message = "out of memory";
    error.transient = true;
  } catch (const std::exception& e) {
    error.message = e.what();
  } catch (...) {
    error.message = "unknown error";
  }
  return error;
}

}  // namespace

std::string_view verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kVulnerable: return "Vulnerable";
    case Verdict::kNotVulnerable: return "Not vulnerable";
    case Verdict::kAnalysisIncomplete: return "Analysis incomplete";
    case Verdict::kAnalysisError: return "Analysis error";
    case Verdict::kAnalysisDisagreement: return "Analysis disagreement";
  }
  return "invalid";
}

std::string finding_fingerprint(std::string_view app, std::string_view sink,
                                std::string_view dst_sexpr) {
  // FNV-1a 64 over the identity triple, each field terminated by a byte
  // that cannot occur in any of them. The dst s-expression is canonical
  // (hash-consed graph → one rendering per term), so the hash is stable
  // across line-number churn from unrelated edits. The seed is this
  // scheme's own (not store::kFnvOffset): changing it would re-key every
  // fingerprint already stored in SARIF baselines.
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::string_view field : {app, sink, dst_sexpr}) {
    h = store::fnv1a64("\x1f", store::fnv1a64(field, h));
  }
  return store::hex64(h);
}

Detector::Detector(ScanOptions options) : options_(std::move(options)) {}

ScanReport Detector::scan(const Application& app) const {
  return scan(app, Deadline::unlimited());
}

ScanReport Detector::scan(const Application& app,
                          const Deadline& deadline) const {
  const auto start = std::chrono::steady_clock::now();

  Deadline effective = deadline;
  if (options_.budget.time_limit.count() > 0) {
    effective =
        Deadline::sooner(deadline, Deadline::after(options_.budget.time_limit));
  }

  // Traced scans are always addressable: use the request's trace ID when
  // one was supplied, mint one otherwise. With no telemetry attached the
  // ID stays empty — nothing would carry it, and minting would break the
  // zero-overhead contract.
  std::string trace_id = options_.trace_id;
  if (trace_id.empty() && options_.telemetry != nullptr) {
    trace_id = telemetry::mint_trace_id(app.name);
  }
  telemetry::Telemetry* const tel = options_.telemetry;
  telemetry::ScanEvents events(
      tel != nullptr ? &tel->begin_scan(app.name, trace_id) : nullptr,
      tel != nullptr ? &tel->metrics() : nullptr, options_.flight,
      options_.profile);

  ScanReport report;
  report.app_name = app.name;
  report.trace_id = trace_id;
  {
    const telemetry::PhaseScope scan_span(&events, "scan", app.name);
    try {
      scan_impl(app, effective, report, &events);
    } catch (...) {
      // Last-resort containment: scan() must never throw (workers run it
      // on noexcept thread boundaries). Phase-level handlers in scan_impl
      // attribute errors more precisely; anything reaching here is from
      // the glue between phases.
      report.errors.push_back(describe_current_exception("scan", ""));
    }
  }
  // Verdict precedence: a crosscheck disagreement is a soundness alarm
  // and outranks everything; then a proven finding survives degradation;
  // otherwise contained errors outrank resource exhaustion.
  if (!report.disagreements.empty()) {
    report.verdict = Verdict::kAnalysisDisagreement;
  } else if (report.verdict != Verdict::kVulnerable) {
    if (!report.errors.empty()) {
      report.verdict = Verdict::kAnalysisError;
    } else if (report.budget_exhausted || report.deadline_exceeded) {
      report.verdict = Verdict::kAnalysisIncomplete;
    }
  }

  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Recorded uniformly (profiled or not) so fleet drivers can always
  // compare accounted analysis bytes against the process high-water
  // mark. Only the profile JSON serializes the nondeterministic RSS.
  report.peak_rss_bytes = profile::peak_rss_bytes();
  if (report.profiled) {
    report.profile.peak_rss_bytes = report.peak_rss_bytes;
  }

  if (options_.telemetry != nullptr) {
    telemetry::MetricsRegistry& m = options_.telemetry->metrics();
    m.counter("scan.count").add(1);
    if (report.degraded()) m.counter("scan.degraded").add(1);
    if (report.deadline_exceeded) m.counter("scan.deadline_exceeded").add(1);
    if (report.budget_exhausted) m.counter("scan.budget_exhausted").add(1);
    for (const ScanError& e : report.errors) {
      m.counter("scan.errors." + e.phase).add(1);
    }
    if (report.cons_hits > 0) {
      m.counter("graph.cons_hits").add(report.cons_hits);
    }
    if (report.solver_cache_hits > 0) {
      m.counter("solver.cache_hits").add(report.solver_cache_hits);
    }
    if (report.pruned_roots > 0) {
      m.counter("staticpass.pruned_roots").add(report.pruned_roots);
    }
    if (report.summary_pruned_roots > 0) {
      m.counter("staticpass.summary_pruned_roots")
          .add(report.summary_pruned_roots);
    }
    if (report.summary_cache_hits > 0) {
      m.counter("staticpass.summary_cache_hits")
          .add(report.summary_cache_hits);
    }
    if (report.escaped_calls > 0) {
      m.counter("staticpass.escaped_calls").add(report.escaped_calls);
    }
    if (!report.lints.empty()) {
      m.counter("staticpass.lint_findings").add(report.lints.size());
    }
    m.histogram("scan.seconds_ms").observe(report.seconds * 1000.0);
    m.gauge("scan.peak_bytes").set(static_cast<double>(report.peak_rss_bytes));
    m.gauge("interp.path_budget")
        .set(static_cast<double>(options_.budget.max_paths));
    if (report.profiled) {
      std::size_t fork_sites = 0;
      std::uint64_t peak_paths = 0;
      for (const profile::RootProfile& rp : report.profile.roots) {
        fork_sites += rp.fork_sites.size();
        peak_paths = std::max(peak_paths, rp.peak_paths);
      }
      m.gauge("interp.fork_sites").set(static_cast<double>(fork_sites));
      m.gauge("interp.peak_paths").set(static_cast<double>(peak_paths));
    }
    // Exemplars: the Prometheus exposition links these series to the
    // most recent request that moved them.
    m.set_exemplar("scan.count", trace_id);
    m.set_exemplar("scan.seconds_ms", trace_id);
  }
  return report;
}

void Detector::scan_impl(const Application& app, const Deadline& deadline,
                         ScanReport& report,
                         telemetry::ScanEvents* events) const {
  // Phase 1: parsing. A file whose parse *throws* (as opposed to
  // reporting diagnostics) is dropped and recorded; the rest of the app
  // is still analyzed.
  SourceManager sources;
  DiagnosticSink diags;
  // Copies the per-phase diagnostic counts onto the report on every exit
  // path out of scan_impl, including exceptions contained by scan().
  struct DiagPhaseCapture {
    const DiagnosticSink& diags;
    ScanReport& report;
    ~DiagPhaseCapture() {
      report.diagnostics_by_phase = diags.error_counts_by_phase();
    }
  } diag_capture{diags, report};

  // Cost attribution: wall time per phase and per root, kept on the
  // report so the service and audit tooling can say where a scan's time
  // went without a trace attached. A handful of steady_clock reads per
  // root — noise next to a single solver call.
  using CostClock = std::chrono::steady_clock;
  const auto ms_since = [](CostClock::time_point t0) {
    return std::chrono::duration<double, std::milli>(CostClock::now() - t0)
        .count();
  };

  diags.set_phase("parse");
  const CostClock::time_point parse_start = CostClock::now();
  // Registration is serial (it fixes FileIds and SourceFile addresses);
  // the parse itself fans out per file — one arena and one diagnostic
  // sink each, merged back in registration order so the diagnostic
  // stream and every downstream verdict are independent of thread count
  // (see phpparse/parse_pool.h).
  std::vector<const SourceFile*> source_files;
  source_files.reserve(app.files.size());
  for (const AppFile& f : app.files) {
    const FileId id = sources.add_file(f.name, f.content);
    source_files.push_back(sources.file(id));
  }
  const std::size_t parse_threads = phpparse::resolve_parse_threads(
      options_.parse_threads, source_files.size());
  std::vector<phpparse::ParsedUnit> units;
  {
    const telemetry::PhaseScope parse_span(events, "parse");
    units = phpparse::parse_files(source_files, parse_threads, &deadline);
    for (std::size_t i = 0; i < units.size(); ++i) {
      phpparse::ParsedUnit& unit = units[i];
      if (!unit.attempted) {
        report.deadline_exceeded = true;
        events->event("deadline_exceeded", "during parse");
        break;
      }
      const telemetry::PhaseScope file_span(events, "parse.file",
                                            app.files[i].name);
      diags.merge(unit.diags);
      if (unit.error != nullptr) {
        try {
          std::rethrow_exception(unit.error);
        } catch (...) {
          report.errors.push_back(
              describe_current_exception("parse", app.files[i].name));
        }
      }
    }
  }
  report.phase_ms["parse"] = ms_since(parse_start);
  const std::size_t parse_diags = diags.error_count();
  report.parse_errors = parse_diags;
  report.total_loc = sources.total_loc();

  std::vector<const phpast::PhpFile*> file_ptrs;
  for (const phpparse::ParsedUnit& unit : units) {
    if (unit.attempted && unit.error == nullptr) file_ptrs.push_back(&unit.ast);
  }
  const Program program = build_program(file_ptrs);

  // Phase 2: vulnerability-oriented locality analysis. Without roots
  // nothing downstream runs, so a failure here ends the scan (contained,
  // with the partial parse results kept).
  diags.set_phase("locality");
  const CostClock::time_point locality_start = CostClock::now();
  const CallGraph call_graph = build_call_graph(program, options_.sinks);
  LocalityResult locality;
  try {
    const telemetry::PhaseScope locality_span(events, "locality");
    if (options_.run_locality) {
      locality =
          analyze_locality(program, call_graph, sources, options_.locality);
    } else {
      // Ablation: whole-program symbolic execution — every file body and
      // every user-defined function is a root.
      locality.total_loc = sources.total_loc();
      for (const phpast::PhpFile* f : program.files) {
        AnalysisRoot root;
        root.file = f;
        const SourceFile* sf = sources.file_by_name(f->name);
        root.body_loc = sf != nullptr ? sf->loc_count() : 0;
        locality.analyzed_loc += root.body_loc;
        locality.roots.push_back(root);
      }
      for (const auto& [name, info] : program.functions) {
        AnalysisRoot root;
        root.function = info.decl;
        locality.roots.push_back(root);
      }
      locality.analyzed_loc = locality.total_loc;
    }
  } catch (...) {
    report.errors.push_back(describe_current_exception("locality", ""));
    report.phase_ms["locality"] = ms_since(locality_start);
    return;
  }
  report.phase_ms["locality"] = ms_since(locality_start);
  report.roots = locality.roots.size();
  report.analyzed_loc = locality.analyzed_loc;
  // Explicit zero-denominator guard: an app whose files are all empty
  // (or unparseable) has total_loc == 0, and the percentage must come
  // out 0.0, not NaN (which would also poison the JSON report).
  report.analyzed_percent =
      report.total_loc == 0
          ? 0.0
          : 100.0 * static_cast<double>(report.analyzed_loc) /
                static_cast<double>(report.total_loc);

  if (locality.roots.empty()) {
    // No scope both reads $_FILES and reaches a sink: not vulnerable by
    // construction (paper: "Other scripts, if they do not contain such
    // lowest common ancestors, will not be analyzed").
    return;
  }

  // Phase 2b: pre-symbolic static pass. Proves roots safe so symbolic
  // execution can skip them, collects structured lints, and in
  // crosscheck mode doubles as a soundness oracle for the pruning
  // decision. A failure here degrades to "no pruning" — the symbolic
  // path still runs everything.
  std::vector<staticpass::RootAnalysis> pre;
  diags.set_phase("staticpass");
  const CostClock::time_point staticpass_start = CostClock::now();
  try {
    const telemetry::PhaseScope staticpass_span(events, "staticpass");
    staticpass::StaticPassOptions pass_options;
    pass_options.executable_extensions = options_.vuln.executable_extensions;
    // The summary store memoizes across every root of this scan;
    // pass_options must outlive it (the store keeps a reference).
    std::optional<staticpass::SummaryStore> summaries;
    if (options_.summaries) {
      summaries.emplace(program, call_graph, sources, options_.sinks,
                        pass_options);
      pass_options.summaries = &*summaries;
    }
    pre.reserve(locality.roots.size());
    for (const AnalysisRoot& root : locality.roots) {
      pre.push_back(staticpass::analyze_root(program, call_graph, root,
                                             sources, options_.sinks,
                                             pass_options));
    }
    if (summaries.has_value()) {
      report.summary_cache_hits = summaries->stats().cache_hits;
    }
    for (const staticpass::RootAnalysis& ra : pre) {
      report.escaped_calls += ra.escaped_calls;
      if (ra.prunable && ra.summary_pruned) {
        report.summary_pruned_roots += 1;
      }
    }
    if (options_.lint) {
      for (const staticpass::RootAnalysis& ra : pre) {
        for (const staticpass::LintFinding& lint : ra.lints) {
          report.lints.push_back(lint);
        }
      }
    }
  } catch (...) {
    report.errors.push_back(describe_current_exception("staticpass", ""));
    pre.clear();
  }
  report.phase_ms["staticpass"] = ms_since(staticpass_start);

  // Phases 3-6 per analysis root. A root whose analysis throws is
  // recorded and skipped; remaining roots still run, so one hostile
  // root degrades the verdict instead of erasing the whole app.
  diags.set_phase("interp");
  // The engines get a null hook when no consumer is attached, so each
  // of their emission sites costs one pointer test. Roots pruned by the
  // static pass never begin: they fork no paths and issue no queries.
  telemetry::ScanEvents* const engine_events =
      events->attached() ? events : nullptr;
  smt::Checker checker(options_.vuln.solver_timeout_ms);
  checker.set_deadline(deadline);
  checker.set_events(engine_events);
  std::size_t env_bytes_total = 0;
  std::size_t graph_bytes_total = 0;
  for (std::size_t ri = 0; ri < locality.roots.size(); ++ri) {
    const AnalysisRoot& root = locality.roots[ri];
    RootCost cost;
    cost.root = root_name(root);
    const bool proven_safe = ri < pre.size() && pre[ri].prunable;
    if (proven_safe) {
      report.pruned_roots += 1;
      if (!options_.crosscheck) {
        events->root_end(cost.root, telemetry::RootOutcome::kPruned);
        cost.pruned = true;
        report.root_costs.push_back(std::move(cost));
        continue;
      }
    }
    if (deadline.expired()) {
      report.deadline_exceeded = true;
      events->event("deadline_exceeded", "before " + cost.root);
      break;
    }
    events->root_begin(cost.root);

    InterpResult exec;
    const CostClock::time_point interp_start = CostClock::now();
    try {
      const telemetry::PhaseScope interp_span(events, "interp");
      Budget budget = options_.budget;
      budget.deadline = deadline;
      budget.events = engine_events;
      Interpreter interp(program, diags, budget, options_.sinks);
      exec = interp.run(root);
    } catch (...) {
      report.errors.push_back(describe_current_exception("interp", cost.root));
      events->root_end(cost.root, telemetry::RootOutcome::kAnalysisError);
      cost.interp_ms = ms_since(interp_start);
      report.root_costs.push_back(std::move(cost));
      continue;
    }
    cost.interp_ms = ms_since(interp_start);
    cost.paths = exec.stats.paths;
    cost.objects = exec.stats.objects;

    report.paths += exec.stats.paths;
    report.objects += exec.stats.objects;
    report.cons_hits += exec.stats.cons_hits;
    report.budget_exhausted |= exec.stats.budget_exhausted;
    report.deadline_exceeded |= exec.stats.deadline_exceeded;
    report.sink_hits += exec.sinks.size();
    env_bytes_total += exec.stats.env_bytes;
    graph_bytes_total += exec.graph.memory_bytes();

    if (exec.stats.budget_exhausted || exec.stats.deadline_exceeded) {
      // The paper's behaviour: the run that exhausts memory produces no
      // verdict for this root (its Cimy FN). Continue with other roots
      // (deadline expiry ends the loop at the next iteration's check).
      events->root_end(cost.root,
                       exec.stats.budget_exhausted
                           ? telemetry::RootOutcome::kBudgetExhausted
                           : telemetry::RootOutcome::kDeadlineExceeded);
      report.root_costs.push_back(std::move(cost));
      continue;
    }

    VulnModelResult vuln;
    const CostClock::time_point solve_start = CostClock::now();
    try {
      VulnModelOptions vuln_options = options_.vuln;
      vuln_options.collect_evidence = options_.explain;
      vuln_options.crosscheck = options_.crosscheck;
      vuln = check_sinks(exec, checker, vuln_options, &query_cache());
    } catch (...) {
      report.errors.push_back(describe_current_exception("solve", cost.root));
      events->root_end(cost.root, telemetry::RootOutcome::kAnalysisError);
      cost.solve_ms = ms_since(solve_start);
      report.root_costs.push_back(std::move(cost));
      continue;
    }
    cost.solve_ms = ms_since(solve_start);
    cost.solver_calls = vuln.solver_calls;
    cost.solver_cache_hits = vuln.query_cache_hits;
    report.solver_calls += vuln.solver_calls;
    report.solver_cache_hits += vuln.query_cache_hits;
    report.deadline_exceeded |= vuln.deadline_exceeded;
    if (vuln.solver_budget_exhausted) {
      // Sinks left unchecked: a partial verdict, never "Not vulnerable".
      report.budget_exhausted = true;
      report.solver_budget_exhausted = true;
    }
    if (options_.crosscheck && proven_safe && vuln.vulnerable) {
      ScanError disagreement;
      disagreement.phase = "crosscheck";
      disagreement.root = cost.root;
      disagreement.message =
          "static pass proved this root safe (" + pre[ri].reason +
          ") but the symbolic engine found it vulnerable";
      report.disagreements.push_back(std::move(disagreement));
    }
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
        if (options_.explain) {
          finding.evidence = render_evidence(sources, sv);
        }
        report.findings.push_back(std::move(finding));
      }
    }
    if (vuln.solver_budget_exhausted) {
      events->event("solver_budget_exhausted", cost.root);
    }
    events->root_end(cost.root,
                     vuln.solver_budget_exhausted
                         ? telemetry::RootOutcome::kSolverBudgetExhausted
                         : telemetry::RootOutcome::kCompleted);
    report.root_costs.push_back(std::move(cost));
  }
  report.solver_retries = checker.retry_count();
  {
    double interp_ms = 0.0;
    double solve_ms = 0.0;
    for (const RootCost& rc : report.root_costs) {
      interp_ms += rc.interp_ms;
      solve_ms += rc.solve_ms;
    }
    report.phase_ms["interp"] = interp_ms;
    report.phase_ms["solve"] = solve_ms;
  }

  // Diagnostics reported after parsing come from the interpreter phases
  // (unknown syntax, unresolved includes, ...) sharing the same sink.
  report.analysis_errors = diags.error_count() - parse_diags;

  report.objects_per_path =
      report.paths == 0
          ? 0.0
          : static_cast<double>(report.objects) / static_cast<double>(report.paths);
  report.memory_mb = static_cast<double>(graph_bytes_total + env_bytes_total) /
                     (1024.0 * 1024.0);
  report.accounted_bytes = graph_bytes_total + env_bytes_total;

  if (std::optional<profile::ExplosionProfile> profile =
          events->take_profile()) {
    report.profile = std::move(*profile);
    // The interpreter records raw (FileId, line) pairs; resolve them to
    // the "name:line" form humans (and the post-mortem) read. FileId 0
    // is the invalid id — leave the raw rendering in place.
    const auto resolve = [&sources](std::uint32_t file, std::uint32_t line,
                                    std::string& out) {
      const SourceFile* sf = sources.file(FileId{file});
      if (sf == nullptr || line == 0) return;
      out = sf->name() + ":" + std::to_string(line);
    };
    for (profile::RootProfile& rp : report.profile.roots) {
      for (profile::ForkSiteStats& site : rp.fork_sites) {
        resolve(site.file, site.line, site.site);
      }
      for (profile::SolverSiteStats& site : rp.solver) {
        resolve(site.file, site.line, site.origin);
      }
      if (rp.incomplete) rp.post_mortem = profile::build_post_mortem(rp);
    }
    report.profiled = true;
  }
}

}  // namespace uchecker::core
