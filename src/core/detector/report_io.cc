#include "core/detector/report_io.h"

#include <cstdarg>
#include <cstdio>

#include "smt/solver.h"
#include "support/jsonlite.h"
#include "support/profile.h"
#include "support/strutil.h"

namespace uchecker::core {
namespace {

// Serializes one finding's provenance bundle (ScanOptions::explain).
std::string evidence_json(const FindingEvidence& ev) {
  std::string out = "{\"taint_path\": [";
  for (std::size_t i = 0; i < ev.taint_path.size(); ++i) {
    const EvidenceHop& hop = ev.taint_path[i];
    if (i != 0) out += ", ";
    out += "{";
    out += "\"kind\": " + strutil::quote(hop.kind) + ", ";
    out += "\"description\": " + strutil::quote(hop.description) + ", ";
    out += "\"file\": " + strutil::quote(hop.file) + ", ";
    out += "\"line\": " + std::to_string(hop.line) + ", ";
    out += "\"location\": " + strutil::quote(hop.location);
    out += "}";
  }
  out += "], \"guards\": [";
  for (std::size_t i = 0; i < ev.guards.size(); ++i) {
    const EvidenceGuard& g = ev.guards[i];
    if (i != 0) out += ", ";
    out += "{";
    out += "\"sexpr\": " + strutil::quote(g.sexpr) + ", ";
    out += "\"file\": " + strutil::quote(g.file) + ", ";
    out += "\"line\": " + std::to_string(g.line) + ", ";
    out += "\"location\": " + strutil::quote(g.location);
    out += "}";
  }
  out += "], \"bindings\": [";
  for (std::size_t i = 0; i < ev.bindings.size(); ++i) {
    const WitnessBinding& b = ev.bindings[i];
    if (i != 0) out += ", ";
    out += "{";
    out += "\"symbol\": " + strutil::quote(b.symbol) + ", ";
    out += "\"raw\": " + strutil::quote(b.raw) + ", ";
    out += "\"decoded\": " + strutil::quote(b.decoded);
    out += "}";
  }
  out += "], \"upload_filename\": " + strutil::quote(ev.upload_filename);
  out += ", \"destination\": " + strutil::quote(ev.destination);
  out += std::string(", \"destination_complete\": ") +
         (ev.destination_complete ? "true" : "false");
  out += "}";
  return out;
}

// --- report_from_json helpers. Every getter returns false on a missing
// or mistyped field, so one bad byte fails the whole parse (and the
// caller recomputes) instead of yielding a half-filled report.

using jsonlite::format_number;
using jsonlite::get_bool;
using jsonlite::get_double;
using jsonlite::get_string;
using jsonlite::get_uint;

bool parse_verdict(std::string_view slug, Verdict& out) {
  for (const Verdict v :
       {Verdict::kVulnerable, Verdict::kNotVulnerable,
        Verdict::kAnalysisIncomplete, Verdict::kAnalysisError,
        Verdict::kAnalysisDisagreement}) {
    if (slug == verdict_slug(v)) {
      out = v;
      return true;
    }
  }
  return false;
}

bool parse_evidence(const jsonlite::Value& ev, FindingEvidence& out) {
  const jsonlite::Value* taint = ev.find("taint_path");
  const jsonlite::Value* guards = ev.find("guards");
  const jsonlite::Value* bindings = ev.find("bindings");
  if (taint == nullptr || !taint->is_array() || guards == nullptr ||
      !guards->is_array() || bindings == nullptr || !bindings->is_array()) {
    return false;
  }
  for (const jsonlite::Value& h : taint->items()) {
    EvidenceHop hop;
    if (!h.is_object() || !get_string(h, "kind", hop.kind) ||
        !get_string(h, "description", hop.description) ||
        !get_string(h, "file", hop.file) || !get_uint(h, "line", hop.line) ||
        !get_string(h, "location", hop.location)) {
      return false;
    }
    out.taint_path.push_back(std::move(hop));
  }
  for (const jsonlite::Value& g : guards->items()) {
    EvidenceGuard guard;
    if (!g.is_object() || !get_string(g, "sexpr", guard.sexpr) ||
        !get_string(g, "file", guard.file) ||
        !get_uint(g, "line", guard.line) ||
        !get_string(g, "location", guard.location)) {
      return false;
    }
    out.guards.push_back(std::move(guard));
  }
  for (const jsonlite::Value& b : bindings->items()) {
    WitnessBinding binding;
    if (!b.is_object() || !get_string(b, "symbol", binding.symbol) ||
        !get_string(b, "raw", binding.raw) ||
        !get_string(b, "decoded", binding.decoded)) {
      return false;
    }
    out.bindings.push_back(std::move(binding));
  }
  return get_string(ev, "upload_filename", out.upload_filename) &&
         get_string(ev, "destination", out.destination) &&
         get_bool(ev, "destination_complete", out.destination_complete);
}

}  // namespace

std::optional<ScanReport> report_from_json(std::string_view json) {
  const std::optional<jsonlite::Value> doc = jsonlite::parse(json);
  if (!doc.has_value() || !doc->is_object()) return std::nullopt;

  ScanReport r;
  std::string verdict;
  if (!get_string(*doc, "app", r.app_name) ||
      !get_string(*doc, "verdict", verdict) ||
      !parse_verdict(verdict, r.verdict)) {
    return std::nullopt;
  }
  // Optional (omitted for untraced scans); must be a string if present.
  if (doc->find("trace_id") != nullptr &&
      !get_string(*doc, "trace_id", r.trace_id)) {
    return std::nullopt;
  }

  const jsonlite::Value* stats = doc->find("stats");
  if (stats == nullptr || !stats->is_object()) return std::nullopt;
  if (!get_uint(*stats, "total_loc", r.total_loc) ||
      !get_uint(*stats, "analyzed_loc", r.analyzed_loc) ||
      !get_double(*stats, "analyzed_percent", r.analyzed_percent) ||
      !get_uint(*stats, "paths", r.paths) ||
      !get_uint(*stats, "objects", r.objects) ||
      !get_double(*stats, "objects_per_path", r.objects_per_path) ||
      !get_double(*stats, "memory_mb", r.memory_mb) ||
      !get_double(*stats, "seconds", r.seconds) ||
      !get_uint(*stats, "roots", r.roots) ||
      !get_uint(*stats, "sink_hits", r.sink_hits) ||
      !get_uint(*stats, "solver_calls", r.solver_calls) ||
      !get_uint(*stats, "solver_retries", r.solver_retries) ||
      !get_uint(*stats, "cons_hits", r.cons_hits) ||
      !get_uint(*stats, "solver_cache_hits", r.solver_cache_hits) ||
      !get_bool(*stats, "budget_exhausted", r.budget_exhausted) ||
      !get_bool(*stats, "deadline_exceeded", r.deadline_exceeded) ||
      !get_uint(*stats, "parse_errors", r.parse_errors) ||
      !get_uint(*stats, "analysis_errors", r.analysis_errors) ||
      !get_uint(*stats, "pruned_roots", r.pruned_roots) ||
      !get_uint(*stats, "summary_cache_hits", r.summary_cache_hits) ||
      !get_uint(*stats, "summary_pruned_roots", r.summary_pruned_roots) ||
      !get_uint(*stats, "escaped_calls", r.escaped_calls) ||
      !get_uint(*stats, "accounted_bytes", r.accounted_bytes)) {
    return std::nullopt;
  }

  const jsonlite::Value* diags = doc->find("diagnostics_by_phase");
  if (diags == nullptr || !diags->is_object()) return std::nullopt;
  for (const auto& [phase, count] : diags->members()) {
    if (!count.is_number() || count.number() < 0.0) return std::nullopt;
    r.diagnostics_by_phase[phase] = static_cast<std::size_t>(count.number());
  }

  // Optional cost attribution (omitted when the scan recorded none).
  if (const jsonlite::Value* cost = doc->find("cost")) {
    if (!cost->is_object()) return std::nullopt;
    const jsonlite::Value* phases = cost->find("phases");
    const jsonlite::Value* roots = cost->find("roots");
    if (phases == nullptr || !phases->is_object() || roots == nullptr ||
        !roots->is_array()) {
      return std::nullopt;
    }
    for (const auto& [phase, ms] : phases->members()) {
      if (!ms.is_number()) return std::nullopt;
      r.phase_ms[phase] = ms.number();
    }
    for (const jsonlite::Value& rc_json : roots->items()) {
      RootCost rc;
      if (!rc_json.is_object() || !get_string(rc_json, "root", rc.root) ||
          !get_double(rc_json, "interp_ms", rc.interp_ms) ||
          !get_double(rc_json, "solve_ms", rc.solve_ms) ||
          !get_uint(rc_json, "paths", rc.paths) ||
          !get_uint(rc_json, "objects", rc.objects) ||
          !get_uint(rc_json, "solver_calls", rc.solver_calls) ||
          !get_uint(rc_json, "solver_cache_hits", rc.solver_cache_hits) ||
          !get_bool(rc_json, "pruned", rc.pruned)) {
        return std::nullopt;
      }
      r.root_costs.push_back(std::move(rc));
    }
  }

  // A profiled report is never stored (its profile is wall-clock
  // samples), so one that carries a profile is not read back.
  if (doc->find("profile") != nullptr) return std::nullopt;

  const jsonlite::Value* errors = doc->find("errors");
  if (errors == nullptr || !errors->is_array()) return std::nullopt;
  for (const jsonlite::Value& e : errors->items()) {
    ScanError err;
    if (!e.is_object() || !get_string(e, "phase", err.phase) ||
        !get_string(e, "root", err.root) ||
        !get_string(e, "message", err.message) ||
        !get_bool(e, "transient", err.transient)) {
      return std::nullopt;
    }
    r.errors.push_back(std::move(err));
  }

  const jsonlite::Value* disagreements = doc->find("disagreements");
  if (disagreements == nullptr || !disagreements->is_array()) {
    return std::nullopt;
  }
  for (const jsonlite::Value& d : disagreements->items()) {
    ScanError err;
    err.phase = "crosscheck";
    if (!d.is_object() || !get_string(d, "root", err.root) ||
        !get_string(d, "message", err.message)) {
      return std::nullopt;
    }
    r.disagreements.push_back(std::move(err));
  }

  const jsonlite::Value* lints = doc->find("lints");
  if (lints == nullptr || !lints->is_array()) return std::nullopt;
  for (const jsonlite::Value& l : lints->items()) {
    staticpass::LintFinding lint;
    std::string severity;
    if (!l.is_object() || !get_string(l, "rule", lint.rule) ||
        !get_string(l, "severity", severity) ||
        !get_string(l, "location", lint.location) ||
        !get_string(l, "message", lint.message) ||
        !get_string(l, "evidence", lint.evidence)) {
      return std::nullopt;
    }
    const auto parsed = staticpass::parse_severity(severity);
    if (!parsed.has_value()) return std::nullopt;
    lint.severity = *parsed;
    r.lints.push_back(std::move(lint));
  }

  const jsonlite::Value* findings = doc->find("findings");
  if (findings == nullptr || !findings->is_array()) return std::nullopt;
  for (const jsonlite::Value& f : findings->items()) {
    Finding finding;
    if (!f.is_object() || !get_string(f, "sink", finding.sink_name) ||
        !get_string(f, "location", finding.location) ||
        !get_string(f, "file", finding.file) ||
        !get_uint(f, "line", finding.line) ||
        !get_string(f, "source_line", finding.source_line) ||
        !get_string(f, "dst", finding.dst_sexpr) ||
        !get_string(f, "reachability", finding.reach_sexpr) ||
        !get_string(f, "witness", finding.witness) ||
        !get_string(f, "fingerprint", finding.fingerprint)) {
      return std::nullopt;
    }
    if (const jsonlite::Value* ev = f.find("evidence")) {
      if (!ev->is_object() || !parse_evidence(*ev, finding.evidence)) {
        return std::nullopt;
      }
    }
    r.findings.push_back(std::move(finding));
  }
  return r;
}

std::string_view verdict_slug(Verdict v) {
  switch (v) {
    case Verdict::kVulnerable: return "vulnerable";
    case Verdict::kNotVulnerable: return "not_vulnerable";
    case Verdict::kAnalysisIncomplete: return "analysis_incomplete";
    case Verdict::kAnalysisError: return "analysis_error";
    case Verdict::kAnalysisDisagreement: return "analysis_disagreement";
  }
  return "invalid";
}

std::string to_json(const ScanReport& report) {
  std::string out = "{";
  out += "\"app\": " + strutil::quote(report.app_name) + ", ";
  if (!report.trace_id.empty()) {
    out += "\"trace_id\": " + strutil::quote(report.trace_id) + ", ";
  }
  out += "\"verdict\": \"" + std::string(verdict_slug(report.verdict)) +
         "\", ";
  out += "\"stats\": {";
  out += "\"total_loc\": " + std::to_string(report.total_loc) + ", ";
  out += "\"analyzed_loc\": " + std::to_string(report.analyzed_loc) + ", ";
  out += "\"analyzed_percent\": " + format_number(report.analyzed_percent) + ", ";
  out += "\"paths\": " + std::to_string(report.paths) + ", ";
  out += "\"objects\": " + std::to_string(report.objects) + ", ";
  out += "\"objects_per_path\": " + format_number(report.objects_per_path) + ", ";
  out += "\"memory_mb\": " + format_number(report.memory_mb) + ", ";
  out += "\"seconds\": " + format_number(report.seconds) + ", ";
  out += "\"roots\": " + std::to_string(report.roots) + ", ";
  out += "\"sink_hits\": " + std::to_string(report.sink_hits) + ", ";
  out += "\"solver_calls\": " + std::to_string(report.solver_calls) + ", ";
  out += "\"solver_retries\": " + std::to_string(report.solver_retries) + ", ";
  out += "\"cons_hits\": " + std::to_string(report.cons_hits) + ", ";
  out += "\"solver_cache_hits\": " +
         std::to_string(report.solver_cache_hits) + ", ";
  out += std::string("\"budget_exhausted\": ") +
         (report.budget_exhausted ? "true" : "false") + ", ";
  out += std::string("\"deadline_exceeded\": ") +
         (report.deadline_exceeded ? "true" : "false") + ", ";
  out += "\"parse_errors\": " + std::to_string(report.parse_errors) + ", ";
  out += "\"analysis_errors\": " + std::to_string(report.analysis_errors) + ", ";
  out += "\"pruned_roots\": " + std::to_string(report.pruned_roots) + ", ";
  out += "\"summary_cache_hits\": " +
         std::to_string(report.summary_cache_hits) + ", ";
  out += "\"summary_pruned_roots\": " +
         std::to_string(report.summary_pruned_roots) + ", ";
  out += "\"escaped_calls\": " + std::to_string(report.escaped_calls) + ", ";
  out += "\"accounted_bytes\": " + std::to_string(report.accounted_bytes);
  out += "}, \"diagnostics_by_phase\": {";
  bool first_phase = true;
  for (const auto& [phase, count] : report.diagnostics_by_phase) {
    if (!first_phase) out += ", ";
    first_phase = false;
    out += strutil::quote(phase) + ": " + std::to_string(count);
  }
  out += "}";
  if (!report.phase_ms.empty() || !report.root_costs.empty()) {
    out += ", \"cost\": {\"phases\": {";
    bool first_cost = true;
    for (const auto& [phase, ms] : report.phase_ms) {
      if (!first_cost) out += ", ";
      first_cost = false;
      out += strutil::quote(phase) + ": " + format_number(ms);
    }
    out += "}, \"roots\": [";
    for (std::size_t i = 0; i < report.root_costs.size(); ++i) {
      const RootCost& rc = report.root_costs[i];
      if (i != 0) out += ", ";
      out += "{";
      out += "\"root\": " + strutil::quote(rc.root) + ", ";
      out += "\"interp_ms\": " + format_number(rc.interp_ms) + ", ";
      out += "\"solve_ms\": " + format_number(rc.solve_ms) + ", ";
      out += "\"paths\": " + std::to_string(rc.paths) + ", ";
      out += "\"objects\": " + std::to_string(rc.objects) + ", ";
      out += "\"solver_calls\": " + std::to_string(rc.solver_calls) + ", ";
      out += "\"solver_cache_hits\": " +
             std::to_string(rc.solver_cache_hits) + ", ";
      out += std::string("\"pruned\": ") + (rc.pruned ? "true" : "false");
      out += "}";
    }
    out += "]}";
  }
  // Present only on profiled scans: peak RSS and wall-clock samples.
  // Like stats.seconds and the "cost" milliseconds, it differs run to run;
  // every other field of the same app's report is byte-identical.
  if (report.profiled) {
    out += ", \"profile\": " + profile::to_json(report.profile);
  }
  out += ", \"errors\": [";
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    const ScanError& e = report.errors[i];
    if (i != 0) out += ", ";
    out += "{";
    out += "\"phase\": " + strutil::quote(e.phase) + ", ";
    out += "\"root\": " + strutil::quote(e.root) + ", ";
    out += "\"message\": " + strutil::quote(e.message) + ", ";
    out += std::string("\"transient\": ") + (e.transient ? "true" : "false");
    out += "}";
  }
  out += "], \"disagreements\": [";
  for (std::size_t i = 0; i < report.disagreements.size(); ++i) {
    const ScanError& e = report.disagreements[i];
    if (i != 0) out += ", ";
    out += "{";
    out += "\"root\": " + strutil::quote(e.root) + ", ";
    out += "\"message\": " + strutil::quote(e.message);
    out += "}";
  }
  out += "], \"lints\": [";
  for (std::size_t i = 0; i < report.lints.size(); ++i) {
    const staticpass::LintFinding& l = report.lints[i];
    if (i != 0) out += ", ";
    out += "{";
    out += "\"rule\": " + strutil::quote(l.rule) + ", ";
    out += "\"severity\": \"" +
           std::string(staticpass::severity_name(l.severity)) + "\", ";
    out += "\"location\": " + strutil::quote(l.location) + ", ";
    out += "\"message\": " + strutil::quote(l.message) + ", ";
    out += "\"evidence\": " + strutil::quote(l.evidence);
    out += "}";
  }
  out += "], \"findings\": [";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    if (i != 0) out += ", ";
    out += "{";
    out += "\"sink\": " + strutil::quote(f.sink_name) + ", ";
    out += "\"location\": " + strutil::quote(f.location) + ", ";
    out += "\"file\": " + strutil::quote(f.file) + ", ";
    out += "\"line\": " + std::to_string(f.line) + ", ";
    out += "\"source_line\": " + strutil::quote(f.source_line) + ", ";
    out += "\"dst\": " + strutil::quote(f.dst_sexpr) + ", ";
    out += "\"reachability\": " + strutil::quote(f.reach_sexpr) + ", ";
    out += "\"witness\": " + strutil::quote(f.witness) + ", ";
    out += "\"fingerprint\": " + strutil::quote(f.fingerprint);
    if (!f.evidence.empty()) {
      out += ", \"evidence\": " + evidence_json(f.evidence);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

namespace {

// printf into the end of `out`: the text report keeps the CLI's
// fixed-width and fixed-precision fields.
[[gnu::format(printf, 2, 3)]] void appendf(std::string& out, const char* fmt,
                                           ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list again;
  va_copy(again, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (n > 0) {
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt,
                   again);
    out.resize(at + static_cast<std::size_t>(n));
  }
  va_end(again);
}

// The "  [file:line]" suffix of an evidence line; empty when unanchored.
std::string bracketed(const std::string& location) {
  return location.empty() ? "" : "  [" + location + "]";
}

}  // namespace

std::string to_text(const ScanReport& report, bool quiet, bool lints) {
  std::string out;
  if (!quiet) {
    appendf(out, "symbolic execution: %zu paths, %zu objects, %.2f MB, %.3fs\n",
            report.paths, report.objects, report.memory_mb, report.seconds);
    if (!report.trace_id.empty()) out += "trace: " + report.trace_id + "\n";
    if (!report.phase_ms.empty()) {
      out += "cost:";
      for (const char* phase :
           {"parse", "locality", "staticpass", "interp", "solve"}) {
        const auto it = report.phase_ms.find(phase);
        if (it != report.phase_ms.end()) {
          appendf(out, " %s=%.1fms", phase, it->second);
        }
      }
      out += "\n";
    }
    if (report.parse_errors > 0) {
      appendf(out, "note: %zu parse error(s); analysis continued on the rest\n",
              report.parse_errors);
    }
    if (report.analysis_errors > 0) {
      appendf(out, "note: %zu analysis diagnostic(s)\n",
              report.analysis_errors);
    }
    if (!report.diagnostics_by_phase.empty()) {
      out += "diagnostics:";
      for (const auto& [phase, count] : report.diagnostics_by_phase) {
        out += " " + (phase.empty() ? std::string("<unattributed>") : phase) +
               "=" + std::to_string(count);
      }
      out += "\n";
    }
    if (report.solver_budget_exhausted) {
      appendf(out,
              "note: solver budget exhausted (%u ms per scan); sinks left "
              "unchecked, results are partial\n",
              smt::Checker::kScanSolverBudgetMs);
    } else if (report.budget_exhausted) {
      out += "note: analysis budget exhausted; results are partial\n";
    }
    if (report.deadline_exceeded) {
      out += "note: scan deadline exceeded; results are partial\n";
    }
    for (const profile::RootProfile& rp : report.profile.roots) {
      if (!rp.post_mortem.has_value()) continue;
      appendf(out, "note: root %s incomplete (%s) at %llu live paths%s%s\n",
              rp.root.c_str(), rp.post_mortem->reason.c_str(),
              static_cast<unsigned long long>(rp.post_mortem->peak_paths),
              rp.post_mortem->dominant_loop.empty() ? "" : "; dominant loop ",
              rp.post_mortem->dominant_loop.c_str());
    }
    if (report.solver_retries > 0) {
      appendf(out, "note: %zu solver retr%s with escalated timeouts\n",
              report.solver_retries, report.solver_retries == 1 ? "y" : "ies");
    }
  }
  for (const ScanError& e : report.errors) {
    out += "error: [" + e.phase + "] " + e.root + (e.root.empty() ? "" : ": ") +
           e.message + (e.transient ? " (transient)" : "") + "\n";
  }
  for (const ScanError& e : report.disagreements) {
    out += "disagreement: " + e.root + ": " + e.message + "\n";
  }
  if (lints) {
    for (const staticpass::LintFinding& l : report.lints) {
      out += "lint: [" + l.rule + "/" +
             std::string(staticpass::severity_name(l.severity)) + "] " +
             l.location + ": " + l.message + "\n";
      if (!l.evidence.empty()) out += "      " + l.evidence + "\n";
    }
    if (!quiet && report.pruned_roots > 0) {
      appendf(out,
              "note: static pass pruned %zu of %zu root(s) before symbolic "
              "execution (%zu via function summaries)\n",
              report.pruned_roots, report.roots, report.summary_pruned_roots);
    }
    if (!quiet && (report.summary_cache_hits > 0 || report.escaped_calls > 0)) {
      appendf(out,
              "note: function summaries: %zu memoized instantiation hit(s), "
              "%zu escaped call site(s)\n",
              report.summary_cache_hits, report.escaped_calls);
    }
  }

  out += (quiet ? "" : "\n") + std::string("verdict: ") +
         std::string(verdict_name(report.verdict)) + "\n";
  for (const Finding& f : report.findings) {
    out += "\n  " + f.sink_name + " at " + f.location + "\n";
    out += "    " + f.source_line + "\n";
    out += "    exploitable when: " + f.witness + "\n";
    out += "    fingerprint: " + f.fingerprint + "\n";
    const FindingEvidence& ev = f.evidence;
    if (!ev.taint_path.empty()) out += "    taint path:\n";
    for (const EvidenceHop& hop : ev.taint_path) {
      appendf(out, "      %-8s %s%s\n", hop.kind.c_str(),
              hop.description.c_str(), bracketed(hop.location).c_str());
    }
    if (!ev.guards.empty()) out += "    guarded by:\n";
    for (const EvidenceGuard& g : ev.guards) {
      out += "      " + g.sexpr + bracketed(g.location) + "\n";
    }
    if (!ev.upload_filename.empty()) {
      out += "    attack: upload \"" + ev.upload_filename +
             "\" -> written to \"" + ev.destination + "\"" +
             (ev.destination_complete ? "" : " (partially resolved)") + "\n";
    }
  }
  return out;
}

namespace {

// Splits a "file:line" (lint) or "file:line:col" (finding) rendering
// into artifact uri + 1-based line. Unparsable text keeps the whole
// string as the uri with line 0 (region suppressed).
sarif::Location split_location(std::string_view rendered) {
  sarif::Location loc;
  loc.uri = std::string(rendered);
  // Walk colon-separated numeric suffixes off the right (at most two:
  // column, then line).
  std::string_view rest = rendered;
  std::uint32_t numbers[2] = {0, 0};
  int taken = 0;
  while (taken < 2) {
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string_view::npos) break;
    const std::optional<std::int64_t> n =
        strutil::parse_int(rest.substr(colon + 1));
    if (!n.has_value() || *n < 0) break;
    numbers[taken++] = static_cast<std::uint32_t>(*n);
    rest = rest.substr(0, colon);
  }
  if (taken == 0) return loc;
  loc.uri = std::string(rest);
  // With one numeric suffix it is the line; with two, the line is the
  // first of the pair (the rightmost number was the column).
  loc.line = taken == 1 ? numbers[0] : numbers[1];
  return loc;
}

std::string_view lint_rule_name(std::string_view rule) {
  if (rule == "UC101") return "UnrestrictedUpload";
  if (rule == "UC102") return "ExtensionBlacklist";
  if (rule == "UC103") return "CaseSensitiveCompare";
  if (rule == "UC104") return "DoubleExtensionSplit";
  if (rule == "UC105") return "ForcedExecutableDest";
  if (rule == "UC106") return "RawClientFilename";
  if (rule == "UC107") return "HelperChainTaint";
  if (rule == "UC108") return "EscapedCallSite";
  return "UnknownLint";
}

std::string_view lint_rule_description(std::string_view rule) {
  if (rule == "UC101") {
    return "A tainted upload filename reaches a file-write sink with no "
           "recognized guard.";
  }
  if (rule == "UC102") {
    return "Upload extension filtered with a deny-list; unlisted "
           "executable extensions pass.";
  }
  if (rule == "UC103") {
    return "Extension compared case-sensitively; \".PhP\" bypasses the "
           "check.";
  }
  if (rule == "UC104") {
    return "Extension taken from a fixed explode() segment; "
           "\"a.php.jpg\" style double extensions bypass the check.";
  }
  if (rule == "UC105") {
    return "Upload destination is forced to end with a server-executable "
           "extension.";
  }
  if (rule == "UC106") {
    return "Client-supplied filename used in the destination path "
           "without sanitization.";
  }
  if (rule == "UC107") {
    return "Upload taint can reach a file-write sink through a "
           "helper-function chain that is not proven safe.";
  }
  if (rule == "UC108") {
    return "A dynamic/variable call or callback builtin defeats static "
           "analysis at this call site.";
  }
  return "Unknown lint rule.";
}

std::string_view severity_level(staticpass::Severity s) {
  switch (s) {
    case staticpass::Severity::kError: return "error";
    case staticpass::Severity::kWarning: return "warning";
    case staticpass::Severity::kInfo: return "note";
  }
  return "warning";
}

}  // namespace

sarif::Log to_sarif(const ScanReport& report) {
  sarif::Log log;
  log.tool.name = "uchecker";
  log.tool.version = "1.0.0";
  log.tool.information_uri =
      "https://www.usenix.org/conference/usenixsecurity19/presentation/huang";

  // Declare the full rule vocabulary up front so every result's ruleId
  // resolves regardless of which rules fired in this particular scan.
  log.rules.push_back(
      {"UC001", "UnrestrictedFileUpload",
       "An attacker-controlled upload can be written with a "
       "server-executable extension (verified satisfiable by the SMT "
       "solver)."});
  for (const char* rule : {"UC101", "UC102", "UC103", "UC104", "UC105",
                           "UC106", "UC107", "UC108"}) {
    log.rules.push_back({rule, std::string(lint_rule_name(rule)),
                         std::string(lint_rule_description(rule))});
  }

  for (const Finding& f : report.findings) {
    sarif::Result result;
    result.rule_id = "UC001";
    result.level = "error";
    result.message = "Unrestricted file upload: attacker-controlled data "
                     "reaches " +
                     f.sink_name + "() with a server-executable extension";
    if (!f.evidence.upload_filename.empty()) {
      result.message += "; uploading \"" + f.evidence.upload_filename +
                        "\" writes \"" + f.evidence.destination + "\"";
    }
    result.message += ".";
    result.location.uri = f.file.empty() ? report.app_name : f.file;
    result.location.line = f.line;
    result.fingerprints.emplace_back("uchecker/v1", f.fingerprint);
    if (!f.evidence.taint_path.empty()) {
      sarif::CodeFlow flow;
      for (const EvidenceHop& hop : f.evidence.taint_path) {
        sarif::Location step;
        step.uri = hop.file.empty() ? result.location.uri : hop.file;
        step.line = hop.line;
        step.message = hop.kind + ": " + hop.description;
        flow.locations.push_back(std::move(step));
      }
      sarif::Location sink_step = result.location;
      sink_step.message = "sink: " + f.sink_name + "()";
      flow.locations.push_back(std::move(sink_step));
      result.code_flows.push_back(std::move(flow));
    }
    log.results.push_back(std::move(result));
  }

  for (const staticpass::LintFinding& l : report.lints) {
    sarif::Result result;
    result.rule_id = l.rule;
    result.level = std::string(severity_level(l.severity));
    result.message = l.message;
    if (!l.evidence.empty()) result.message += " (" + l.evidence + ")";
    result.location = split_location(l.location);
    log.results.push_back(std::move(result));
  }
  return log;
}

}  // namespace uchecker::core
