#include "support/trace_export.h"

#include "support/jsonlite.h"
#include "support/strutil.h"

namespace uchecker::telemetry {
namespace {

using jsonlite::format_number;

// One trace-event object. `extra` is appended verbatim after the common
// fields (leading ", " included by the caller when non-empty).
void append_event(std::string& out, bool& first, std::string_view name,
                  std::string_view cat, char ph, std::uint64_t ts,
                  std::uint32_t tid, const std::string& extra) {
  if (!first) out += ",\n";
  first = false;
  out += "  {\"name\": " + strutil::quote(name) + ", \"cat\": " +
         strutil::quote(cat) + ", \"ph\": \"" + ph + "\", \"ts\": " +
         std::to_string(ts) + ", \"pid\": 1, \"tid\": " + std::to_string(tid);
  out += extra;
  out += "}";
}

// Shared body of both to_chrome_trace_json overloads: every event of
// every trace, without the surrounding traceEvents wrapper.
void append_trace_events(std::string& out, bool& first,
                         const Telemetry& telemetry,
                         const ChromeTraceOptions& options) {
  for (const ScanTrace* trace : telemetry.traces()) {
    // Consistent copy: safe even while the scan is still writing.
    const TraceSnapshot snap = trace->snapshot();
    const std::uint32_t tid = snap.tid;
    // Request correlation: every event of a trace begun with a trace ID
    // carries it in args, so one grep over the trace file finds the
    // request. Empty for traces begun without one (keeps the golden
    // format test byte-stable).
    const std::string tid_arg =
        snap.trace_id.empty()
            ? std::string()
            : ", \"trace_id\": " + strutil::quote(snap.trace_id);
    // Thread name metadata so Perfetto labels each scan's track.
    append_event(out, first, "thread_name", "__metadata", 'M', 0, tid,
                 ", \"args\": {\"name\": " + strutil::quote(snap.name) +
                     tid_arg + "}");
    for (const Span& span : snap.spans) {
      const std::uint64_t ts = options.zero_times ? 0 : span.start_us;
      const std::uint64_t dur = options.zero_times ? 0 : span.dur_us;
      std::string extra = ", \"dur\": " + std::to_string(dur);
      extra += ", \"args\": {\"detail\": " + strutil::quote(span.detail);
      if (span.open) extra += ", \"open\": true";
      extra += tid_arg;
      extra += "}";
      append_event(out, first, span.name, "phase", 'X', ts, tid, extra);
    }
    for (const ProgressSample& p : snap.progress) {
      const std::uint64_t ts = options.zero_times ? 0 : p.t_us;
      const std::string extra =
          ", \"args\": {\"live_paths\": " + std::to_string(p.live_paths) +
          ", \"objects\": " + std::to_string(p.objects) +
          ", \"heap_bytes\": " + std::to_string(p.heap_bytes) + tid_arg + "}";
      append_event(out, first, "interp.progress", "sample", 'C', ts, tid,
                   extra);
    }
    for (const SolverCallSample& s : snap.solver_calls) {
      const std::uint64_t ts = options.zero_times ? 0 : s.t_us;
      const std::uint64_t dur = options.zero_times ? 0 : s.dur_us;
      std::string extra = ", \"dur\": " + std::to_string(dur);
      extra += ", \"args\": {\"attempts\": " + std::to_string(s.attempts) +
               ", \"escalations\": " + std::to_string(s.escalations) +
               ", \"deadline_exceeded\": " +
               (s.deadline_exceeded ? "true" : "false") +
               ", \"result\": " + strutil::quote(s.result) + tid_arg + "}";
      append_event(out, first, "solver.check", "solver", 'X', ts, tid, extra);
    }
    for (const TraceEvent& e : snap.events) {
      const std::uint64_t ts = options.zero_times ? 0 : e.t_us;
      const std::string extra =
          ", \"s\": \"t\", \"args\": {\"detail\": " + strutil::quote(e.detail) +
          tid_arg + "}";
      append_event(out, first, e.name, "event", 'i', ts, tid, extra);
    }
  }
}

}  // namespace

std::string to_chrome_trace_json(const Telemetry& telemetry,
                                 const ChromeTraceOptions& options) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  append_trace_events(out, first, telemetry, options);
  out += "\n]}";
  return out;
}

std::string to_chrome_trace_json(const Telemetry& telemetry,
                                 const profile::ExplosionProfile& profile,
                                 const ChromeTraceOptions& options) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  append_trace_events(out, first, telemetry, options);
  // Profiled roots render as synthetic tracks after the scan threads:
  // fork-site counters (one series per site, ranked order preserved)
  // plus the live-path timeline.
  std::uint32_t tid = 9000;
  for (const uchecker::profile::RootProfile& root : profile.roots) {
    append_event(out, first, "thread_name", "__metadata", 'M', 0, tid,
                 ", \"args\": {\"name\": " +
                     strutil::quote("profile:" + root.root) + "}");
    for (const uchecker::profile::ForkSiteStats& site : root.fork_sites) {
      const std::string name =
          site.site + " [" +
          std::string(uchecker::profile::fork_kind_name(site.kind)) + " " +
          site.detail + "]";
      const std::string extra =
          ", \"args\": {\"paths_spawned\": " +
          std::to_string(site.cumulative_paths) +
          ", \"self_paths\": " + std::to_string(site.self_paths) +
          ", \"visits\": " + std::to_string(site.visits) + "}";
      append_event(out, first, name, "fork_site", 'C', 0, tid, extra);
    }
    for (const ProgressSample& p : root.samples) {
      const std::uint64_t ts = options.zero_times ? 0 : p.t_us;
      const std::string extra =
          ", \"args\": {\"live_paths\": " + std::to_string(p.live_paths) +
          ", \"objects\": " + std::to_string(p.objects) +
          ", \"heap_bytes\": " + std::to_string(p.heap_bytes) + "}";
      append_event(out, first, "profile.live_paths", "fork_site", 'C', ts,
                   tid, extra);
    }
    ++tid;
  }
  out += "\n]}";
  return out;
}

std::string metrics_to_json(const Telemetry& telemetry) {
  const MetricsRegistry& m = telemetry.metrics();
  std::string out = "{\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : m.counters()) {
    if (!first) out += ", ";
    first = false;
    out += strutil::quote(name) + ": " + std::to_string(value);
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, value] : m.gauges()) {
    if (!first) out += ", ";
    first = false;
    out += strutil::quote(name) + ": " + format_number(value);
  }
  out += "}, \"exemplars\": {";
  first = true;
  for (const auto& [name, trace_id] : m.exemplars()) {
    if (!first) out += ", ";
    first = false;
    out += strutil::quote(name) + ": " + strutil::quote(trace_id);
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : m.histograms()) {
    if (!first) out += ", ";
    first = false;
    out += strutil::quote(name) + ": {\"count\": " +
           std::to_string(hist->count()) +
           ", \"sum\": " + format_number(hist->sum()) +
           ", \"min\": " + format_number(hist->min()) +
           ", \"max\": " + format_number(hist->max()) + ", \"buckets\": [";
    const std::vector<double>& bounds = hist->bounds();
    // Cumulative le-convention counts — the same numbers the Prometheus
    // exposition serves, so the two surfaces agree on boundary-exact
    // samples and the final "inf" bucket always equals "count".
    const std::vector<std::uint64_t> counts = hist->cumulative_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i != 0) out += ", ";
      out += "{\"le\": ";
      out += i < bounds.size() ? format_number(bounds[i]) : "\"inf\"";
      out += ", \"count\": " + std::to_string(counts[i]) + "}";
    }
    out += "]}";
  }
  out += "}, \"phases\": [";
  first = true;
  for (const PhaseStats& s : telemetry.fleet_phase_stats()) {
    if (!first) out += ", ";
    first = false;
    out += "{\"phase\": " + strutil::quote(s.phase) +
           ", \"count\": " + std::to_string(s.count) +
           ", \"total_ms\": " + format_number(s.total_ms) +
           ", \"p50_ms\": " + format_number(s.p50_ms) +
           ", \"p95_ms\": " + format_number(s.p95_ms) +
           ", \"p99_ms\": " + format_number(s.p99_ms) +
           ", \"max_ms\": " + format_number(s.max_ms) + "}";
  }
  out += "]}";
  return out;
}

}  // namespace uchecker::telemetry
