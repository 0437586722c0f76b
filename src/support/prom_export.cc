#include "support/prom_export.h"

#include <map>

#include "support/jsonlite.h"
#include "support/telemetry.h"

#if defined(__linux__)
#include <unistd.h>
#endif

namespace uchecker::telemetry {

namespace {

void append_exemplar(std::string& out, const std::string& trace_id) {
  if (trace_id.empty()) return;
  out += " # {trace_id=\"";
  out += trace_id;
  out += "\"} 1";
}

// Resident set size in bytes from /proc/self/statm; 0 when unavailable.
std::uint64_t resident_bytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size_pages = 0;
  unsigned long long rss_pages = 0;
  const int matched = std::fscanf(f, "%llu %llu", &size_pages, &rss_pages);
  std::fclose(f);
  if (matched != 2) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  if (page <= 0) return 0;
  return static_cast<std::uint64_t>(rss_pages) *
         static_cast<std::uint64_t>(page);
#else
  return 0;
#endif
}

}  // namespace

std::string prom_sanitize_name(std::string_view name) {
  std::string out = "uchecker_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string to_prometheus_text(const Telemetry& telemetry,
                               const PromOptions& options) {
  const MetricsRegistry& reg = telemetry.metrics();
  const auto exemplars = reg.exemplars();
  const auto exemplar_for = [&](const std::string& name) -> std::string {
    const auto it = exemplars.find(name);
    return it == exemplars.end() ? std::string() : it->second;
  };

  std::string out;
  out.reserve(4096);

  for (const auto& [name, value] : reg.counters()) {
    const std::string prom = prom_sanitize_name(name) + "_total";
    out += "# TYPE " + prom + " counter\n";
    out += prom + " ";
    out += std::to_string(value);
    append_exemplar(out, exemplar_for(name));
    out += '\n';
  }

  for (const auto& [name, value] : reg.gauges()) {
    const std::string prom = prom_sanitize_name(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " ";
    out += jsonlite::format_number(value);
    out += '\n';
  }

  for (const auto& [name, hist] : reg.histograms()) {
    const std::string prom = prom_sanitize_name(name);
    out += "# TYPE " + prom + " histogram\n";
    const std::vector<double>& bounds = hist->bounds();
    const std::vector<std::uint64_t> cumulative = hist->cumulative_counts();
    const std::string exemplar = exemplar_for(name);
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      out += prom + "_bucket{le=\"";
      out += jsonlite::format_number(bounds[i]);
      out += "\"} ";
      out += std::to_string(cumulative[i]);
      out += '\n';
    }
    out += prom + "_bucket{le=\"+Inf\"} ";
    out += std::to_string(cumulative.back());
    append_exemplar(out, exemplar);
    out += '\n';
    out += prom + "_sum ";
    out += jsonlite::format_number(hist->sum());
    out += '\n';
    out += prom + "_count ";
    out += std::to_string(hist->count());
    out += '\n';
  }

  if (options.include_process_metrics) {
    if (!options.engine_version.empty()) {
      out += "# TYPE uchecker_engine_info gauge\n";
      out += "uchecker_engine_info{version=\"" + options.engine_version +
             "\"} 1\n";
    }
    if (options.process_start != std::chrono::steady_clock::time_point{}) {
      const double uptime =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        options.process_start)
              .count();
      out += "# TYPE uchecker_process_uptime_seconds gauge\n";
      out += "uchecker_process_uptime_seconds ";
      out += jsonlite::format_number(uptime);
      out += '\n';
    }
    if (const std::uint64_t rss = resident_bytes(); rss > 0) {
      out += "# TYPE uchecker_process_resident_memory_bytes gauge\n";
      out += "uchecker_process_resident_memory_bytes ";
      out += std::to_string(rss);
      out += '\n';
    }
  }

  return out;
}

}  // namespace uchecker::telemetry
