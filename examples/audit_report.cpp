// audit_report: runs UChecker and both baselines over the whole
// reconstructed corpus and prints an auditor-style report: per-app
// verdicts with precise source locations and full finding provenance
// (source→sink taint path, branch guards, decoded attack), aggregate
// precision/recall for all three tools, and a fleet-level per-phase
// latency table (p50/p95/p99 wall time per pipeline phase, from scan
// telemetry), and an explosion-hotspots table: the corpus-wide fork
// sites that spawned the most execution paths (with the budget
// post-mortem of any root that died incomplete, the paper's Cimy FN
// mechanism explained in one table).
//
//   $ ./build/examples/audit_report
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "baselines/rips.h"
#include "baselines/wap.h"
#include "core/detector/detector.h"
#include "core/detector/report_io.h"
#include "corpus/corpus.h"
#include "support/telemetry.h"

using namespace uchecker;
using namespace uchecker::core;

namespace {

struct Counts {
  int tp = 0, fp = 0, fn = 0, tn = 0;

  void add(bool truth, bool flagged) {
    if (truth && flagged) ++tp;
    if (truth && !flagged) ++fn;
    if (!truth && flagged) ++fp;
    if (!truth && !flagged) ++tn;
  }
  [[nodiscard]] double precision() const {
    return tp + fp == 0 ? 0.0 : 100.0 * tp / (tp + fp);
  }
  [[nodiscard]] double recall() const {
    return tp + fn == 0 ? 0.0 : 100.0 * tp / (tp + fn);
  }
};

}  // namespace

int main() {
  uchecker::telemetry::Telemetry telemetry;
  ScanOptions scan_options;
  scan_options.telemetry = &telemetry;
  scan_options.explain = true;  // auditors want the full provenance
  scan_options.profile = true;  // ...and the explosion hotspots
  Detector uchecker_scanner(scan_options);
  baselines::RipsScanner rips;
  baselines::WapScanner wap;

  Counts cu, cr, cw;
  std::map<std::string, std::size_t> lints_by_rule;
  std::size_t total_roots = 0;
  std::size_t total_pruned = 0;
  // (app, root) cost rows across the whole corpus, for the
  // most-expensive-roots table at the end.
  struct RootRow {
    std::string app;
    RootCost cost;
  };
  std::vector<RootRow> root_rows;
  // Corpus-wide fork-site rows for the explosion-hotspots table, plus
  // the post-mortems of every root that ended incomplete.
  struct SiteRow {
    std::string app;
    std::string root;
    profile::ForkSiteStats site;
  };
  std::vector<SiteRow> site_rows;
  struct MortemRow {
    std::string app;
    std::string root;
    profile::PostMortem mortem;
  };
  std::vector<MortemRow> mortem_rows;
  std::printf("=== UChecker audit of the reconstructed DSN'19 corpus ===\n\n");
  for (const corpus::CorpusEntry& entry : corpus::full_corpus()) {
    const ScanReport report = uchecker_scanner.scan(entry.app);
    for (const staticpass::LintFinding& l : report.lints) {
      ++lints_by_rule[l.rule + " (" +
                      std::string(staticpass::severity_name(l.severity)) +
                      ")"];
    }
    total_roots += report.roots;
    total_pruned += report.pruned_roots;
    for (const RootCost& rc : report.root_costs) {
      if (!rc.pruned) root_rows.push_back(RootRow{entry.app.name, rc});
    }
    for (const profile::RootProfile& rp : report.profile.roots) {
      for (const profile::ForkSiteStats& site : rp.fork_sites) {
        site_rows.push_back(SiteRow{entry.app.name, rp.root, site});
      }
      if (rp.post_mortem.has_value()) {
        mortem_rows.push_back(
            MortemRow{entry.app.name, rp.root, *rp.post_mortem});
      }
    }
    const bool u = report.verdict == Verdict::kVulnerable;
    const bool r = rips.scan(entry.app).flagged;
    const bool w = wap.scan(entry.app).flagged;
    cu.add(entry.ground_truth_vulnerable, u);
    cr.add(entry.ground_truth_vulnerable, r);
    cw.add(entry.ground_truth_vulnerable, w);

    if (!u) continue;
    std::printf("%s\n", entry.app.name.c_str());
    std::printf("  ground truth: %s%s\n",
                entry.ground_truth_vulnerable ? "vulnerable" : "benign",
                entry.ground_truth_vulnerable ? "" : "  (FALSE POSITIVE)");
    std::printf("%s\n", to_text(report, /*quiet=*/true).c_str());
  }

  std::printf("=== aggregate ===\n");
  std::printf("%-9s  TP=%2d FP=%2d FN=%2d TN=%2d  precision=%5.1f%%  "
              "recall=%5.1f%%\n",
              "UChecker", cu.tp, cu.fp, cu.fn, cu.tn, cu.precision(),
              cu.recall());
  std::printf("%-9s  TP=%2d FP=%2d FN=%2d TN=%2d  precision=%5.1f%%  "
              "recall=%5.1f%%\n",
              "RIPS", cr.tp, cr.fp, cr.fn, cr.tn, cr.precision(), cr.recall());
  std::printf("%-9s  TP=%2d FP=%2d FN=%2d TN=%2d  precision=%5.1f%%  "
              "recall=%5.1f%%\n",
              "WAP", cw.tp, cw.fp, cw.fn, cw.tn, cw.precision(), cw.recall());

  // Static-pass summary: how many lints each idiom rule produced over
  // the corpus, and how much symbolic-execution work the pre-filter
  // saved.
  std::printf("\n=== static pass (pre-symbolic) ===\n");
  std::printf("pruned %zu of %zu analysis root(s) before symbolic "
              "execution\n",
              total_pruned, total_roots);
  for (const auto& [rule, count] : lints_by_rule) {
    std::printf("%-20s %4zu finding(s)\n", rule.c_str(), count);
  }

  // Fleet-level latency breakdown: where the UChecker pipeline spends
  // its wall time across all scanned apps, in pipeline order.
  std::printf("\n=== UChecker per-phase latency (all apps) ===\n");
  std::printf("%-10s %6s %10s %10s %10s %10s %10s\n", "phase", "count",
              "total ms", "p50 ms", "p95 ms", "p99 ms", "max ms");
  for (const uchecker::telemetry::PhaseStats& s :
       telemetry.fleet_phase_stats()) {
    std::printf("%-10s %6zu %10.2f %10.3f %10.3f %10.3f %10.3f\n",
                s.phase.c_str(), s.count, s.total_ms, s.p50_ms, s.p95_ms,
                s.p99_ms, s.max_ms);
  }

  // Cost attribution: the individual analysis roots the corpus spends
  // the most wall time on — the optimization targets.
  std::sort(root_rows.begin(), root_rows.end(),
            [](const RootRow& x, const RootRow& y) {
              return x.cost.interp_ms + x.cost.solve_ms >
                     y.cost.interp_ms + y.cost.solve_ms;
            });
  std::printf("\n=== most expensive analysis roots ===\n");
  std::printf("%10s %10s %10s %8s %8s  %s\n", "total ms", "interp ms",
              "solve ms", "paths", "solves", "app :: root");
  const std::size_t show = std::min<std::size_t>(root_rows.size(), 10);
  for (std::size_t i = 0; i < show; ++i) {
    const RootRow& row = root_rows[i];
    std::printf("%10.2f %10.2f %10.2f %8zu %8zu  %s :: %s\n",
                row.cost.interp_ms + row.cost.solve_ms, row.cost.interp_ms,
                row.cost.solve_ms, row.cost.paths, row.cost.solver_calls,
                row.app.c_str(), row.cost.root.c_str());
  }

  // Path-explosion hotspots: which source constructs spawned the most
  // execution paths across the corpus. These are the lines to refactor
  // (or budget around) when a scan dies incomplete.
  std::sort(site_rows.begin(), site_rows.end(),
            [](const SiteRow& x, const SiteRow& y) {
              if (x.site.cumulative_paths != y.site.cumulative_paths) {
                return x.site.cumulative_paths > y.site.cumulative_paths;
              }
              return x.site.self_paths > y.site.self_paths;
            });
  std::printf("\n=== explosion hotspots (fork sites by paths spawned) ===\n");
  std::printf("%10s %10s %7s %-8s %-14s %s\n", "paths", "self", "visits",
              "kind", "detail", "app :: site");
  const std::size_t site_show = std::min<std::size_t>(site_rows.size(), 10);
  for (std::size_t i = 0; i < site_show; ++i) {
    const SiteRow& row = site_rows[i];
    std::printf("%10llu %10llu %7llu %-8s %-14s %s :: %s\n",
                static_cast<unsigned long long>(row.site.cumulative_paths),
                static_cast<unsigned long long>(row.site.self_paths),
                static_cast<unsigned long long>(row.site.visits),
                std::string(profile::fork_kind_name(row.site.kind)).c_str(),
                row.site.detail.c_str(), row.app.c_str(),
                row.site.site.c_str());
  }
  for (const MortemRow& row : mortem_rows) {
    std::printf("\npost-mortem: %s :: %s died of %s at %llu live paths\n",
                row.app.c_str(), row.root.c_str(), row.mortem.reason.c_str(),
                static_cast<unsigned long long>(row.mortem.peak_paths));
    if (!row.mortem.dominant_loop.empty()) {
      std::printf("  dominant loop: %s\n", row.mortem.dominant_loop.c_str());
    }
    const std::size_t top_show =
        std::min<std::size_t>(row.mortem.top_sites.size(), 5);
    for (std::size_t i = 0; i < top_show; ++i) {
      const profile::ForkSiteStats& site = row.mortem.top_sites[i];
      std::printf("  %10llu paths  %-8s %-14s %s\n",
                  static_cast<unsigned long long>(site.cumulative_paths),
                  std::string(profile::fork_kind_name(site.kind)).c_str(),
                  site.detail.c_str(), site.site.c_str());
    }
  }
  return 0;
}
