// Engine-introspection profiler tests: deterministic fork-site
// attribution, budget post-mortems, the profiling-off byte-identity
// contract, solver attribution, JSON round-trips, and a concurrent
// snapshot exercise (the TSan target in ci/sanitize.sh).
#include "support/profile.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/detector/detector.h"
#include "core/detector/report_io.h"
#include "corpus/corpus.h"
#include "support/jsonlite.h"

namespace uchecker {
namespace {

core::ScanReport scan(const std::string& handler_php,
                      core::ScanOptions options = {}) {
  core::Application app;
  app.name = "test-app";
  app.files.push_back(core::AppFile{"handler.php", "<?php\n" + handler_php});
  return core::Detector(options).scan(app);
}

// A root whose explosion is loop-driven: a concretely-bounded for loop
// whose body forks on a distinct $_POST key per iteration, plus one
// standalone conditional for contrast. Every arm adds a directory level
// the sink reads, so no join merges the paths. The sink keeps the root
// past locality and the static pass (pruned roots never profile).
constexpr const char* kLoopyApp = R"(
$sub = '/u/';
for ($i = 0; $i < 3; $i++) {
    if (isset($_POST['k' . $i])) {
        $sub .= 'k' . $i . '/';
    }
}
if (isset($_POST['solo'])) {
    $sub .= 'solo/';
}
$dest = $sub . $_FILES['f']['name'];
move_uploaded_file($_FILES['f']['tmp_name'], $dest);
)";

// A loop wide enough to blow any small path budget before its sink.
constexpr const char* kExplodingApp = R"(
$sub = '/u/';
for ($i = 0; $i < 40; $i++) {
    if (isset($_POST['k' . $i])) {
        $sub .= 'k' . $i . '/';
    }
}
move_uploaded_file($_FILES['f']['tmp_name'], $sub . $_FILES['f']['name']);
)";

// Wall times vary run to run; everything else in a report must not.
void zero_timings(core::ScanReport& report) {
  report.seconds = 0.0;
  for (auto& [phase, ms] : report.phase_ms) ms = 0.0;
  for (core::RootCost& cost : report.root_costs) {
    cost.interp_ms = 0.0;
    cost.solve_ms = 0.0;
  }
}

TEST(ProfileTest, ForkSiteRankingIsDeterministic) {
  core::ScanOptions options;
  options.profile = true;
  const core::ScanReport first = scan(kLoopyApp, options);
  const core::ScanReport second = scan(kLoopyApp, options);
  ASSERT_TRUE(first.profiled);
  ASSERT_EQ(first.profile.roots.size(), 1u);
  const profile::RootProfile& root = first.profile.roots[0];
  EXPECT_FALSE(root.incomplete);
  ASSERT_FALSE(root.fork_sites.empty());
  // Ranked by cumulative paths, resolved to "file:line".
  for (std::size_t i = 1; i < root.fork_sites.size(); ++i) {
    EXPECT_GE(root.fork_sites[i - 1].cumulative_paths,
              root.fork_sites[i].cumulative_paths);
  }
  for (const profile::ForkSiteStats& site : root.fork_sites) {
    EXPECT_EQ(site.site.rfind("handler.php:", 0), 0u) << site.site;
    EXPECT_GT(site.visits, 0u);
    EXPECT_GE(site.cumulative_paths, site.self_paths);
  }
  // The loop's cumulative count includes its body's conditionals, so
  // cumulative must strictly exceed self — the top-of-chain loop is
  // distinguishable from the forks inside it.
  const profile::ForkSiteStats* loop = nullptr;
  for (const profile::ForkSiteStats& site : root.fork_sites) {
    if (site.kind == profile::ForkKind::kLoop) loop = &site;
  }
  ASSERT_NE(loop, nullptr);
  EXPECT_GT(loop->cumulative_paths, loop->self_paths);
  // Determinism: a second scan attributes identically.
  ASSERT_TRUE(second.profiled);
  ASSERT_EQ(second.profile.roots.size(), 1u);
  const profile::RootProfile& again = second.profile.roots[0];
  ASSERT_EQ(again.fork_sites.size(), root.fork_sites.size());
  for (std::size_t i = 0; i < root.fork_sites.size(); ++i) {
    EXPECT_EQ(again.fork_sites[i].site, root.fork_sites[i].site);
    EXPECT_EQ(again.fork_sites[i].visits, root.fork_sites[i].visits);
    EXPECT_EQ(again.fork_sites[i].cumulative_paths,
              root.fork_sites[i].cumulative_paths);
    EXPECT_EQ(again.fork_sites[i].self_paths, root.fork_sites[i].self_paths);
  }
}

TEST(ProfileTest, PostMortemOnBudgetExhaustionNamesDominantLoop) {
  core::ScanOptions options;
  options.profile = true;
  options.budget.max_paths = 32;
  options.budget.loop_unroll = 40;  // let the loop actually explode
  const core::ScanReport report = scan(kExplodingApp, options);
  EXPECT_TRUE(report.budget_exhausted);
  ASSERT_TRUE(report.profiled);
  ASSERT_EQ(report.profile.roots.size(), 1u);
  const profile::RootProfile& root = report.profile.roots[0];
  EXPECT_TRUE(root.incomplete);
  EXPECT_EQ(root.reason, "budget_exhausted");
  EXPECT_GT(root.peak_paths, 32u);
  ASSERT_TRUE(root.post_mortem.has_value());
  const profile::PostMortem& pm = *root.post_mortem;
  EXPECT_EQ(pm.reason, "budget_exhausted");
  EXPECT_EQ(pm.peak_paths, root.peak_paths);
  ASSERT_FALSE(pm.top_sites.empty());
  EXPECT_LE(pm.top_sites.size(), 10u);
  for (std::size_t i = 1; i < pm.top_sites.size(); ++i) {
    EXPECT_GE(pm.top_sites[i - 1].cumulative_paths,
              pm.top_sites[i].cumulative_paths);
  }
  // The explosion lives in the for loop; the post-mortem must say so.
  EXPECT_NE(pm.dominant_loop.find("handler.php:"), std::string::npos)
      << pm.dominant_loop;
  EXPECT_NE(pm.dominant_loop.find("(loop"), std::string::npos)
      << pm.dominant_loop;
}

TEST(ProfileTest, ConditionalOnlyPostMortemFallsBackToTopSite) {
  core::ScanOptions options;
  options.profile = true;
  options.budget.max_paths = 8;
  // A pure if ladder whose arms the sink reads, so no join merges.
  std::string ladder;
  for (int i = 0; i < 12; ++i) {
    ladder += "if (isset($_POST['f" + std::to_string(i) +
              "'])) { $sub .= 'f/'; }\n";
  }
  const core::ScanReport report =
      scan("$sub = '/u/';\n" + ladder +
               "move_uploaded_file($_FILES['f']['tmp_name'], $sub . "
               "$_FILES['f']['name']);\n",
           options);
  ASSERT_TRUE(report.profiled);
  ASSERT_EQ(report.profile.roots.size(), 1u);
  ASSERT_TRUE(report.profile.roots[0].post_mortem.has_value());
  const profile::PostMortem& pm = *report.profile.roots[0].post_mortem;
  // No loop forked, yet the field still names the dominating construct.
  EXPECT_NE(pm.dominant_loop.find("(conditional"), std::string::npos)
      << pm.dominant_loop;
  ASSERT_FALSE(pm.top_sites.empty());
  EXPECT_NE(pm.dominant_loop.find(pm.top_sites[0].site), std::string::npos);
}

TEST(ProfileTest, ReportsByteIdenticalWithProfilingOff) {
  core::ScanOptions off_options;
  core::ScanOptions on_options;
  on_options.profile = true;
  core::ScanReport off = scan(kLoopyApp, off_options);
  core::ScanReport on = scan(kLoopyApp, on_options);
  const std::string off_json = core::to_json(off);
  const std::string on_json = core::to_json(on);
  EXPECT_EQ(off_json.find("\"profile\""), std::string::npos);
  EXPECT_NE(on_json.find("\"profile\""), std::string::npos);
  // Stripping the profile (what scand does before caching) and
  // normalizing wall times leaves the two reports byte-identical:
  // profiling may add the profile object and nothing else.
  on.profiled = false;
  on.profile = {};
  on.peak_rss_bytes = off.peak_rss_bytes;  // only serialized via profile
  zero_timings(off);
  zero_timings(on);
  EXPECT_EQ(core::to_json(off), core::to_json(on));
}

TEST(ProfileTest, SolverCostIsAttributedToSinkOrigin) {
  core::ScanOptions options;
  options.profile = true;
  const core::ScanReport report = scan(R"(
$dest = '/u/' . $_FILES['f']['name'];
move_uploaded_file($_FILES['f']['tmp_name'], $dest);
)",
                                       options);
  EXPECT_EQ(report.verdict, core::Verdict::kVulnerable);
  ASSERT_TRUE(report.profiled);
  ASSERT_EQ(report.profile.roots.size(), 1u);
  const profile::RootProfile& root = report.profile.roots[0];
  ASSERT_FALSE(root.solver.empty());
  std::uint64_t queries = 0;
  for (const profile::SolverSiteStats& site : root.solver) {
    EXPECT_EQ(site.sink, "move_uploaded_file");
    EXPECT_EQ(site.origin.rfind("handler.php:", 0), 0u) << site.origin;
    queries += site.queries + site.cache_hits;
  }
  EXPECT_GT(queries, 0u);
}

TEST(ProfileTest, ProfileJsonRoundTrips) {
  core::ScanOptions options;
  options.profile = true;
  options.budget.max_paths = 32;
  options.budget.loop_unroll = 40;
  const core::ScanReport report = scan(kExplodingApp, options);
  ASSERT_TRUE(report.profiled);
  const std::string rendered = profile::to_json(report.profile);
  const auto parsed = jsonlite::parse(rendered);
  ASSERT_TRUE(parsed.has_value());
  const auto decoded = profile::from_json(*parsed);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(profile::to_json(*decoded), rendered);
  // And through the full report JSON: the profile survives a
  // to_json/from_json cycle attached to its report.
  const std::string report_json = core::to_json(report);
  const auto reparsed = core::report_from_json(report_json);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_TRUE(reparsed->profiled);
  EXPECT_EQ(core::to_json(*reparsed), report_json);
}

TEST(ProfileTest, PeakRssAndAccountedBytesAreRecorded) {
  const core::ScanReport report = scan(kLoopyApp);
  EXPECT_GT(report.peak_rss_bytes, 0u);
  EXPECT_GT(report.accounted_bytes, 0u);
  EXPECT_NE(core::to_json(report).find("\"accounted_bytes\""),
            std::string::npos);
}

// Every Table III app, plus one ladder that exhausts the path budget so
// the post-mortem branch is exercised: each profile is well formed on
// the structs and survives a JSON round trip.
TEST(ProfileTest, EveryCorpusAppProfilesWellFormed) {
  std::vector<core::Application> apps;
  for (corpus::CorpusEntry& entry : corpus::full_corpus()) {
    apps.push_back(std::move(entry.app));
  }
  corpus::SynthSpec ladder;
  ladder.name = "ladder";
  ladder.sequential_ifs = 17;
  ladder.arms_reach_sink = true;
  ladder.filler_loc = 0;
  ladder.filler_files = 0;
  apps.push_back(corpus::synth_app(ladder));

  core::ScanOptions options;
  options.profile = true;
  const core::Detector detector(options);
  std::size_t roots = 0;
  std::size_t incomplete = 0;
  for (const core::Application& app : apps) {
    const core::ScanReport report = detector.scan(app);
    // Apps where locality finds no analysis root never start the profiler.
    EXPECT_EQ(report.profiled, report.roots > 0) << app.name;
    for (const profile::RootProfile& root : report.profile.roots) {
      ++roots;
      for (std::size_t i = 1; i < root.fork_sites.size(); ++i) {
        EXPECT_GE(root.fork_sites[i - 1].cumulative_paths,
                  root.fork_sites[i].cumulative_paths)
            << app.name << " " << root.root;
      }
      for (const profile::ForkSiteStats& site : root.fork_sites) {
        EXPECT_LE(site.self_paths, site.cumulative_paths) << site.site;
        EXPECT_EQ(site.site.find('#'), std::string::npos) << site.site;
      }
      if (root.incomplete) {
        ++incomplete;
        ASSERT_TRUE(root.post_mortem.has_value()) << app.name;
        EXPECT_LE(root.post_mortem->top_sites.size(), 10u);
      }
    }
    if (!report.profiled) continue;
    const std::string rendered = profile::to_json(report.profile);
    const auto parsed = jsonlite::parse(rendered);
    ASSERT_TRUE(parsed.has_value()) << app.name;
    const auto decoded = profile::from_json(*parsed);
    ASSERT_TRUE(decoded.has_value()) << app.name;
    EXPECT_EQ(profile::to_json(*decoded), rendered) << app.name;
  }
  EXPECT_GT(roots, 0u);
  EXPECT_GT(incomplete, 0u);
}

// TSan target: one thread drives the profiler exactly as the
// interpreter would; another snapshots it concurrently (what the scand
// `profile` op does to a live scan in a future in-flight variant).
TEST(ProfileTest, ConcurrentSnapshotIsDataRaceFree) {
  profile::PathProfiler profiler;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::uint64_t observed = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const profile::ExplosionProfile snap = profiler.snapshot();
      for (const profile::RootProfile& root : snap.roots) {
        observed += root.fork_sites.size();
      }
    }
    (void)observed;
  });
  for (int root = 0; root < 50; ++root) {
    profiler.begin_root("root" + std::to_string(root));
    for (int i = 0; i < 20; ++i) {
      profiler.enter_site(profile::ForkKind::kLoop, 1, 10, "for",
                          static_cast<std::size_t>(i));
      profiler.enter_site(profile::ForkKind::kConditional, 1, 11, "if",
                          static_cast<std::size_t>(i + 1));
      profiler.record_solver("move_uploaded_file", 1, 12, 0.25,
                             /*cache_hit=*/i % 2 == 0);
      profiler.sample(static_cast<std::size_t>(2 * i + 2),
                      static_cast<std::size_t>(10 * i), 1024);
      profiler.exit_site(static_cast<std::size_t>(2 * i + 1));
      profiler.exit_site(static_cast<std::size_t>(2 * i + 2));
    }
    profiler.end_root(root % 2 == 0, root % 2 == 0 ? "budget_exhausted" : "");
  }
  done.store(true, std::memory_order_relaxed);
  reader.join();
  const profile::ExplosionProfile final_profile = profiler.take();
  ASSERT_EQ(final_profile.roots.size(), 50u);
  for (const profile::RootProfile& root : final_profile.roots) {
    ASSERT_EQ(root.fork_sites.size(), 2u);
    EXPECT_EQ(root.fork_sites[0].visits, 20u);
    ASSERT_EQ(root.solver.size(), 1u);
    EXPECT_EQ(root.solver[0].queries + root.solver[0].cache_hits, 20u);
  }
}

}  // namespace
}  // namespace uchecker
