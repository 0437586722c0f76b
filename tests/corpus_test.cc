// Integration tests over the reconstructed Table III corpus: structure
// invariants, and — the headline reproduction — per-application verdicts
// matching the paper for all 44 apps, plus the §IV-C baseline comparison.
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/rips.h"
#include "baselines/wap.h"
#include "core/detector/detector.h"
#include "corpus/corpus.h"
#include "phpparse/parser.h"
#include "alpha_pair.h"
#include "support/profile.h"
#include "witness_resolve.h"

namespace uchecker::corpus {
namespace {

using core::Detector;
using core::ScanReport;
using core::Verdict;

const std::vector<CorpusEntry>& corpus() {
  static const auto* entries = new std::vector<CorpusEntry>(full_corpus());
  return *entries;
}

// Scan each app once; reports are shared across tests.
const std::map<std::string, ScanReport>& reports() {
  static const auto* cached = [] {
    auto* m = new std::map<std::string, ScanReport>();
    Detector detector;
    for (const CorpusEntry& entry : corpus()) {
      m->emplace(entry.app.name, detector.scan(entry.app));
    }
    return m;
  }();
  return *cached;
}

TEST(CorpusStructure, CategorySizesMatchPaper) {
  EXPECT_EQ(known_vulnerable().size(), 13u);
  EXPECT_EQ(benign().size(), 28u);
  EXPECT_EQ(new_vulnerable().size(), 3u);
  EXPECT_EQ(corpus().size(), 44u);
}

TEST(CorpusStructure, GroundTruthLabels) {
  int vulnerable = 0;
  int expected_flags = 0;
  for (const CorpusEntry& e : corpus()) {
    vulnerable += e.ground_truth_vulnerable;
    expected_flags += e.paper_flagged_by_uchecker;
  }
  EXPECT_EQ(vulnerable, 16);       // 13 known + 3 new
  EXPECT_EQ(expected_flags, 17);   // 15 TP + 2 FP
}

TEST(CorpusStructure, AllAppsParseCleanly) {
  for (const CorpusEntry& entry : corpus()) {
    SourceManager sm;
    DiagnosticSink diags;
    for (const core::AppFile& f : entry.app.files) {
      const FileId id = sm.add_file(f.name, f.content);
      Arena arena;
      (void)phpparse::parse_php(*sm.file(id), diags, arena);
    }
    EXPECT_EQ(diags.error_count(), 0u) << entry.app.name << "\n"
                                       << diags.render(sm);
  }
}

TEST(CorpusStructure, LocTracksPaperColumn) {
  for (const CorpusEntry& entry : corpus()) {
    if (entry.paper.loc == 0) continue;  // unnamed benign rows
    const ScanReport& report = reports().at(entry.app.name);
    const double ratio = static_cast<double>(report.total_loc) /
                         static_cast<double>(entry.paper.loc);
    EXPECT_GT(ratio, 0.85) << entry.app.name;
    EXPECT_LT(ratio, 1.15) << entry.app.name;
  }
}

// --- the headline reproduction (Table III verdict column) ---------------------

class CorpusVerdict : public ::testing::TestWithParam<std::size_t> {};

// The one deliberate deviation from the paper's column: merging at
// if/switch joins decides Cimy within budget, so the paper's false
// negative is a true positive here (EXPERIMENTS.md E1).
bool is_cimy(const CorpusEntry& entry) {
  return entry.app.name == "Cimy User Extra Fields 2.3.8";
}

TEST_P(CorpusVerdict, MatchesPaperColumn) {
  const CorpusEntry& entry = corpus().at(GetParam());
  const ScanReport& report = reports().at(entry.app.name);
  const bool flagged = report.verdict == Verdict::kVulnerable;
  EXPECT_EQ(flagged, entry.paper_flagged_by_uchecker || is_cimy(entry))
      << entry.app.name << ": verdict " << verdict_name(report.verdict);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, CorpusVerdict, ::testing::Range<std::size_t>(0, 44),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      std::string name = corpus().at(info.param).app.name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(CorpusDetection, AggregateMatchesPaper) {
  int tp = 0, fn = 0, fp = 0, tn = 0;
  for (const CorpusEntry& entry : corpus()) {
    const bool flagged =
        reports().at(entry.app.name).verdict == Verdict::kVulnerable;
    if (entry.ground_truth_vulnerable) {
      flagged ? ++tp : ++fn;
    } else {
      flagged ? ++fp : ++tn;
    }
  }
  EXPECT_EQ(tp, 16);  // 13/13 known (the paper: 12, Cimy lost) + 3/3 new
  EXPECT_EQ(fn, 0);
  EXPECT_EQ(fp, 2);   // the two admin-gated plugins
  EXPECT_EQ(tn, 26);
}

TEST(CorpusDetection, CimyDetectedWithinBudget) {
  // The paper loses Cimy to 2^10 * 3^5 paths. Every arm of its ladders
  // writes only $audit, which the upload never reads, so each join
  // merges its arms back and the weights still count every path.
  const auto& entries = corpus();
  const auto cimy = std::find_if(entries.begin(), entries.end(), is_cimy);
  ASSERT_NE(cimy, entries.end());
  core::ScanOptions options;
  options.profile = true;
  const ScanReport report = Detector(options).scan(cimy->app);
  EXPECT_EQ(report.verdict, Verdict::kVulnerable);
  EXPECT_FALSE(report.budget_exhausted);
  EXPECT_EQ(report.paths, 248832u);
  ASSERT_TRUE(report.profiled);
  ASSERT_FALSE(report.profile.roots.empty());
  for (const profile::RootProfile& root : report.profile.roots) {
    EXPECT_FALSE(root.incomplete) << root.root;
    EXPECT_LE(root.peak_paths, 16u) << root.root;
  }
}

TEST(CorpusDetection, SinkRelevantLadderPostMortemNamesTheIfLadder) {
  // A Cimy-sized ladder whose arms the sink does read (each adds a
  // directory level) still explodes, and its post-mortem must name the
  // ladder: a pure if ladder, no loop forks, so the dominating construct
  // is the top fork site of any kind.
  SynthSpec spec;
  spec.name = "ladder";
  spec.sequential_ifs = 17;
  spec.arms_reach_sink = true;
  spec.filler_loc = 0;
  spec.filler_files = 0;
  core::ScanOptions options;
  options.profile = true;
  const ScanReport report = Detector(options).scan(synth_app(spec));
  EXPECT_EQ(report.verdict, Verdict::kAnalysisIncomplete);
  EXPECT_TRUE(report.budget_exhausted);
  ASSERT_TRUE(report.profiled);
  ASSERT_EQ(report.profile.roots.size(), 1u);
  const profile::RootProfile& dead = report.profile.roots[0];
  EXPECT_TRUE(dead.incomplete);
  EXPECT_EQ(dead.reason, "budget_exhausted");
  ASSERT_TRUE(dead.post_mortem.has_value());
  const profile::PostMortem& pm = *dead.post_mortem;
  EXPECT_EQ(pm.reason, "budget_exhausted");
  EXPECT_EQ(pm.peak_paths, 131072u);
  EXPECT_EQ(pm.dominant_loop, "ladder-handler.php:54 (conditional if)");
  EXPECT_FALSE(pm.live_path_histogram.empty());
  ASSERT_FALSE(pm.top_sites.empty());
  EXPECT_EQ(pm.top_sites[0].site, "ladder-handler.php:54");
  EXPECT_EQ(pm.top_sites[0].cumulative_paths, 65536u);
  for (std::size_t i = 1; i < pm.top_sites.size(); ++i) {
    EXPECT_GE(pm.top_sites[i - 1].cumulative_paths,
              pm.top_sites[i].cumulative_paths)
        << "post-mortem sites not ranked by paths spawned";
  }
}

TEST(CorpusDetection, NamedAppPathCountsMatchE1) {
  // EXPERIMENTS.md E1's "Paths (meas)" column. Merging shrinks the live
  // environments, but each carries the paths it stands for, so the
  // structural counts stay exactly what an unmerged run forks.
  const std::map<std::string, std::size_t> expected = {
      {"Adblock Blocker 0.0.1", 8},
      {"WP Marketplace 2.4.1", 2},
      {"Foxypress 0.4.1.1-0.4.2.1", 64},
      {"Estatik 2.2.5", 12},
      {"Uploadify 1.0.0", 2},
      {"MailCWP 1.100", 8},
      {"WooCommerce Catalog Enquiry 3.0.1", 32},
      {"N-Media Website Contact Form with File Uploader 1.3.4", 128},
      {"Simple Ad Manager 2.5.94", 1536},
      {"wp-Powerplaygallery 3.3", 1152},
      {"Joomla-Bible-study 9.1.1", 16},
      {"Avatar Uploader 6.x-1.2", 9216},
      {"Cimy User Extra Fields 2.3.8", 248832},
      {"Event Registration Pro Calendar 1.0.2", 4},
      {"Tumult Hype Animations 1.7.1", 4},
      {"File Provider 1.2.3", 32},
      {"WooCommerce Custom Profile Picture 1.0", 2},
      {"WP Demo Buddy 1.0.2", 2},
  };
  for (const auto& [name, paths] : expected) {
    const auto it = reports().find(name);
    ASSERT_NE(it, reports().end()) << name;
    EXPECT_EQ(it->second.paths, paths) << name;
  }
}

TEST(CorpusDetection, AvatarUploaderPathCountExact) {
  // Table III: 9216 paths (2^10 * 9).
  EXPECT_EQ(reports().at("Avatar Uploader 6.x-1.2").paths, 9216u);
}

TEST(CorpusDetection, ObjectSharingShapeHolds) {
  // Paper §IV-A: "each path has less than 100 objects on average".
  for (const CorpusEntry& entry : corpus()) {
    const ScanReport& report = reports().at(entry.app.name);
    if (report.paths == 0) continue;
    EXPECT_LT(report.objects_per_path, 100.0) << entry.app.name;
  }
}

TEST(CorpusDetection, LocalityReductionShapeHolds) {
  // Paper: locality excludes 67%..99.7% of each app's code.
  for (const CorpusEntry& entry : corpus()) {
    const ScanReport& report = reports().at(entry.app.name);
    if (report.roots == 0) continue;
    EXPECT_LT(report.analyzed_percent, 55.0) << entry.app.name;
  }
}

TEST(CorpusDetection, StaticPassPrunesAtLeastThirtyPercentOfRoots) {
  // The static pre-pass (summaries on) must discharge at least 30% of
  // the Table III analysis roots before symbolic execution.
  std::size_t roots = 0, pruned = 0;
  for (const auto& [name, report] : reports()) {
    roots += report.roots;
    pruned += report.pruned_roots;
  }
  ASSERT_GT(roots, 0u);
  EXPECT_GE(pruned * 10, roots * 3) << pruned << "/" << roots << " pruned";
}

TEST(CorpusDetection, FindingsCiteRealSourceLines) {
  for (const CorpusEntry& entry : corpus()) {
    const ScanReport& report = reports().at(entry.app.name);
    for (const core::Finding& f : report.findings) {
      EXPECT_NE(f.source_line.find(f.sink_name), std::string::npos)
          << entry.app.name << " @ " << f.location;
    }
  }
}

// Every finding of `corpus_verdicts --suite all` (the golden's 20
// witness lines) is a model of its own query: pinning each binding keeps
// the query SAT. The golden pins the witnesses' bytes; this pins what
// they mean, which any correct solver set-up must keep.
TEST(CorpusDetection, EveryWitnessSatisfiesItsQuery) {
  core::ScanOptions options;
  options.explain = true;
  Detector detector(options);
  std::vector<CorpusEntry> entries = full_corpus();
  for (CorpusEntry& entry : helper_sink_suite()) {
    entries.push_back(std::move(entry));
  }
  std::size_t findings = 0;
  for (const CorpusEntry& entry : entries) {
    SCOPED_TRACE(entry.app.name);
    for (const core::Finding& f : detector.scan(entry.app).findings) {
      ++findings;
      testing_witness::expect_witness_resolves(f);
    }
  }
  EXPECT_EQ(findings, 20u);
}

// One solve answers every query equal to it up to renaming: the
// renamed copy of an upload makes no Z3 call, and its witness and its
// query are in its own names, and resolve against each other.
TEST(CorpusDetection, AlphaRenamedCopyReusesTheSolveInItsOwnNames) {
  core::ScanOptions options;
  options.explain = true;
  const Detector detector(options);
  const ScanReport first = detector.scan(testing_alpha::original_app());
  ASSERT_EQ(first.verdict, Verdict::kVulnerable);
  EXPECT_EQ(first.solver_calls, 1u);
  ASSERT_EQ(first.findings.size(), 1u);

  const ScanReport copy = detector.scan(testing_alpha::renamed_app());
  ASSERT_EQ(copy.verdict, Verdict::kVulnerable);
  EXPECT_EQ(copy.solver_calls, 0u);
  EXPECT_EQ(copy.solver_cache_hits, 1u);
  ASSERT_EQ(copy.findings.size(), 1u);
  const core::Finding& f = copy.findings[0];
  EXPECT_NE(f.witness.find("s_files_photo_ext = "), std::string::npos)
      << f.witness;
  EXPECT_EQ(f.witness.find("avatar"), std::string::npos) << f.witness;
  // The evidence carries the copy's own query, not the cached one.
  EXPECT_NE(f.evidence.query.find("s_files_photo_ext"), std::string::npos)
      << f.evidence.query;
  EXPECT_EQ(f.evidence.query.find("avatar"), std::string::npos);
  EXPECT_EQ(f.evidence.query.find("(declare-fun c0 "), std::string::npos);
  testing_witness::expect_witness_resolves(f);
  testing_witness::expect_witness_resolves(first.findings[0]);
}

// --- §IV-C comparison -----------------------------------------------------------

TEST(CorpusComparison, RipsAndWapAggregatesMatchPaper) {
  baselines::RipsScanner rips;
  baselines::WapScanner wap;
  int rips_det = 0, rips_fp = 0, wap_det = 0, wap_fp = 0;
  for (const CorpusEntry& entry : corpus()) {
    const bool r = rips.scan(entry.app).flagged;
    const bool w = wap.scan(entry.app).flagged;
    if (entry.ground_truth_vulnerable) {
      rips_det += r;
      wap_det += w;
    } else {
      rips_fp += r;
      wap_fp += w;
    }
  }
  EXPECT_EQ(rips_det, 15);  // paper: 15/16
  EXPECT_EQ(rips_fp, 27);   // paper: 27/28
  EXPECT_EQ(wap_det, 4);    // paper: 4/16
  EXPECT_EQ(wap_fp, 1);     // paper: 1/28
}

TEST(CorpusComparison, RipsMissesWooCommerceCustomProfilePicture) {
  baselines::RipsScanner rips;
  for (const CorpusEntry& entry : corpus()) {
    if (entry.app.name == "WooCommerce Custom Profile Picture 1.0") {
      EXPECT_FALSE(rips.scan(entry.app).flagged);
      return;
    }
  }
  FAIL() << "app not found";
}

// --- §VI extension: admin-gating removes exactly the two FPs --------------------

TEST(CorpusExtension, AdminGatingRemovesBothFalsePositives) {
  core::ScanOptions options;
  options.locality.model_admin_gating = true;
  Detector gated(options);
  int fp = 0, detected = 0;
  for (const CorpusEntry& entry : corpus()) {
    const bool flagged = gated.scan(entry.app).verdict == Verdict::kVulnerable;
    if (entry.ground_truth_vulnerable) {
      detected += flagged;
    } else {
      fp += flagged;
    }
  }
  EXPECT_EQ(fp, 0);
  EXPECT_EQ(detected, 16);
}

// --- PR9 extension: helper-chain suite (inter-procedural summaries) -----------

TEST(CorpusExtension, HelperSinkSuiteVerdictsMatchGroundTruth) {
  // These apps persist uploads through user-defined helpers (copy/rename
  // sinks reached inter-procedurally); they are deliberately outside the
  // pinned Table III corpus. Verdicts must match ground truth both with
  // and without summaries — the summary layer only changes pruning.
  for (const bool summaries : {true, false}) {
    core::ScanOptions options;
    options.summaries = summaries;
    Detector detector(options);
    for (const CorpusEntry& entry : helper_sink_suite()) {
      const ScanReport report = detector.scan(entry.app);
      EXPECT_EQ(report.verdict == Verdict::kVulnerable,
                entry.ground_truth_vulnerable)
          << entry.app.name << " (summaries " << (summaries ? "on" : "off")
          << "): verdict " << verdict_name(report.verdict);
    }
  }
}

TEST(CorpusExtension, HelperSuiteBenignPrunesOnlyViaSummaries) {
  const std::vector<CorpusEntry> suite = helper_sink_suite();
  const auto benign_it =
      std::find_if(suite.begin(), suite.end(), [](const CorpusEntry& e) {
        return !e.ground_truth_vulnerable;
      });
  ASSERT_NE(benign_it, suite.end());
  const ScanReport with = Detector().scan(benign_it->app);
  EXPECT_EQ(with.verdict, Verdict::kNotVulnerable);
  EXPECT_EQ(with.summary_pruned_roots, 1u) << "the benign helper app's root "
      "should be prunable only by summary instantiation";
  core::ScanOptions off;
  off.summaries = false;
  const ScanReport without = Detector(off).scan(benign_it->app);
  EXPECT_EQ(without.verdict, Verdict::kNotVulnerable);
  EXPECT_EQ(without.summary_pruned_roots, 0u);
  EXPECT_GT(without.paths, 0u) << "without summaries the root must fall "
      "through to symbolic execution";
}

TEST(CorpusExtension, HelperSuiteHitsTheSummaryCache) {
  // One Detector over the whole suite, as corpus_verdicts scans it: the
  // helper chains must reuse memoized summary instantiations.
  Detector detector;
  std::size_t hits = 0;
  for (const CorpusEntry& entry : helper_sink_suite()) {
    hits += detector.scan(entry.app).summary_cache_hits;
  }
  EXPECT_GT(hits, 0u);
}

TEST(CorpusExtension, HelperSuiteCrosscheckAgreesEverywhere) {
  core::ScanOptions options;
  options.crosscheck = true;
  Detector detector(options);
  for (const CorpusEntry& entry : helper_sink_suite()) {
    const ScanReport report = detector.scan(entry.app);
    EXPECT_NE(report.verdict, Verdict::kAnalysisDisagreement)
        << entry.app.name;
    EXPECT_TRUE(report.disagreements.empty()) << entry.app.name;
  }
}

}  // namespace
}  // namespace uchecker::corpus
