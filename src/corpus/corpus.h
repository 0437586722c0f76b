// Reconstructed evaluation corpus (paper §IV, Table III).
//
// The paper evaluated 13 publicly-reported vulnerable applications, 28
// manually-audited vulnerability-free WordPress plugins, and 3 previously
// unreported vulnerable plugins it discovered. Source for those apps is
// not redistributable, so each entry here is reconstructed from the
// paper's own descriptions and listings:
//   - the three new-vuln plugins use the verbatim code of Listings 6-8;
//   - the known-vuln apps implement the described upload flaw with a
//     branch structure sized to the paper's path counts;
//   - the two false-positive apps gate their upload behind
//     add_action('admin_menu', ...) exactly as §IV-A explains;
//   - benign apps implement the validation idioms real plugins use
//     (extension whitelists, fixed renames, wp_handle_upload, ...).
// Deterministic filler code pads each app to the paper's LoC so the
// "% of LoC analyzed" locality metric is comparable.
#pragma once

#include <string>
#include <vector>

#include "core/detector/detector.h"

namespace uchecker::corpus {

enum class Category { kKnownVulnerable, kBenign, kNewVulnerable };

// Values published in Table III, kept for paper-vs-measured comparison.
struct PaperRow {
  int loc = 0;
  double pct_analyzed = 0.0;
  long paths = 0;
  long objects = 0;
  double memory_mb = 0.0;
  double seconds = 0.0;
  bool detected = false;
};

struct CorpusEntry {
  core::Application app;
  Category category = Category::kBenign;
  bool ground_truth_vulnerable = false;
  // Expected UChecker verdict per Table III (true also for the two
  // admin-gated benign plugins UChecker flags — the paper's FPs).
  bool paper_flagged_by_uchecker = false;
  PaperRow paper;
};

// The 13 publicly-reported vulnerable applications (Table III top).
[[nodiscard]] std::vector<CorpusEntry> known_vulnerable();

// The 28 vulnerability-free plugins, including Event Registration Pro
// Calendar and Tumult Hype Animations (the two expected false positives).
[[nodiscard]] std::vector<CorpusEntry> benign();

// The 3 newly discovered vulnerable plugins (Listings 6-8).
[[nodiscard]] std::vector<CorpusEntry> new_vulnerable();

// All 44 applications in Table III order.
[[nodiscard]] std::vector<CorpusEntry> full_corpus();

// Helper-chain apps for the inter-procedural summary layer (PR9): the
// upload taint reaches a copy()/rename() sink only through user-defined
// helper functions, so there is no lexical sink in the analysis root.
// Deliberately NOT part of full_corpus() — Table III's counts are pinned
// by tests; corpus_test and the corpus_verdicts golden rows (--suite
// all) cover this suite separately.
[[nodiscard]] std::vector<CorpusEntry> helper_sink_suite();

// Deterministic filler: syntactically valid, upload-free PHP functions
// padding an app to ~`target_loc` physical lines of code. Same (seed,
// prefix, target) always yields identical text.
[[nodiscard]] std::string filler_php(std::size_t target_loc, unsigned seed,
                                     const std::string& prefix);

// Same, without the "<?php" prologue — for embedding helper functions
// into an existing handler file (they count toward the analyzed-LoC of a
// file-level analysis root but cost the symbolic executor nothing).
[[nodiscard]] std::string filler_php_body(std::size_t target_loc,
                                          unsigned seed,
                                          const std::string& prefix);

// Deterministic straight-line PHP statements (assignments into local
// arrays; no branching, no calls) for fattening a handler's body without
// changing its path count. `indent` is prepended to each line.
[[nodiscard]] std::string filler_statements(std::size_t count, unsigned seed,
                                            const std::string& indent);

// -------------------------------------------------------------------------
// Synthetic workload generator (benches E3/E4).

struct SynthSpec {
  std::string name = "synth";
  int sequential_ifs = 4;        // each doubles the path count
  int switch_ways = 0;           // 0 = no switch; else multiplies paths
  bool vulnerable = true;        // omit the extension check when true
  std::size_t filler_loc = 500;  // padding outside the handler
  int filler_files = 1;
  // When set, every if and switch arm writes a variable the destination
  // is built from (the sink's own `if` too), so no join can merge two
  // paths; otherwise the arms write only a trace the sink never reads.
  bool arms_reach_sink = false;
};

// Builds one synthetic upload plugin according to the spec. The handler's
// structural path count is 2^(sequential_ifs + 1) * max(1, switch_ways):
// the sink's own `if` doubles it.
[[nodiscard]] core::Application synth_app(const SynthSpec& spec);

}  // namespace uchecker::corpus
