// Helper-chain upload apps exercising the copy()/rename()-after-upload
// sink family THROUGH a user-defined helper function, so detection (and
// safe-pruning) depends on the inter-procedural summary layer rather
// than on a lexical sink in the analysis root. Kept out of full_corpus()
// — Table III's counts are pinned by tests — and exposed as a separate
// suite, checked by the corpus_verdicts golden rows (--suite all,
// crosscheck included) and by corpus_test's helper-suite cases.
#include "corpus/corpus.h"
#include "corpus/corpus_util.h"

namespace uchecker::corpus {
namespace {

using core::AppFile;
using core::Application;
using detail::pad_to_loc;

Application wrap_plugin(const std::string& name, const std::string& slug,
                        const std::string& hook, std::string handler_php,
                        std::size_t target_loc, unsigned seed) {
  Application app;
  app.name = name;
  app.files.push_back(AppFile{
      slug + ".php",
      "<?php\n/*\nPlugin Name: " + name + "\n*/\n" +
          "add_action('wp_ajax_" + hook + "', '" + hook + "');\n" +
          "add_action('wp_ajax_nopriv_" + hook + "', '" + hook + "');\n"});
  app.files.push_back(AppFile{slug + "-handler.php", std::move(handler_php)});
  pad_to_loc(app, target_loc, seed, slug);
  return app;
}

// Vulnerable: the handler stages the upload and persists it with a
// copy() inside a helper, keeping the client-controlled filename. The
// analysis root has no lexical sink; the taint reaches copy() only
// through the hcu_persist() chain (UC107).
CorpusEntry helper_copy_uploader() {
  CorpusEntry entry;
  entry.app = wrap_plugin(
      "Helper Copy Uploader 1.0", "helper-copy-uploader", "hcu_upload",
      R"php(<?php
function hcu_upload() {
    $updir = wp_upload_dir();
    $dir = $updir['basedir'] . '/hcu/';
    $file = $_FILES['hcu_file'];
    if (!isset($file['tmp_name'])) {
        wp_die();
    }
    $dest = $dir . $file['name'];
    hcu_persist($file['tmp_name'], $dest);
    wp_die();
}

function hcu_persist($tmp, $dest) {
    if (!copy($tmp, $dest)) {
        error_log('helper-copy-uploader: persist failed');
        return false;
    }
    return true;
}
)php",
      420, 911);
  entry.category = Category::kKnownVulnerable;
  entry.ground_truth_vulnerable = true;
  entry.paper_flagged_by_uchecker = true;
  return entry;
}

// Benign: same shape, but the helper whitelists the extension and
// renames to a server-generated name before persisting with rename().
// The summary layer proves the helper safe at the call site, so the
// root prunes without symbolic execution (summary_pruned).
CorpusEntry helper_rename_uploader() {
  CorpusEntry entry;
  entry.app = wrap_plugin(
      "Helper Rename Uploader 1.0", "helper-rename-uploader", "hru_upload",
      R"php(<?php
function hru_upload() {
    $updir = wp_upload_dir();
    $dir = $updir['basedir'] . '/hru/';
    $file = $_FILES['hru_file'];
    hru_store($file['tmp_name'], $file['name'], $dir);
    wp_die();
}

function hru_store($tmp, $name, $dir) {
    $ext = strtolower(pathinfo($name, PATHINFO_EXTENSION));
    $allowed = array('jpg', 'jpeg', 'png', 'gif');
    if (!in_array($ext, $allowed)) {
        return false;
    }
    $dest = $dir . 'img-' . md5($name) . '.' . $ext;
    if (!rename($tmp, $dest)) {
        return false;
    }
    return true;
}
)php",
      430, 912);
  entry.category = Category::kBenign;
  entry.ground_truth_vulnerable = false;
  entry.paper_flagged_by_uchecker = false;
  return entry;
}

// Vulnerable, two hops deep: the root calls a wrapper that calls the
// helper containing the rename() sink — the UC107 chain has length 3.
CorpusEntry helper_chain_mover() {
  CorpusEntry entry;
  entry.app = wrap_plugin(
      "Helper Chain Mover 1.0", "helper-chain-mover", "hcm_upload",
      R"php(<?php
function hcm_upload() {
    $updir = wp_upload_dir();
    $dir = $updir['basedir'] . '/hcm/';
    $file = $_FILES['hcm_file'];
    hcm_accept($file, $dir);
    wp_die();
}

function hcm_accept($file, $dir) {
    $target = $dir . $file['name'];
    return hcm_move($file['tmp_name'], $target);
}

function hcm_move($tmp, $target) {
    if (!rename($tmp, $target)) {
        return false;
    }
    return true;
}
)php",
      410, 913);
  entry.category = Category::kKnownVulnerable;
  entry.ground_truth_vulnerable = true;
  entry.paper_flagged_by_uchecker = true;
  return entry;
}

}  // namespace

std::vector<CorpusEntry> helper_sink_suite() {
  std::vector<CorpusEntry> entries;
  entries.push_back(helper_copy_uploader());
  entries.push_back(helper_rename_uploader());
  entries.push_back(helper_chain_mover());
  return entries;
}

}  // namespace uchecker::corpus
