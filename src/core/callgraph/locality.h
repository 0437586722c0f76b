// Vulnerability-oriented locality analysis (paper §III-A, step 2).
//
// Given the extended call graph, finds the lowest common ancestor(s) of a
// $_FILES read access and a file-upload sink invocation. Only the body of
// such an ancestor — a PHP file or a function — is symbolically executed,
// which is the paper's main cost reduction (Table III "% of LoC Analyzed",
// 0.19%–52% of each application).
//
// The paper assumes each call graph is a tree with a unique LCA; real
// plugins can register several independent upload handlers, so this
// implementation returns every *minimal* ancestor (an ancestor none of
// whose descendants is itself an ancestor of both special nodes). The
// detector analyzes each root and ORs the verdicts.
#pragma once

#include <vector>

#include "core/callgraph/callgraph.h"
#include "support/source.h"

namespace uchecker::core {

struct AnalysisRoot {
  NodeId node = kNoNode;
  // Exactly one of `file` / `function` is non-null.
  const phpast::PhpFile* file = nullptr;
  const phpast::FunctionDecl* function = nullptr;
  // For function roots: the root node's CallGraphNode::binding_call, a
  // plain call site of the declaration, preferring one whose arguments
  // mention $_FILES. The interpreter evaluates these arguments to bind
  // the function's parameters, so upload taint flows into the root (this
  // is how the paper's WooCommerce example, whose LCA is the function
  // wc_cus_upload_picture($_FILES['profile_pic']), stays detectable).
  const phpast::Call* binding_call = nullptr;
  // Physical LoC of the root body (for the "% analyzed" metric).
  std::uint64_t body_loc = 0;
};

struct LocalityResult {
  std::vector<AnalysisRoot> roots;
  std::uint64_t total_loc = 0;     // whole application
  std::uint64_t analyzed_loc = 0;  // sum of root body LoC

  [[nodiscard]] double analyzed_percent() const {
    return total_loc == 0 ? 0.0
                          : 100.0 * static_cast<double>(analyzed_loc) /
                                static_cast<double>(total_loc);
  }
};

struct LocalityOptions {
  // Paper §VI extension: when true, analysis roots reachable only via
  // add_action('admin_menu', ...) registrations are skipped — an admin
  // may upload arbitrary files anyway, so such flows are not treated as
  // vulnerabilities. Off by default to match the published system (and
  // its two Table III false positives).
  bool model_admin_gating = false;
};

// The file and function nodes that reach both a $_FILES access and a
// sink, in node order: analyze_locality's roots are the minimal ones.
// With `model_admin_gating`, admin-only nodes are not candidates and
// admin-gated edges do not count toward reaching either. One post-order
// pass over the (acyclic) graph settles both bits for every node.
[[nodiscard]] std::vector<NodeId> upload_candidates(
    const CallGraph& graph, const LocalityOptions& options = {});

[[nodiscard]] LocalityResult analyze_locality(const Program& program,
                                              const CallGraph& graph,
                                              const SourceManager& sources,
                                              const LocalityOptions& options = {});

}  // namespace uchecker::core
