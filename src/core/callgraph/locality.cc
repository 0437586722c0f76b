#include "core/callgraph/locality.h"

#include <algorithm>

#include "phpast/visitor.h"
#include "support/fault_injector.h"

namespace uchecker::core {
namespace {

std::uint64_t function_body_loc(const phpast::FunctionDecl& fn,
                                FileId file_id, const SourceManager& sources) {
  const SourceFile* file = sources.file(file_id);
  if (file == nullptr) return 0;
  const std::uint32_t first = fn.loc().line;
  if (first == 0) return 0;
  std::uint32_t last = first;
  for (const auto& stmt : fn.body) {
    last = std::max(last, phpast::max_line(*stmt));
  }
  last = std::min(last, file->line_count());
  std::uint64_t count = 0;
  for (std::uint32_t i = first; i <= last; ++i) {
    if (is_code_line(file->line(i))) ++count;
  }
  return count;
}

// What a node reaches, as a bit set.
constexpr std::uint8_t kReachesFiles = 1;
constexpr std::uint8_t kReachesSink = 2;

std::uint8_t own_reach(const CallGraphNode& node) {
  switch (node.kind) {
    case CallGraphNode::Kind::kFilesAccess: return kReachesFiles;
    case CallGraphNode::Kind::kSink: return kReachesSink;
    default: return 0;
  }
}

// Each node's reach bits, settled in one iterative post-order pass: a
// node's bits are its own kind's or'ed with its children's. The graph is
// acyclic (CallGraph::add_edge drops cycle-closing edges), so every
// child is settled before its parent. With `skip_admin_edges`,
// admin-gated edges are not followed, as in reaches_kind(..., false).
std::vector<std::uint8_t> reach_bits(const CallGraph& graph,
                                     bool skip_admin_edges) {
  const std::size_t n = graph.node_count();
  const auto follows = [&](NodeId from, NodeId to) {
    return !skip_admin_edges || !graph.admin_gated(from, to);
  };
  std::vector<std::uint8_t> bits(n, 0);
  std::vector<bool> seen(n, false);
  // (node, index of its next child to visit)
  std::vector<std::pair<NodeId, std::size_t>> stack;
  for (NodeId start = 0; start < n; ++start) {
    if (seen[start]) continue;
    seen[start] = true;
    stack.emplace_back(start, 0);
    while (!stack.empty()) {
      const NodeId id = stack.back().first;
      const std::vector<NodeId>& children = graph.node(id).children;
      std::size_t& next = stack.back().second;
      if (next < children.size()) {
        const NodeId child = children[next++];
        if (!seen[child] && follows(id, child)) {
          seen[child] = true;
          stack.emplace_back(child, 0);
        }
        continue;
      }
      std::uint8_t b = own_reach(graph.node(id));
      for (NodeId child : children) {
        if (follows(id, child)) b |= bits[child];
      }
      bits[id] = b;
      stack.pop_back();
    }
  }
  return bits;
}

}  // namespace

std::vector<NodeId> upload_candidates(const CallGraph& graph,
                                      const LocalityOptions& options) {
  const std::vector<std::uint8_t> bits =
      reach_bits(graph, options.model_admin_gating);
  const std::vector<bool> admin_only =
      options.model_admin_gating ? graph.admin_only_nodes()
                                 : std::vector<bool>(graph.node_count(), false);
  std::vector<NodeId> candidates;
  for (NodeId id = 0; id < graph.node_count(); ++id) {
    const CallGraphNode::Kind kind = graph.node(id).kind;
    if (kind != CallGraphNode::Kind::kFile &&
        kind != CallGraphNode::Kind::kFunction) {
      continue;
    }
    if (admin_only[id]) continue;  // §VI extension, see LocalityOptions
    // With admin gating modeled, admin-gated callback edges do not count
    // toward upload reachability either (a file whose only path to the
    // sink runs through the admin menu is not an attack surface).
    if (bits[id] == (kReachesFiles | kReachesSink)) candidates.push_back(id);
  }
  return candidates;
}

LocalityResult analyze_locality(const Program& program, const CallGraph& graph,
                                const SourceManager& sources,
                                const LocalityOptions& options) {
  FaultInjector::checkpoint("locality");
  LocalityResult result;
  result.total_loc = sources.total_loc();
  const std::vector<NodeId> candidates = upload_candidates(graph, options);

  // Minimal candidates: no *other* candidate is reachable from them.
  // (In the paper's tree setting this is exactly the unique LCA.)
  std::vector<NodeId> minimal;
  for (NodeId c : candidates) {
    bool has_lower = false;
    for (NodeId other : candidates) {
      if (other != c && graph.reaches(c, other)) {
        has_lower = true;
        break;
      }
    }
    if (!has_lower) minimal.push_back(c);
  }

  for (NodeId id : minimal) {
    const CallGraphNode& node = graph.node(id);
    AnalysisRoot root;
    root.node = id;
    if (node.kind == CallGraphNode::Kind::kFile) {
      const auto it =
          std::find_if(program.files.begin(), program.files.end(),
                       [&](const phpast::PhpFile* f) { return f->name == node.name; });
      if (it == program.files.end()) continue;
      root.file = *it;
      const SourceFile* sf = sources.file_by_name(node.name);
      root.body_loc = sf != nullptr ? sf->loc_count() : 0;
    } else {
      const Program::FunctionInfo* fn = program.function(node.name);
      if (fn == nullptr) continue;
      root.function = fn->decl;
      root.binding_call = node.binding_call;
      root.body_loc = function_body_loc(*fn->decl, fn->file, sources);
    }
    result.analyzed_loc += root.body_loc;
    result.roots.push_back(root);
  }
  return result;
}

}  // namespace uchecker::core
