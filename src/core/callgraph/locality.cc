#include "core/callgraph/locality.h"

#include <algorithm>

#include "phpast/visitor.h"
#include "support/fault_injector.h"
#include "support/strutil.h"

namespace uchecker::core {
namespace {

// Physical LoC between two 1-based lines of a file (inclusive), skipping
// blank and pure-comment lines; mirrors SourceFile::loc_count().
std::uint64_t loc_between(const SourceFile& file, std::uint32_t first,
                          std::uint32_t last) {
  std::uint64_t count = 0;
  for (std::uint32_t i = first; i <= last && i <= file.line_count(); ++i) {
    const std::string_view text = strutil::trim(file.line(i));
    if (text.empty()) continue;
    if (text.starts_with("//") || text.starts_with("#") ||
        text.starts_with("*") || text.starts_with("/*")) {
      continue;
    }
    ++count;
  }
  return count;
}

std::uint64_t function_body_loc(const phpast::FunctionDecl& fn,
                                FileId file_id, const SourceManager& sources) {
  const SourceFile* file = sources.file(file_id);
  if (file == nullptr) return 0;
  std::uint32_t first = fn.loc().line;
  std::uint32_t last = first;
  for (const auto& stmt : fn.body) {
    last = std::max(last, phpast::max_line(*stmt));
  }
  if (first == 0) return 0;
  return loc_between(*file, first, last);
}

}  // namespace

LocalityResult analyze_locality(const Program& program, const CallGraph& graph,
                                const SourceManager& sources,
                                const LocalityOptions& options) {
  FaultInjector::checkpoint("locality");
  LocalityResult result;
  result.total_loc = sources.total_loc();
  const std::vector<bool> admin_only =
      options.model_admin_gating ? graph.admin_only_nodes()
                                 : std::vector<bool>(graph.node_count(), false);

  // Candidates: file/function nodes that reach both a $_FILES access and
  // a sink invocation.
  std::vector<NodeId> candidates;
  for (NodeId id = 0; id < graph.node_count(); ++id) {
    const CallGraphNode& node = graph.node(id);
    if (node.kind != CallGraphNode::Kind::kFile &&
        node.kind != CallGraphNode::Kind::kFunction) {
      continue;
    }
    if (admin_only[id]) continue;  // §VI extension, see LocalityOptions
    // With admin gating modeled, admin-gated callback edges do not count
    // toward upload reachability either (a file whose only path to the
    // sink runs through the admin menu is not an attack surface).
    const bool use_admin = !options.model_admin_gating;
    if (graph.reaches_kind(id, CallGraphNode::Kind::kFilesAccess, use_admin) &&
        graph.reaches_kind(id, CallGraphNode::Kind::kSink, use_admin)) {
      candidates.push_back(id);
    }
  }

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
