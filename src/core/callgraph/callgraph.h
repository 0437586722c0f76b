// Extended call graph of paper §III-A.
//
// Nodes represent PHP files, function and method declarations (one node
// per declaration, named by its Program::functions key), read accesses
// to the $_FILES superglobal, and invocations of the file-upload sinks
// move_uploaded_file() / file_put_contents(). Edges:
//   file -> file          (include / require, Program::include_target)
//   file -> function      (call in the file body, Program::callee)
//   function -> function  (call in the function body, Program::callee)
//   scope -> $_FILES      (read access)
//   scope -> sink         (sink invocation)
// plus WordPress-style callback edges: a string-literal argument of a
// hook-registration call (add_action, add_filter, register_*_hook, ...)
// naming a user-defined function creates a call edge from the registering
// scope to that function.
//
// Recursive edges are skipped so the graph stays acyclic (paper: "we will
// not build edges for recursive calls").
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/sinks.h"
#include "phpast/ast.h"
#include "support/source.h"

namespace uchecker::core {

// The program under analysis: all parsed files, a function registry, and
// the one rule for which code a call site or an include runs. Locality
// picks its roots from the call graph, and symbolic execution runs them;
// both are sound together only if they agree on that rule, so the call
// graph, locality's binding calls, the static pass and its summaries,
// the sink slice and the interpreter all ask callee() and
// include_target() instead of resolving names themselves.
struct Program {
  std::vector<const phpast::PhpFile*> files;

  struct FunctionInfo {
    // The declaration's own key (lowercase): a function's name, a
    // method's "class::method". Also the name of its call-graph node.
    std::string name;
    const phpast::FunctionDecl* decl = nullptr;
    FileId file;
  };
  // Keyed by lowercase name. Populated by build_program(): every
  // declaration under its own key, and every method also under its bare
  // method name, since WordPress hooks and `$obj->m()` calls name methods
  // by the bare name. The first registration of a key wins, in file and
  // declaration order; a later function or method of that name does not
  // replace it, and a later declaration that holds no key of its own is
  // not in the registry at all.
  std::map<std::string, FunctionInfo, std::less<>> functions;

  // The registry entry under `lower_name`, or null.
  [[nodiscard]] const FunctionInfo* function(std::string_view lower_name) const;

  // The user declaration a Call, MethodCall or StaticCall node inlines,
  // or null (a builtin or unknown name, a dynamic call, any other node).
  // A plain call to a registered sink is the sink, never a user
  // function. Otherwise a plain call resolves by its name, a method call
  // by its bare lowercased name, and a static call by "class::method",
  // then the bare name.
  [[nodiscard]] const FunctionInfo* callee(const phpast::Node& call,
                                           const SinkRegistry& sinks) const;

  // The file an include/require of `path`, run by code of file
  // `including`, executes, or null. The path's last string literal,
  // stripped of leading '/' and '.', names a file by whole path
  // components: 'x/a.php' matches the file x/a.php and any file whose
  // name ends in '/x/a.php', never b/xx/a.php. The first match in
  // file-name order that is not `including` wins, and an empty name
  // matches nothing. Load order plays no part.
  [[nodiscard]] const phpast::PhpFile* include_target(const phpast::Expr& path,
                                                      FileId including) const;
};

// Collects every file-level and method-level function into a registry.
[[nodiscard]] Program build_program(const std::vector<const phpast::PhpFile*>& files);

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

struct CallGraphNode {
  enum class Kind : std::uint8_t { kFile, kFunction, kFilesAccess, kSink };

  Kind kind = Kind::kFile;
  std::string name;  // file name, FunctionInfo::name, "$_FILES" or sink
  SourceLoc loc;
  std::vector<NodeId> children;  // outgoing edges, insertion order
  // Function nodes only: the plain call site locality binds the
  // parameters from -- the first one whose arguments mention $_FILES,
  // else the first one (null when no plain call reaches the node).
  const phpast::Call* binding_call = nullptr;
};

class CallGraph {
 public:
  [[nodiscard]] NodeId add_node(CallGraphNode::Kind kind, std::string name,
                                SourceLoc loc = {});
  // Adds a directed edge a -> b unless it already exists or would create
  // a cycle (covers both self-recursion and mutual recursion).
  // `admin_gated` marks callback registrations that WordPress exposes
  // only to administrators (add_action('admin_menu', ...)); see
  // admin_only_nodes().
  void add_edge(NodeId from, NodeId to, bool admin_gated = false);
  void set_binding_call(NodeId id, const phpast::Call* call) {
    nodes_[id].binding_call = call;
  }

  [[nodiscard]] const CallGraphNode& node(NodeId id) const { return nodes_[id]; }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const std::vector<CallGraphNode>& nodes() const { return nodes_; }

  [[nodiscard]] bool reaches(NodeId from, NodeId to) const;

  // Is the edge from -> to an admin-gated callback registration?
  [[nodiscard]] bool admin_gated(NodeId from, NodeId to) const {
    return admin_edges_.contains({from, to});
  }

  // All special nodes reachable from `from`, split by kind. With
  // `use_admin_edges == false`, admin-gated callback registrations are
  // not traversed (the §VI admin-gating extension).
  [[nodiscard]] bool reaches_kind(NodeId from, CallGraphNode::Kind kind,
                                  bool use_admin_edges = true) const;

  // Nodes reachable from file entry points *only* through admin-gated
  // edges. Paper §VI: the two false positives of Table III exist because
  // "UChecker ... does not currently model add_action() to consider
  // whether a script is running under admin's privilege"; this predicate
  // implements that modeling as an opt-in extension.
  [[nodiscard]] std::vector<bool> admin_only_nodes() const;

  // Graphviz rendering (paper Fig. 3).
  [[nodiscard]] std::string to_dot() const;

 private:
  [[nodiscard]] std::vector<bool> reachable_from_files(bool use_admin_edges) const;

  std::vector<CallGraphNode> nodes_;
  std::set<std::pair<NodeId, NodeId>> admin_edges_;
};

// Builds the extended call graph for a program. `sinks` selects the
// file-writing functions treated as upload sinks (paper defaults:
// move_uploaded_file + file_put_contents).
[[nodiscard]] CallGraph build_call_graph(
    const Program& program,
    const SinkRegistry& sinks = SinkRegistry::paper_defaults());

}  // namespace uchecker::core
