#include "core/callgraph/callgraph.h"

#include <algorithm>

#include "phpast/visitor.h"
#include "support/strutil.h"

namespace uchecker::core {

using phpast::Node;
using phpast::NodeKind;

namespace {

// Does any node of this subtree read the $_FILES superglobal? Used for
// the paper's "or its parameter input if a is a function" edge rule: a
// call f($_FILES[...]) gives the *callee* f an edge to $_FILES.
bool mentions_files(const Node& node) {
  bool found = false;
  phpast::walk(node, [&found](const Node& n) {
    if (n.kind() == NodeKind::kVariable &&
        static_cast<const phpast::Variable&>(n).name == "_FILES") {
      found = true;
    }
    return !found;
  });
  return found;
}

}  // namespace

Program build_program(const std::vector<const phpast::PhpFile*>& files) {
  Program program;
  program.files = files;
  for (const phpast::PhpFile* file : files) {
    for (const auto& stmt : file->statements) {
      phpast::walk(*stmt, [&](const Node& node) {
        if (node.kind() == NodeKind::kFunctionDecl) {
          const auto& fn = static_cast<const phpast::FunctionDecl&>(node);
          const std::string key = strutil::to_lower(fn.name);
          program.functions.emplace(
              key, Program::FunctionInfo{key, &fn, file->file});
          return true;  // keep walking: nested declarations are legal PHP
        }
        if (node.kind() == NodeKind::kClassDecl) {
          const auto& cls = static_cast<const phpast::ClassDecl&>(node);
          for (const auto& method : cls.methods) {
            const std::string qualified =
                strutil::to_lower(cls.name) + "::" + strutil::to_lower(method->name);
            program.functions.emplace(
                qualified,
                Program::FunctionInfo{qualified, method, file->file});
            // Also register by bare method name, since WordPress hooks
            // often receive bare method names. The bare name is not
            // checked for ambiguity: emplace keeps the first
            // registration of each name in file and declaration order,
            // and a later method or function of that name does not
            // replace it.
            const std::string bare = strutil::to_lower(method->name);
            program.functions.emplace(
                bare, Program::FunctionInfo{bare, method, file->file});
          }
          return false;  // methods handled above
        }
        return true;
      });
    }
  }
  return program;
}

NodeId CallGraph::add_node(CallGraphNode::Kind kind, std::string name,
                           SourceLoc loc) {
  CallGraphNode node;
  node.kind = kind;
  node.name = std::move(name);
  node.loc = loc;
  nodes_.push_back(std::move(node));
  return static_cast<NodeId>(nodes_.size() - 1);
}

void CallGraph::add_edge(NodeId from, NodeId to, bool admin_gated) {
  if (from == to) return;  // self-recursion
  auto& children = nodes_[from].children;
  if (std::find(children.begin(), children.end(), to) != children.end()) {
    // An existing non-gated edge subsumes a gated one; an existing gated
    // edge is widened by a non-gated registration.
    if (!admin_gated) admin_edges_.erase({from, to});
    return;
  }
  if (reaches(to, from)) return;  // mutual recursion would form a cycle
  children.push_back(to);
  if (admin_gated) admin_edges_.insert({from, to});
}

bool CallGraph::reaches(NodeId from, NodeId to) const {
  if (from == to) return true;
  std::vector<NodeId> stack{from};
  std::vector<bool> visited(nodes_.size(), false);
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (id >= nodes_.size() || visited[id]) continue;
    visited[id] = true;
    if (id == to) return true;
    for (NodeId child : nodes_[id].children) stack.push_back(child);
  }
  return false;
}

bool CallGraph::reaches_kind(NodeId from, CallGraphNode::Kind kind,
                             bool use_admin_edges) const {
  std::vector<NodeId> stack{from};
  std::vector<bool> visited(nodes_.size(), false);
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (id >= nodes_.size() || visited[id]) continue;
    visited[id] = true;
    if (nodes_[id].kind == kind) return true;
    for (NodeId child : nodes_[id].children) {
      if (!use_admin_edges && admin_edges_.contains({id, child})) continue;
      stack.push_back(child);
    }
  }
  return false;
}

std::vector<bool> CallGraph::reachable_from_files(bool use_admin_edges) const {
  std::vector<bool> visited(nodes_.size(), false);
  std::vector<NodeId> stack;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].kind == CallGraphNode::Kind::kFile) {
      stack.push_back(id);
      visited[id] = true;
    }
  }
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    for (NodeId child : nodes_[id].children) {
      if (visited[child]) continue;
      if (!use_admin_edges && admin_edges_.contains({id, child})) continue;
      visited[child] = true;
      stack.push_back(child);
    }
  }
  return visited;
}

std::vector<bool> CallGraph::admin_only_nodes() const {
  const std::vector<bool> all = reachable_from_files(/*use_admin_edges=*/true);
  const std::vector<bool> pub = reachable_from_files(/*use_admin_edges=*/false);
  std::vector<bool> admin_only(nodes_.size(), false);
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    admin_only[id] = all[id] && !pub[id];
  }
  return admin_only;
}

std::string CallGraph::to_dot() const {
  std::string out = "digraph callgraph {\n  node [shape=box];\n";
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const CallGraphNode& n = nodes_[i];
    std::string shape;
    switch (n.kind) {
      case CallGraphNode::Kind::kFile: shape = "folder"; break;
      case CallGraphNode::Kind::kFunction: shape = "box"; break;
      case CallGraphNode::Kind::kFilesAccess: shape = "ellipse"; break;
      case CallGraphNode::Kind::kSink: shape = "octagon"; break;
    }
    out += "  n" + std::to_string(i) + " [shape=" + shape + ", label=" +
           strutil::quote(n.name) + "];\n";
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (NodeId child : nodes_[i].children) {
      out += "  n" + std::to_string(i) + " -> n" + std::to_string(child) + ";\n";
    }
  }
  out += "}\n";
  return out;
}

namespace {

// Builder state shared across all files of one program.
class GraphBuilder {
 public:
  GraphBuilder(const Program& program, const SinkRegistry& sinks)
      : program_(program), sinks_(sinks) {
    for (const phpast::PhpFile* file : program.files) {
      file_nodes_[file->name] =
          graph_.add_node(CallGraphNode::Kind::kFile, file->name);
    }
    for (const auto& [name, info] : program.functions) {
      if (function_nodes_.contains(name)) continue;
      function_nodes_[name] = graph_.add_node(CallGraphNode::Kind::kFunction,
                                              name, info.decl->loc());
    }
  }

  CallGraph build() {
    for (const phpast::PhpFile* file : program_.files) {
      const NodeId file_node = file_nodes_.at(file->name);
      for (const auto& stmt : file->statements) {
        scan_scope_stmt(*stmt, file_node, file);
      }
    }
    return std::move(graph_);
  }

 private:
  NodeId files_access_node() {
    if (files_node_ == kNoNode) {
      files_node_ = graph_.add_node(CallGraphNode::Kind::kFilesAccess, "$_FILES");
    }
    return files_node_;
  }

  NodeId sink_node(std::string_view name) {
    auto it = sink_nodes_.find(name);
    if (it != sink_nodes_.end()) return it->second;
    const NodeId id =
        graph_.add_node(CallGraphNode::Kind::kSink, std::string(name) + "()");
    sink_nodes_.emplace(std::string(name), id);
    return id;
  }

  // Scans a statement that is part of scope `scope`. Function/method
  // declarations open their own scope; everything else is walked.
  void scan_scope_stmt(const Node& node, NodeId scope,
                       const phpast::PhpFile* file) {
    if (node.kind() == NodeKind::kFunctionDecl) {
      const auto& fn = static_cast<const phpast::FunctionDecl&>(node);
      const auto it = function_nodes_.find(strutil::to_lower(fn.name));
      if (it != function_nodes_.end()) {
        for (const auto& s : fn.body) scan_scope_stmt(*s, it->second, file);
      }
      return;
    }
    if (node.kind() == NodeKind::kClassDecl) {
      const auto& cls = static_cast<const phpast::ClassDecl&>(node);
      for (const auto& method : cls.methods) {
        const auto it = function_nodes_.find(strutil::to_lower(method->name));
        if (it != function_nodes_.end()) {
          for (const auto& s : method->body) {
            scan_scope_stmt(*s, it->second, file);
          }
        }
      }
      return;
    }
    // Expressions and other statements: record accesses/calls, then
    // recurse without changing scope.
    record_node(node, scope, file);
    phpast::for_each_child(node, [&](const Node& child) {
      scan_scope_stmt(child, scope, file);
    });
  }

  void record_node(const Node& node, NodeId scope,
                   const phpast::PhpFile* file) {
    switch (node.kind()) {
      case NodeKind::kVariable: {
        const auto& var = static_cast<const phpast::Variable&>(node);
        if (var.name == "_FILES") {
          graph_.add_edge(scope, files_access_node());
        }
        break;
      }
      case NodeKind::kCall: {
        const auto& call = static_cast<const phpast::Call&>(node);
        if (call.is_dynamic()) break;
        if (sinks_.is_sink(call.callee)) {
          graph_.add_edge(scope, sink_node(call.callee));
          break;
        }
        const auto it = function_nodes_.find(call.callee);
        if (it != function_nodes_.end()) {
          graph_.add_edge(scope, it->second);
          // Parameter-input access to $_FILES (paper §III-A edge rule):
          // the callee is treated as accessing $_FILES.
          for (const auto& arg : call.args) {
            if (mentions_files(*arg)) {
              graph_.add_edge(it->second, files_access_node());
              break;
            }
          }
        }
        // Callback edges: string-literal arguments naming user functions
        // (WordPress hook registration and PHP callable arguments).
        // add_action('admin_menu', cb) registrations are flagged as
        // admin-gated: the callback only runs for administrators.
        const bool admin_hook =
            call.callee == "add_action" && !call.args.empty() &&
            call.args[0]->kind() == NodeKind::kStringLit &&
            static_cast<const phpast::StringLit&>(*call.args[0]).value ==
                "admin_menu";
        for (const auto& arg : call.args) {
          record_callback_arg(*arg, scope, admin_hook);
        }
        break;
      }
      case NodeKind::kMethodCall: {
        const auto& call = static_cast<const phpast::MethodCall&>(node);
        const auto it = function_nodes_.find(strutil::to_lower(call.method));
        if (it != function_nodes_.end()) graph_.add_edge(scope, it->second);
        for (const auto& arg : call.args) {
          record_callback_arg(*arg, scope, /*admin_gated=*/false);
        }
        break;
      }
      case NodeKind::kStaticCall: {
        const auto& call = static_cast<const phpast::StaticCall&>(node);
        const std::string qualified = strutil::to_lower(call.class_name) +
                                      "::" + strutil::to_lower(call.method);
        auto it = function_nodes_.find(qualified);
        if (it == function_nodes_.end()) {
          it = function_nodes_.find(strutil::to_lower(call.method));
        }
        if (it != function_nodes_.end()) graph_.add_edge(scope, it->second);
        break;
      }
      case NodeKind::kIncludeExpr: {
        const auto& inc = static_cast<const phpast::IncludeExpr&>(node);
        resolve_include(*inc.path, scope, file);
        break;
      }
      default:
        break;
    }
  }

  // Recognizes PHP callable arguments and adds a call edge from the
  // registering scope to the named function:
  //   'func_name'                       — plain function callback
  //   array($this, 'method'),           — method callbacks; resolved by
  //   array('Class', 'method'), [...]     bare method name
  void record_callback_arg(const phpast::Expr& arg, NodeId scope,
                           bool admin_gated) {
    if (arg.kind() == NodeKind::kStringLit) {
      const auto& lit = static_cast<const phpast::StringLit&>(arg);
      const auto cb = function_nodes_.find(strutil::to_lower(lit.value));
      if (cb != function_nodes_.end()) {
        graph_.add_edge(scope, cb->second, admin_gated);
      }
      return;
    }
    if (arg.kind() == NodeKind::kArrayLit) {
      const auto& lit = static_cast<const phpast::ArrayLit&>(arg);
      if (lit.items.size() != 2) return;
      const phpast::Expr* member = lit.items[1].value;
      if (member == nullptr || member->kind() != NodeKind::kStringLit) return;
      const std::string method = strutil::to_lower(
          static_cast<const phpast::StringLit&>(*member).value);
      // Prefer Class::method when the receiver names a class.
      if (lit.items[0].value != nullptr &&
          lit.items[0].value->kind() == NodeKind::kStringLit) {
        const std::string qualified =
            strutil::to_lower(static_cast<const phpast::StringLit&>(
                                  *lit.items[0].value)
                                  .value) +
            "::" + method;
        if (const auto it = function_nodes_.find(qualified);
            it != function_nodes_.end()) {
          graph_.add_edge(scope, it->second, admin_gated);
          return;
        }
      }
      if (const auto it = function_nodes_.find(method);
          it != function_nodes_.end()) {
        graph_.add_edge(scope, it->second, admin_gated);
      }
    }
  }

  void resolve_include(const phpast::Expr& path, NodeId scope,
                       const phpast::PhpFile* including) {
    // Collect trailing string literals in the path expression and match
    // them against registered file names by suffix.
    std::string suffix;
    phpast::walk(path, [&suffix](const Node& n) {
      if (n.kind() == NodeKind::kStringLit) {
        suffix = static_cast<const phpast::StringLit&>(n).value;
      }
      return true;
    });
    if (suffix.empty()) return;
    while (!suffix.empty() && (suffix.front() == '/' || suffix.front() == '.')) {
      suffix.erase(suffix.begin());
    }
    for (const auto& [name, node_id] : file_nodes_) {
      if (name != including->name && name.size() >= suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
        graph_.add_edge(scope, node_id);
        return;
      }
    }
  }

  const Program& program_;
  const SinkRegistry& sinks_;
  CallGraph graph_;
  std::map<std::string, NodeId, std::less<>> file_nodes_;
  std::map<std::string, NodeId, std::less<>> function_nodes_;
  std::map<std::string, NodeId, std::less<>> sink_nodes_;
  NodeId files_node_ = kNoNode;
};

}  // namespace

CallGraph build_call_graph(const Program& program, const SinkRegistry& sinks) {
  return GraphBuilder(program, sinks).build();
}

}  // namespace uchecker::core
