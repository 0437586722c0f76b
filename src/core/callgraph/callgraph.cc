#include "core/callgraph/callgraph.h"

#include <algorithm>
#include <array>
#include <unordered_map>

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

bool passes_files(const phpast::Call& call) {
  return std::any_of(call.args.begin(), call.args.end(),
                     [](const phpast::Expr* a) { return mentions_files(*a); });
}

// "class::method", then the bare method name (both lowercase).
const Program::FunctionInfo* find_method(const Program& program,
                                         std::string_view class_name,
                                         std::string_view method) {
  const Program::FunctionInfo* fn =
      program.function(strutil::cat(class_name, "::", method));
  return fn != nullptr ? fn : program.function(method);
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
          std::string key = strutil::to_lower(fn.name);
          const auto [it, inserted] = program.functions.try_emplace(key);
          if (inserted) {
            it->second = Program::FunctionInfo{std::move(key), &fn, file->file};
          }
          return true;  // keep walking: nested declarations are legal PHP
        }
        if (node.kind() == NodeKind::kClassDecl) {
          const auto& cls = static_cast<const phpast::ClassDecl&>(node);
          for (const phpast::FunctionDecl* method : cls.methods) {
            const Program::FunctionInfo info{
                strutil::to_lower(cls.name) + "::" +
                    strutil::to_lower(method->name),
                method, file->file};
            // The bare name is not checked for ambiguity: like every
            // key, it stays with its first registration. A method whose
            // own key an earlier class took gets neither key.
            if (program.functions.emplace(info.name, info).second) {
              program.functions.emplace(strutil::to_lower(method->name), info);
            }
          }
          return false;  // methods handled above
        }
        return true;
      });
    }
  }
  return program;
}

const Program::FunctionInfo* Program::function(
    std::string_view lower_name) const {
  const auto it = functions.find(lower_name);
  return it != functions.end() ? &it->second : nullptr;
}

const Program::FunctionInfo* Program::callee(const Node& call,
                                             const SinkRegistry& sinks) const {
  switch (call.kind()) {
    case NodeKind::kCall: {
      const auto& c = static_cast<const phpast::Call&>(call);
      if (c.is_dynamic() || sinks.is_sink(c.callee)) return nullptr;
      return function(c.callee);
    }
    case NodeKind::kMethodCall:
      return function(strutil::to_lower(
          static_cast<const phpast::MethodCall&>(call).method));
    case NodeKind::kStaticCall: {
      const auto& c = static_cast<const phpast::StaticCall&>(call);
      return find_method(*this, strutil::to_lower(c.class_name),
                         strutil::to_lower(c.method));
    }
    default:
      return nullptr;
  }
}

const phpast::PhpFile* Program::include_target(const phpast::Expr& path,
                                               FileId including) const {
  std::string_view suffix;
  phpast::walk(path, [&suffix](const Node& n) {
    if (n.kind() == NodeKind::kStringLit) {
      suffix = static_cast<const phpast::StringLit&>(n).value;
    }
    return true;
  });
  while (!suffix.empty() && (suffix.front() == '/' || suffix.front() == '.')) {
    suffix.remove_prefix(1);
  }
  if (suffix.empty()) return nullptr;
  // Whole path components: 'helper.php' is lib/helper.php, never
  // myhelper.php.
  const auto matches = [suffix](std::string_view name) {
    return name.ends_with(suffix) &&
           (name.size() == suffix.size() ||
            name[name.size() - suffix.size() - 1] == '/');
  };
  const phpast::PhpFile* target = nullptr;
  for (const phpast::PhpFile* file : files) {
    if (file->file != including && matches(file->name) &&
        (target == nullptr || file->name < target->name)) {
      target = file;
    }
  }
  return target;
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
      if (!use_admin_edges && admin_gated(id, child)) continue;
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
      if (!use_admin_edges && admin_gated(id, child)) continue;
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
    file_nodes_.reserve(program.files.size());
    for (const phpast::PhpFile* file : program.files) {
      file_nodes_.emplace(
          file, graph_.add_node(CallGraphNode::Kind::kFile, file->name));
    }
    function_nodes_.reserve(program.functions.size());
    for (const auto& [name, info] : program.functions) {
      if (name != info.name) continue;  // a method's bare-name entry
      function_nodes_.emplace(
          info.decl, graph_.add_node(CallGraphNode::Kind::kFunction, name,
                                     info.decl->loc()));
    }
  }

  CallGraph build() {
    for (const phpast::PhpFile* file : program_.files) {
      const NodeId file_node = file_nodes_.at(file);
      for (const auto& stmt : file->statements) {
        scan_scope_stmt(*stmt, file_node, file->file);
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

  NodeId node_of(const Program::FunctionInfo& fn) const {
    return function_nodes_.at(fn.decl);
  }

  // Scans a statement that is part of scope `scope`. Function/method
  // declarations open their own scope; everything else is walked.
  void scan_scope_stmt(const Node& node, NodeId scope, FileId file) {
    if (node.kind() == NodeKind::kFunctionDecl) {
      scan_body(static_cast<const phpast::FunctionDecl&>(node), file);
      return;
    }
    if (node.kind() == NodeKind::kClassDecl) {
      for (const phpast::FunctionDecl* method :
           static_cast<const phpast::ClassDecl&>(node).methods) {
        scan_body(*method, file);
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

  // A declaration's body is the scope of its own node. A declaration the
  // registry does not hold has no node: no call site runs it.
  void scan_body(const phpast::FunctionDecl& fn, FileId file) {
    const auto it = function_nodes_.find(&fn);
    if (it == function_nodes_.end()) return;
    for (const auto& s : fn.body) scan_scope_stmt(*s, it->second, file);
  }

  void record_node(const Node& node, NodeId scope, FileId file) {
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
        if (const Program::FunctionInfo* fn = program_.callee(call, sinks_)) {
          record_plain_call(call, node_of(*fn), scope);
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
        if (const Program::FunctionInfo* fn = program_.callee(call, sinks_)) {
          graph_.add_edge(scope, node_of(*fn));
        }
        for (const auto& arg : call.args) {
          record_callback_arg(*arg, scope, /*admin_gated=*/false);
        }
        break;
      }
      case NodeKind::kStaticCall:
        if (const Program::FunctionInfo* fn = program_.callee(node, sinks_)) {
          graph_.add_edge(scope, node_of(*fn));
        }
        break;
      case NodeKind::kIncludeExpr:
        if (const phpast::PhpFile* target = program_.include_target(
                *static_cast<const phpast::IncludeExpr&>(node).path, file)) {
          graph_.add_edge(scope, file_nodes_.at(target));
        }
        break;
      default:
        break;
    }
  }

  // A plain call of user function `callee` from `scope`. Parameter-input
  // access to $_FILES (paper §III-A edge rule): a callee passed $_FILES
  // is treated as accessing it, and locality binds its parameters from
  // such a call site when there is one.
  void record_plain_call(const phpast::Call& call, NodeId callee,
                         NodeId scope) {
    graph_.add_edge(scope, callee);
    const bool files = passes_files(call);
    if (files) graph_.add_edge(callee, files_access_node());
    const phpast::Call* bound = graph_.node(callee).binding_call;
    if (bound == nullptr || (files && !passes_files(*bound))) {
      graph_.set_binding_call(callee, &call);
    }
  }

  // Recognizes PHP callable arguments and adds a call edge from the
  // registering scope to the named function:
  //   'func_name'                       — plain function callback
  //   array($this, 'method'),           — method callbacks; resolved by
  //   array('Class', 'method'), [...]     bare method name
  void record_callback_arg(const phpast::Expr& arg, NodeId scope,
                           bool admin_gated) {
    const Program::FunctionInfo* fn = nullptr;
    if (arg.kind() == NodeKind::kStringLit) {
      fn = function_named(static_cast<const phpast::StringLit&>(arg).value);
    } else if (arg.kind() == NodeKind::kArrayLit) {
      const auto& lit = static_cast<const phpast::ArrayLit&>(arg);
      if (lit.items.size() != 2) return;
      const phpast::Expr* receiver = lit.items[0].value;
      const phpast::Expr* member = lit.items[1].value;
      if (member == nullptr || member->kind() != NodeKind::kStringLit) return;
      const std::string method = strutil::to_lower(
          static_cast<const phpast::StringLit&>(*member).value);
      // Prefer Class::method when the receiver names a class.
      if (receiver != nullptr && receiver->kind() == NodeKind::kStringLit) {
        fn = find_method(program_,
                         strutil::to_lower(
                             static_cast<const phpast::StringLit&>(*receiver)
                                 .value),
                         method);
      } else {
        fn = program_.function(method);
      }
    }
    if (fn != nullptr) graph_.add_edge(scope, node_of(*fn), admin_gated);
  }

  // The registry entry a string literal names, case-insensitively. Most
  // literals are not function names, so the common case lowercases into
  // a stack buffer instead of allocating a string per literal.
  const Program::FunctionInfo* function_named(std::string_view literal) const {
    std::array<char, 128> buf;
    if (literal.size() > buf.size()) {
      return program_.function(strutil::to_lower(literal));
    }
    std::transform(literal.begin(), literal.end(), buf.begin(), [](char c) {
      return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
    });
    return program_.function(std::string_view(buf.data(), literal.size()));
  }

  const Program& program_;
  const SinkRegistry& sinks_;
  CallGraph graph_;
  std::unordered_map<const phpast::PhpFile*, NodeId> file_nodes_;
  std::unordered_map<const phpast::FunctionDecl*, NodeId> function_nodes_;
  std::map<std::string, NodeId, std::less<>> sink_nodes_;
  NodeId files_node_ = kNoNode;
};

}  // namespace

CallGraph build_call_graph(const Program& program, const SinkRegistry& sinks) {
  return GraphBuilder(program, sinks).build();
}

}  // namespace uchecker::core
