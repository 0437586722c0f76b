// Generic AST traversal helpers.
//
// `for_each_child` invokes a callback on every direct child of a node;
// `walk` performs a pre-order traversal of a whole subtree. Both are used
// by the call-graph builder, line-span accounting, and the baselines.
//
// Both are templates on the callable, which they take by forwarding
// reference and never copy: every node visit is a direct call the
// compiler can inline, and a stateful functor passed as an lvalue keeps
// the state it gathers.
#pragma once

#include <cstdint>

#include "phpast/ast.h"

namespace uchecker::phpast {

namespace visitor_detail {

template <typename Fn, typename N>
void visit_if(Fn& fn, const N* n) {
  if (n != nullptr) fn(static_cast<const Node&>(*n));
}

// Works for any container of raw node pointers: arena Spans of
// ExprPtr/StmtPtr/FunctionDecl*, and the PhpFile statement vector.
template <typename Fn, typename Container>
void visit_all(Fn& fn, const Container& nodes) {
  for (const auto* n : nodes) visit_if(fn, n);
}

}  // namespace visitor_detail

// Calls `fn` for each direct child node (expressions and statements).
template <typename Fn>
void for_each_child(const Node& node, Fn&& fn) {
  using visitor_detail::visit_all;
  using visitor_detail::visit_if;
  switch (node.kind()) {
    case NodeKind::kNullLit:
    case NodeKind::kBoolLit:
    case NodeKind::kIntLit:
    case NodeKind::kFloatLit:
    case NodeKind::kStringLit:
    case NodeKind::kVariable:
    case NodeKind::kConstFetch:
    case NodeKind::kBreak:
    case NodeKind::kContinue:
    case NodeKind::kGlobal:
    case NodeKind::kInlineHtml:
    case NodeKind::kNamespaceDecl:
    case NodeKind::kUseDecl:
      break;
    case NodeKind::kArrayAccess: {
      const auto& n = static_cast<const ArrayAccess&>(node);
      visit_if(fn, n.base);
      visit_if(fn, n.index);
      break;
    }
    case NodeKind::kPropertyAccess:
      visit_if(fn, static_cast<const PropertyAccess&>(node).base);
      break;
    case NodeKind::kUnary:
      visit_if(fn, static_cast<const Unary&>(node).operand);
      break;
    case NodeKind::kBinary: {
      const auto& n = static_cast<const Binary&>(node);
      visit_if(fn, n.lhs);
      visit_if(fn, n.rhs);
      break;
    }
    case NodeKind::kAssign: {
      const auto& n = static_cast<const Assign&>(node);
      visit_if(fn, n.target);
      visit_if(fn, n.value);
      break;
    }
    case NodeKind::kTernary: {
      const auto& n = static_cast<const Ternary&>(node);
      visit_if(fn, n.cond);
      visit_if(fn, n.then_expr);
      visit_if(fn, n.else_expr);
      break;
    }
    case NodeKind::kCast:
      visit_if(fn, static_cast<const Cast&>(node).operand);
      break;
    case NodeKind::kCall: {
      const auto& n = static_cast<const Call&>(node);
      visit_if(fn, n.callee_expr);
      visit_all(fn, n.args);
      break;
    }
    case NodeKind::kMethodCall: {
      const auto& n = static_cast<const MethodCall&>(node);
      visit_if(fn, n.object);
      visit_all(fn, n.args);
      break;
    }
    case NodeKind::kStaticCall:
      visit_all(fn, static_cast<const StaticCall&>(node).args);
      break;
    case NodeKind::kNew:
      visit_all(fn, static_cast<const New&>(node).args);
      break;
    case NodeKind::kArrayLit:
      for (const ArrayItem& item : static_cast<const ArrayLit&>(node).items) {
        visit_if(fn, item.key);
        visit_if(fn, item.value);
      }
      break;
    case NodeKind::kIsset:
      visit_all(fn, static_cast<const Isset&>(node).operands);
      break;
    case NodeKind::kEmpty:
      visit_if(fn, static_cast<const Empty&>(node).operand);
      break;
    case NodeKind::kIncludeExpr:
      visit_if(fn, static_cast<const IncludeExpr&>(node).path);
      break;
    case NodeKind::kExitExpr:
      visit_if(fn, static_cast<const ExitExpr&>(node).operand);
      break;
    case NodeKind::kListExpr:
      visit_all(fn, static_cast<const ListExpr&>(node).elements);
      break;
    case NodeKind::kClosure: {
      const auto& n = static_cast<const Closure&>(node);
      for (const Param& p : n.params) visit_if(fn, p.default_value);
      visit_all(fn, n.body);
      break;
    }
    case NodeKind::kExprStmt:
      visit_if(fn, static_cast<const ExprStmt&>(node).expr);
      break;
    case NodeKind::kEcho:
      visit_all(fn, static_cast<const Echo&>(node).values);
      break;
    case NodeKind::kIf: {
      const auto& n = static_cast<const If&>(node);
      visit_if(fn, n.cond);
      visit_all(fn, n.then_body);
      for (const ElseIfClause& c : n.elseifs) {
        visit_if(fn, c.cond);
        visit_all(fn, c.body);
      }
      visit_all(fn, n.else_body);
      break;
    }
    case NodeKind::kWhile: {
      const auto& n = static_cast<const While&>(node);
      visit_if(fn, n.cond);
      visit_all(fn, n.body);
      break;
    }
    case NodeKind::kDoWhile: {
      const auto& n = static_cast<const DoWhile&>(node);
      visit_all(fn, n.body);
      visit_if(fn, n.cond);
      break;
    }
    case NodeKind::kFor: {
      const auto& n = static_cast<const For&>(node);
      visit_all(fn, n.init);
      visit_all(fn, n.cond);
      visit_all(fn, n.step);
      visit_all(fn, n.body);
      break;
    }
    case NodeKind::kForeach: {
      const auto& n = static_cast<const Foreach&>(node);
      visit_if(fn, n.iterable);
      visit_if(fn, n.key_var);
      visit_if(fn, n.value_var);
      visit_all(fn, n.body);
      break;
    }
    case NodeKind::kSwitch: {
      const auto& n = static_cast<const Switch&>(node);
      visit_if(fn, n.subject);
      for (const SwitchCase& c : n.cases) {
        visit_if(fn, c.match);
        visit_all(fn, c.body);
      }
      break;
    }
    case NodeKind::kReturn:
      visit_if(fn, static_cast<const Return&>(node).value);
      break;
    case NodeKind::kStaticVarStmt:
      visit_if(fn, static_cast<const StaticVarStmt&>(node).init);
      break;
    case NodeKind::kUnsetStmt:
      visit_all(fn, static_cast<const UnsetStmt&>(node).operands);
      break;
    case NodeKind::kBlock:
      visit_all(fn, static_cast<const Block&>(node).body);
      break;
    case NodeKind::kFunctionDecl: {
      const auto& n = static_cast<const FunctionDecl&>(node);
      for (const Param& p : n.params) visit_if(fn, p.default_value);
      visit_all(fn, n.body);
      break;
    }
    case NodeKind::kClassDecl: {
      const auto& n = static_cast<const ClassDecl&>(node);
      for (const PropertyDecl& p : n.properties) {
        visit_if(fn, p.default_value);
      }
      visit_all(fn, n.methods);
      break;
    }
    case NodeKind::kTryCatch: {
      const auto& n = static_cast<const TryCatch&>(node);
      visit_all(fn, n.body);
      for (const CatchClause& c : n.catches) visit_all(fn, c.body);
      visit_all(fn, n.finally_body);
      break;
    }
    case NodeKind::kThrowStmt:
      visit_if(fn, static_cast<const ThrowStmt&>(node).value);
      break;
  }
}

// Pre-order traversal: `fn` is called on `node` first, then descendants.
// If `fn` returns false the subtree below the current node is skipped.
template <typename Fn>
void walk(const Node& node, Fn&& fn) {
  if (!fn(node)) return;
  for_each_child(node, [&fn](const Node& child) { walk(child, fn); });
}

// The maximum source line of any node in the subtree (0 if unknown).
[[nodiscard]] std::uint32_t max_line(const Node& node);

// The minimum valid source line of any node in the subtree (0 if unknown).
[[nodiscard]] std::uint32_t min_line(const Node& node);

}  // namespace uchecker::phpast
