// Abstract syntax tree for the PHP subset interpreted by UChecker.
//
// The AST deliberately mirrors the paper's Table I core syntax (constants,
// variables, unary/binary operations, array access, function definition
// and call, sequence, assignment, conditional, return) extended with the
// constructs that real WordPress-style plugins use: loops, foreach,
// echo/print, include/require, global, switch, classes with methods,
// isset/empty, ternary, casts, and interpolated strings (desugared to
// concatenation by the parser).
//
// Ownership model: every node, child list and string payload of one
// parsed file lives in a single bump Arena (support/arena.h). Nodes hold
// raw `Node*` children and `std::string_view` names/literals backed by
// the arena's copy of the source buffer (or by arena-allocated decoded
// buffers); nothing in the tree owns heap memory, so the whole AST is
// trivially destructible and freed wholesale with its arena. Node
// pointers stay valid for exactly the arena's lifetime — consumers that
// must outlive the arena (reports, call-graph names, heap-graph labels)
// copy what they keep.
//
// Every node carries a SourceLoc; the symbolic interpreter propagates it
// into heap-graph objects so reports can cite exact source lines.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/arena.h"
#include "support/source.h"

namespace uchecker::phpast {

class Node;
class Expr;
class Stmt;

// Raw arena pointers. The aliases keep the historical names from the
// unique_ptr era; ownership is the arena's, never the holder's.
using ExprPtr = Expr*;
using StmtPtr = Stmt*;
using ExprList = Span<ExprPtr>;
using StmtList = Span<StmtPtr>;

enum class NodeKind : std::uint8_t {
  // Expressions
  kNullLit, kBoolLit, kIntLit, kFloatLit, kStringLit,
  kVariable, kConstFetch, kArrayAccess, kPropertyAccess,
  kUnary, kBinary, kAssign, kTernary, kCast,
  kCall, kMethodCall, kStaticCall, kNew,
  kArrayLit, kIsset, kEmpty, kIncludeExpr, kExitExpr, kListExpr,
  kClosure,

  // Statements
  kExprStmt, kEcho, kIf, kWhile, kDoWhile, kFor, kForeach,
  kSwitch, kReturn, kBreak, kContinue, kGlobal, kStaticVarStmt,
  kUnsetStmt, kBlock, kFunctionDecl, kClassDecl, kTryCatch, kThrowStmt,
  kInlineHtml, kNamespaceDecl, kUseDecl,
};

[[nodiscard]] std::string_view node_kind_name(NodeKind kind);

// Nodes are non-virtual (no RTTI), so expression-ness is a kind-range
// check: every expression kind precedes kExprStmt in the enum.
[[nodiscard]] constexpr bool is_expr_kind(NodeKind kind) {
  return kind < NodeKind::kExprStmt;
}

// -------------------------------------------------------------------------
// Base classes. Deliberately non-virtual: nodes are placement-allocated
// in an arena and never destroyed or deleted through a base pointer, and
// dropping the vtable keeps them trivially destructible and 8 bytes
// smaller. Downcasts dispatch on kind().

class Node {
 public:
  Node(NodeKind kind, SourceLoc loc) : kind_(kind), loc_(loc) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeKind kind() const { return kind_; }
  [[nodiscard]] SourceLoc loc() const { return loc_; }

 private:
  NodeKind kind_;
  SourceLoc loc_;
};

class Expr : public Node {
 public:
  using Node::Node;
};

class Stmt : public Node {
 public:
  using Node::Node;
};

// -------------------------------------------------------------------------
// Expressions

class NullLit final : public Expr {
 public:
  explicit NullLit(SourceLoc loc) : Expr(NodeKind::kNullLit, loc) {}
};

class BoolLit final : public Expr {
 public:
  BoolLit(SourceLoc loc, bool value)
      : Expr(NodeKind::kBoolLit, loc), value(value) {}
  bool value;
};

class IntLit final : public Expr {
 public:
  IntLit(SourceLoc loc, std::int64_t value)
      : Expr(NodeKind::kIntLit, loc), value(value) {}
  std::int64_t value;
};

class FloatLit final : public Expr {
 public:
  FloatLit(SourceLoc loc, double value)
      : Expr(NodeKind::kFloatLit, loc), value(value) {}
  double value;
};

class StringLit final : public Expr {
 public:
  StringLit(SourceLoc loc, std::string_view value)
      : Expr(NodeKind::kStringLit, loc), value(value) {}
  std::string_view value;  // decoded; arena-backed
};

// $name. Superglobals ($_FILES, $_POST, ...) appear here too; the
// interpreter gives them special treatment.
class Variable final : public Expr {
 public:
  Variable(SourceLoc loc, std::string_view name)
      : Expr(NodeKind::kVariable, loc), name(name) {}
  std::string_view name;  // without the leading '$'
};

// Whether a variable name (without the '$') is one of PHP's superglobals:
// _FILES, _POST, _GET, _REQUEST, _SERVER, _COOKIE, _SESSION, _ENV and
// GLOBALS.
[[nodiscard]] constexpr bool is_superglobal(std::string_view name) {
  return name == "_FILES" || name == "_POST" || name == "_GET" ||
         name == "_REQUEST" || name == "_SERVER" || name == "_COOKIE" ||
         name == "_SESSION" || name == "_ENV" || name == "GLOBALS";
}

// A bare identifier used as an expression: PHP constants such as
// PATHINFO_EXTENSION, __DIR__, UPLOAD_ERR_OK, or class constants.
class ConstFetch final : public Expr {
 public:
  ConstFetch(SourceLoc loc, std::string_view name)
      : Expr(NodeKind::kConstFetch, loc), name(name) {}
  std::string_view name;
};

// base[index]; index may be null for the push form `$a[] = v`.
class ArrayAccess final : public Expr {
 public:
  ArrayAccess(SourceLoc loc, ExprPtr base, ExprPtr index)
      : Expr(NodeKind::kArrayAccess, loc), base(base), index(index) {}
  ExprPtr base;
  ExprPtr index;  // may be null
};

// base->name (property read). Dynamic property names are not modeled.
class PropertyAccess final : public Expr {
 public:
  PropertyAccess(SourceLoc loc, ExprPtr base, std::string_view name)
      : Expr(NodeKind::kPropertyAccess, loc), base(base), name(name) {}
  ExprPtr base;
  std::string_view name;
};

enum class UnaryOp : std::uint8_t {
  kNot, kMinus, kPlus, kBitNot, kErrorSuppress,
  kPreInc, kPreDec, kPostInc, kPostDec, kPrint,
};
[[nodiscard]] std::string_view unary_op_name(UnaryOp op);

class Unary final : public Expr {
 public:
  Unary(SourceLoc loc, UnaryOp op, ExprPtr operand)
      : Expr(NodeKind::kUnary, loc), op(op), operand(operand) {}
  UnaryOp op;
  ExprPtr operand;
};

enum class BinaryOp : std::uint8_t {
  kAdd, kSub, kMul, kDiv, kMod, kPow, kConcat,
  kEqual, kNotEqual, kIdentical, kNotIdentical,
  kLess, kGreater, kLessEqual, kGreaterEqual, kSpaceship,
  kAnd, kOr, kXor,
  kBitAnd, kBitOr, kBitXor, kShiftLeft, kShiftRight,
  kCoalesce, kInstanceof,
};
[[nodiscard]] std::string_view binary_op_name(BinaryOp op);

class Binary final : public Expr {
 public:
  Binary(SourceLoc loc, BinaryOp op, ExprPtr lhs, ExprPtr rhs)
      : Expr(NodeKind::kBinary, loc), op(op), lhs(lhs), rhs(rhs) {}
  BinaryOp op;
  ExprPtr lhs;
  ExprPtr rhs;
};

// target = value, or compound (target .= value etc., with `compound_op`).
class Assign final : public Expr {
 public:
  Assign(SourceLoc loc, ExprPtr target, ExprPtr value,
         std::optional<BinaryOp> compound_op = std::nullopt, bool by_ref = false)
      : Expr(NodeKind::kAssign, loc),
        target(target),
        value(value),
        compound_op(compound_op),
        by_ref(by_ref) {}
  ExprPtr target;
  ExprPtr value;
  std::optional<BinaryOp> compound_op;
  bool by_ref;
};

// cond ? then : else; `then` may be null for the short form `a ?: b`.
class Ternary final : public Expr {
 public:
  Ternary(SourceLoc loc, ExprPtr cond, ExprPtr then_expr, ExprPtr else_expr)
      : Expr(NodeKind::kTernary, loc),
        cond(cond),
        then_expr(then_expr),
        else_expr(else_expr) {}
  ExprPtr cond;
  ExprPtr then_expr;  // may be null (Elvis operator)
  ExprPtr else_expr;
};

enum class CastKind : std::uint8_t {
  kInt, kFloat, kString, kBool, kArray, kObject,
};
[[nodiscard]] std::string_view cast_kind_name(CastKind kind);

class Cast final : public Expr {
 public:
  Cast(SourceLoc loc, CastKind cast, ExprPtr operand)
      : Expr(NodeKind::kCast, loc), cast(cast), operand(operand) {}
  CastKind cast;
  ExprPtr operand;
};

// f(args...) where the callee is a plain name (the common case) or a
// dynamic expression ($f(...), rare; modeled as unknown).
class Call final : public Expr {
 public:
  Call(SourceLoc loc, std::string_view callee, ExprList args)
      : Expr(NodeKind::kCall, loc), callee(callee), args(args) {}
  Call(SourceLoc loc, ExprPtr callee_expr, ExprList args)
      : Expr(NodeKind::kCall, loc), callee_expr(callee_expr), args(args) {}
  std::string_view callee;         // lowercased function name; empty if dynamic
  ExprPtr callee_expr = nullptr;   // non-null iff dynamic call
  ExprList args;

  [[nodiscard]] bool is_dynamic() const { return callee_expr != nullptr; }
};

class MethodCall final : public Expr {
 public:
  MethodCall(SourceLoc loc, ExprPtr object, std::string_view method,
             ExprList args)
      : Expr(NodeKind::kMethodCall, loc),
        object(object),
        method(method),
        args(args) {}
  ExprPtr object;
  std::string_view method;
  ExprList args;
};

class StaticCall final : public Expr {
 public:
  StaticCall(SourceLoc loc, std::string_view class_name,
             std::string_view method, ExprList args)
      : Expr(NodeKind::kStaticCall, loc),
        class_name(class_name),
        method(method),
        args(args) {}
  std::string_view class_name;
  std::string_view method;
  ExprList args;
};

class New final : public Expr {
 public:
  New(SourceLoc loc, std::string_view class_name, ExprList args)
      : Expr(NodeKind::kNew, loc), class_name(class_name), args(args) {}
  std::string_view class_name;
  ExprList args;
};

// array(k => v, ...) or [v, ...].
struct ArrayItem {
  ExprPtr key = nullptr;  // may be null
  ExprPtr value = nullptr;
};

class ArrayLit final : public Expr {
 public:
  ArrayLit(SourceLoc loc, Span<ArrayItem> items)
      : Expr(NodeKind::kArrayLit, loc), items(items) {}
  Span<ArrayItem> items;
};

class Isset final : public Expr {
 public:
  Isset(SourceLoc loc, ExprList operands)
      : Expr(NodeKind::kIsset, loc), operands(operands) {}
  ExprList operands;
};

class Empty final : public Expr {
 public:
  Empty(SourceLoc loc, ExprPtr operand)
      : Expr(NodeKind::kEmpty, loc), operand(operand) {}
  ExprPtr operand;
};

enum class IncludeKind : std::uint8_t {
  kInclude, kIncludeOnce, kRequire, kRequireOnce,
};
[[nodiscard]] std::string_view include_kind_name(IncludeKind kind);

class IncludeExpr final : public Expr {
 public:
  IncludeExpr(SourceLoc loc, IncludeKind include_kind, ExprPtr path)
      : Expr(NodeKind::kIncludeExpr, loc),
        include_kind(include_kind),
        path(path) {}
  IncludeKind include_kind;
  ExprPtr path;
};

// die/exit, optionally with a message/status expression.
class ExitExpr final : public Expr {
 public:
  ExitExpr(SourceLoc loc, ExprPtr operand)
      : Expr(NodeKind::kExitExpr, loc), operand(operand) {}
  ExprPtr operand;  // may be null
};

// list($a, $b) destructuring target.
class ListExpr final : public Expr {
 public:
  ListExpr(SourceLoc loc, ExprList elements)
      : Expr(NodeKind::kListExpr, loc), elements(elements) {}
  ExprList elements;  // entries may be null (skipped slots)
};

// -------------------------------------------------------------------------
// Statements

class ExprStmt final : public Stmt {
 public:
  ExprStmt(SourceLoc loc, ExprPtr expr)
      : Stmt(NodeKind::kExprStmt, loc), expr(expr) {}
  ExprPtr expr;
};

class Echo final : public Stmt {
 public:
  Echo(SourceLoc loc, ExprList values)
      : Stmt(NodeKind::kEcho, loc), values(values) {}
  ExprList values;
};

struct ElseIfClause {
  ExprPtr cond = nullptr;
  StmtList body;
};

class If final : public Stmt {
 public:
  If(SourceLoc loc, ExprPtr cond, StmtList then_body,
     Span<ElseIfClause> elseifs, StmtList else_body, bool has_else)
      : Stmt(NodeKind::kIf, loc),
        cond(cond),
        then_body(then_body),
        elseifs(elseifs),
        else_body(else_body),
        has_else(has_else) {}
  ExprPtr cond;
  StmtList then_body;
  Span<ElseIfClause> elseifs;
  StmtList else_body;
  bool has_else;
};

class While final : public Stmt {
 public:
  While(SourceLoc loc, ExprPtr cond, StmtList body)
      : Stmt(NodeKind::kWhile, loc), cond(cond), body(body) {}
  ExprPtr cond;
  StmtList body;
};

class DoWhile final : public Stmt {
 public:
  DoWhile(SourceLoc loc, StmtList body, ExprPtr cond)
      : Stmt(NodeKind::kDoWhile, loc), body(body), cond(cond) {}
  StmtList body;
  ExprPtr cond;
};

class For final : public Stmt {
 public:
  For(SourceLoc loc, ExprList init, ExprList cond, ExprList step,
      StmtList body)
      : Stmt(NodeKind::kFor, loc),
        init(init),
        cond(cond),
        step(step),
        body(body) {}
  ExprList init;
  ExprList cond;
  ExprList step;
  StmtList body;
};

class Foreach final : public Stmt {
 public:
  Foreach(SourceLoc loc, ExprPtr iterable, ExprPtr key_var, ExprPtr value_var,
          StmtList body)
      : Stmt(NodeKind::kForeach, loc),
        iterable(iterable),
        key_var(key_var),
        value_var(value_var),
        body(body) {}
  ExprPtr iterable;
  ExprPtr key_var;    // may be null
  ExprPtr value_var;  // target for each element
  StmtList body;
};

struct SwitchCase {
  ExprPtr match = nullptr;  // null for `default:`
  StmtList body;
};

class Switch final : public Stmt {
 public:
  Switch(SourceLoc loc, ExprPtr subject, Span<SwitchCase> cases)
      : Stmt(NodeKind::kSwitch, loc), subject(subject), cases(cases) {}
  ExprPtr subject;
  Span<SwitchCase> cases;
};

class Return final : public Stmt {
 public:
  Return(SourceLoc loc, ExprPtr value)
      : Stmt(NodeKind::kReturn, loc), value(value) {}
  ExprPtr value;  // may be null
};

class Break final : public Stmt {
 public:
  explicit Break(SourceLoc loc) : Stmt(NodeKind::kBreak, loc) {}
};

class Continue final : public Stmt {
 public:
  explicit Continue(SourceLoc loc) : Stmt(NodeKind::kContinue, loc) {}
};

class Global final : public Stmt {
 public:
  Global(SourceLoc loc, Span<std::string_view> names)
      : Stmt(NodeKind::kGlobal, loc), names(names) {}
  Span<std::string_view> names;
};

class StaticVarStmt final : public Stmt {
 public:
  StaticVarStmt(SourceLoc loc, std::string_view name, ExprPtr init)
      : Stmt(NodeKind::kStaticVarStmt, loc), name(name), init(init) {}
  std::string_view name;
  ExprPtr init;  // may be null
};

class UnsetStmt final : public Stmt {
 public:
  UnsetStmt(SourceLoc loc, ExprList operands)
      : Stmt(NodeKind::kUnsetStmt, loc), operands(operands) {}
  ExprList operands;
};

class Block final : public Stmt {
 public:
  Block(SourceLoc loc, StmtList body)
      : Stmt(NodeKind::kBlock, loc), body(body) {}
  StmtList body;
};

struct Param {
  std::string_view name;
  ExprPtr default_value = nullptr;  // may be null
  bool by_ref = false;
  std::string_view type_hint;  // informational only
};

class FunctionDecl final : public Stmt {
 public:
  FunctionDecl(SourceLoc loc, std::string_view name, Span<Param> params,
               StmtList body)
      : Stmt(NodeKind::kFunctionDecl, loc),
        name(name),
        params(params),
        body(body) {}
  std::string_view name;
  Span<Param> params;
  StmtList body;
};

// Anonymous function (closure). Shares Param with FunctionDecl.
class Closure final : public Expr {
 public:
  Closure(SourceLoc loc, Span<Param> params, Span<std::string_view> uses,
          StmtList body)
      : Expr(NodeKind::kClosure, loc),
        params(params),
        uses(uses),
        body(body) {}
  Span<Param> params;
  Span<std::string_view> uses;
  StmtList body;
};

struct PropertyDecl {
  std::string_view name;
  ExprPtr default_value = nullptr;  // may be null
  bool is_static = false;
};

class ClassDecl final : public Stmt {
 public:
  ClassDecl(SourceLoc loc, std::string_view name, std::string_view parent,
            Span<PropertyDecl> properties, Span<FunctionDecl*> methods)
      : Stmt(NodeKind::kClassDecl, loc),
        name(name),
        parent(parent),
        properties(properties),
        methods(methods) {}
  std::string_view name;
  std::string_view parent;  // empty if no `extends`
  Span<PropertyDecl> properties;
  Span<FunctionDecl*> methods;
};

struct CatchClause {
  std::string_view exception_class;
  std::string_view variable;
  StmtList body;
};

class TryCatch final : public Stmt {
 public:
  TryCatch(SourceLoc loc, StmtList body, Span<CatchClause> catches,
           StmtList finally_body)
      : Stmt(NodeKind::kTryCatch, loc),
        body(body),
        catches(catches),
        finally_body(finally_body) {}
  StmtList body;
  Span<CatchClause> catches;
  StmtList finally_body;
};

class ThrowStmt final : public Stmt {
 public:
  ThrowStmt(SourceLoc loc, ExprPtr value)
      : Stmt(NodeKind::kThrowStmt, loc), value(value) {}
  ExprPtr value;
};

class InlineHtml final : public Stmt {
 public:
  InlineHtml(SourceLoc loc, std::string_view text)
      : Stmt(NodeKind::kInlineHtml, loc), text(text) {}
  std::string_view text;
};

class NamespaceDecl final : public Stmt {
 public:
  NamespaceDecl(SourceLoc loc, std::string_view name)
      : Stmt(NodeKind::kNamespaceDecl, loc), name(name) {}
  std::string_view name;
};

class UseDecl final : public Stmt {
 public:
  UseDecl(SourceLoc loc, std::string_view path)
      : Stmt(NodeKind::kUseDecl, loc), path(path) {}
  std::string_view path;
};

// Every node must stay trivially destructible: arena blocks are freed
// wholesale without running destructors.
static_assert(std::is_trivially_destructible_v<If>);
static_assert(std::is_trivially_destructible_v<ClassDecl>);
static_assert(std::is_trivially_destructible_v<Closure>);
static_assert(std::is_trivially_destructible_v<Call>);
static_assert(std::is_trivially_destructible_v<Assign>);

// -------------------------------------------------------------------------
// A parsed PHP file. The handle itself is an ordinary value (name and
// top-level statement list are owned normally); every Stmt it points to
// lives in the Arena the file was parsed with and dies with it.

struct PhpFile {
  FileId file;
  std::string name;  // same as SourceFile::name()
  std::vector<StmtPtr> statements;
};

}  // namespace uchecker::phpast
