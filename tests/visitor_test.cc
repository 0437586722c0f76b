#include "phpast/visitor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "phpast/printer.h"
#include "phpparse/parser.h"
#include "support/diag.h"
#include "support/source.h"

namespace uchecker::phpast {
namespace {

PhpFile parse(const std::string& src) {
  static SourceManager* sm = new SourceManager();
  static std::vector<Arena>* arenas = new std::vector<Arena>();
  DiagnosticSink diags;
  const FileId id = sm->add_file("t.php", src);
  arenas->emplace_back();
  return phpparse::parse_php(*sm->file(id), diags, arenas->back());
}

std::size_t count_nodes(const PhpFile& file) {
  std::size_t n = 0;
  for (const auto& stmt : file.statements) {
    walk(*stmt, [&n](const Node&) {
      ++n;
      return true;
    });
  }
  return n;
}

TEST(Visitor, WalkVisitsAllNodes) {
  const PhpFile file = parse("<?php $a = f($b + 1, 'x');");
  // expr-stmt, assign, var a, call, binary, var b, int 1, string.
  EXPECT_EQ(count_nodes(file), 8u);
}

TEST(Visitor, WalkPreOrder) {
  const PhpFile file = parse("<?php $a = 1 + 2;");
  std::vector<NodeKind> order;
  walk(*file.statements.at(0), [&order](const Node& n) {
    order.push_back(n.kind());
    return true;
  });
  ASSERT_GE(order.size(), 3u);
  EXPECT_EQ(order[0], NodeKind::kExprStmt);
  EXPECT_EQ(order[1], NodeKind::kAssign);
}

TEST(Visitor, WalkCanPruneSubtrees) {
  const PhpFile file = parse("<?php function f() { $inner = 1; } $outer = 2;");
  std::size_t vars = 0;
  for (const auto& stmt : file.statements) {
    walk(*stmt, [&vars](const Node& n) {
      if (n.kind() == NodeKind::kFunctionDecl) return false;  // prune
      if (n.kind() == NodeKind::kVariable) ++vars;
      return true;
    });
  }
  EXPECT_EQ(vars, 1u);  // only $outer
}

TEST(Visitor, ForEachChildDirectOnly) {
  const PhpFile file = parse("<?php $a = 1 + 2;");
  const auto& stmt = *file.statements.at(0);
  std::size_t direct = 0;
  for_each_child(stmt, [&direct](const Node&) { ++direct; });
  EXPECT_EQ(direct, 1u);  // just the Assign
}

TEST(Visitor, CoversControlFlowStatements) {
  const PhpFile file = parse(R"(<?php
if ($a) { $x = 1; } elseif ($b) { $y = 2; } else { $z = 3; }
while ($c) { $w = 4; }
foreach ($arr as $k => $v) { echo $v; }
switch ($s) { case 1: break; default: $d = 5; }
try { f(); } catch (E $e) { g(); } finally { h(); }
for ($i = 0; $i < 3; $i++) { $t = $i; }
)");
  // Smoke: every construct's children are visited without crash, and all
  // variables are found.
  std::size_t vars = 0;
  for (const auto& stmt : file.statements) {
    walk(*stmt, [&vars](const Node& n) {
      if (n.kind() == NodeKind::kVariable) ++vars;
      return true;
    });
  }
  EXPECT_GT(vars, 12u);
}

// A stateful functor, not a lambda: passed as an lvalue, it must be the
// object the traversal calls, so its count is visible afterwards. A
// traversal that copied the callable would leave `visited` at zero.
struct CountingVisitor {
  std::size_t visited = 0;
  std::vector<NodeKind> order;
  bool prune_functions = false;

  bool operator()(const Node& n) {
    ++visited;
    order.push_back(n.kind());
    return !(prune_functions && n.kind() == NodeKind::kFunctionDecl);
  }
};

TEST(Visitor, WalkKeepsCallerState) {
  const PhpFile file = parse("<?php $a = f($b + 1, 'x');");
  CountingVisitor counter;
  walk(*file.statements.at(0), counter);
  EXPECT_EQ(counter.visited, 8u);
  EXPECT_EQ(counter.visited, count_nodes(file));
  ASSERT_GE(counter.order.size(), 4u);
  EXPECT_EQ(counter.order[0], NodeKind::kExprStmt);  // pre-order
  EXPECT_EQ(counter.order[1], NodeKind::kAssign);
  EXPECT_EQ(counter.order[2], NodeKind::kVariable);
  EXPECT_EQ(counter.order[3], NodeKind::kCall);

  // for_each_child calls the same object once per direct child.
  CountingVisitor children;
  for_each_child(*file.statements.at(0), children);
  EXPECT_EQ(children.visited, 1u);  // just the Assign

  // Pruning on false: the declaration is visited, its body is not.
  const PhpFile decl = parse("<?php function g() { $inner = 1; } $outer = 2;");
  CountingVisitor pruning;
  pruning.prune_functions = true;
  for (const auto& stmt : decl.statements) walk(*stmt, pruning);
  // FunctionDecl, then ExprStmt, Assign, $outer, 2.
  EXPECT_EQ(pruning.visited, 5u);
  EXPECT_EQ(pruning.order.front(), NodeKind::kFunctionDecl);
  EXPECT_EQ(std::count(pruning.order.begin(), pruning.order.end(),
                       NodeKind::kVariable),
            1);
}

TEST(Visitor, MinMaxLine) {
  const PhpFile file = parse("<?php\n$a = 1;\nif ($b) {\n  $c = 2;\n}\n");
  const Node& if_stmt = *file.statements.at(1);
  EXPECT_EQ(min_line(if_stmt), 3u);
  EXPECT_EQ(max_line(if_stmt), 4u);
}

TEST(Printer, CoversStatements) {
  const PhpFile file = parse(R"(<?php
global $wpdb;
static $cache = array();
unset($tmp);
throw new E('x');
do { $i++; } while ($i < 3);
)");
  const std::string out = dump(file);
  EXPECT_NE(out.find("(global $wpdb)"), std::string::npos);
  EXPECT_NE(out.find("(static $cache"), std::string::npos);
  EXPECT_NE(out.find("(unset"), std::string::npos);
  EXPECT_NE(out.find("(throw"), std::string::npos);
  EXPECT_NE(out.find("(do-while"), std::string::npos);
}

TEST(Printer, CoversExpressions) {
  const PhpFile file = parse(R"(<?php
$a = isset($x) ? (int)$y : ($z ?? -1);
$b = [1, 'k' => 2];
$c = $obj->m($d)->prop;
$e = Klass::sm() . @risky();
)");
  const std::string out = dump(file);
  EXPECT_NE(out.find("(ternary"), std::string::npos);
  EXPECT_NE(out.find("(cast int"), std::string::npos);
  EXPECT_NE(out.find("(array-lit"), std::string::npos);
  EXPECT_NE(out.find("(method-call m"), std::string::npos);
  EXPECT_NE(out.find("(prop prop"), std::string::npos);
  EXPECT_NE(out.find("(static-call Klass::sm"), std::string::npos);
  EXPECT_NE(out.find("(unary @"), std::string::npos);
}

}  // namespace
}  // namespace uchecker::phpast
