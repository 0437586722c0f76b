// Differential tests: concrete folding vs Z3 translation.
//
// For programs over concrete values only, the heap graph denotes exact
// values. A small reference evaluator folds each object to its concrete
// result using PHP semantics; the Z3 translation of the same object must
// then PROVE equality with that result (i.e. `trl(e) != folded(e)` is
// UNSAT). Any disagreement exposes a translation-rule bug.
//
// Known, documented semantic gaps are respected by construction:
//   - str_replace: Z3 replaces the first occurrence, PHP replaces all —
//     test inputs contain at most one occurrence;
//   - float arithmetic rides on Int — tests use integers;
//   - strtolower-style case mappers translate as identity — the folder
//     treats them as identity too (that is the documented model).
#include <gtest/gtest.h>

#include <optional>

#include "core/heapgraph/sexpr.h"
#include "core/interp/builtins.h"
#include "core/interp/interp.h"
#include "core/translate/translate.h"
#include "phpparse/parser.h"
#include "support/strutil.h"
#include "smt/solver.h"

namespace uchecker::core {
namespace {

// --- reference evaluator ---------------------------------------------------

struct Folded {
  enum class Kind { kBool, kInt, kString } kind;
  bool b = false;
  std::int64_t i = 0;
  std::string s;

  static Folded of(bool v) { return {Kind::kBool, v, 0, {}}; }
  static Folded of(std::int64_t v) { return {Kind::kInt, false, v, {}}; }
  static Folded of(std::string v) {
    return {Kind::kString, false, 0, std::move(v)};
  }

  [[nodiscard]] std::string as_string() const {
    switch (kind) {
      case Kind::kBool: return b ? "1" : "";
      case Kind::kInt: return std::to_string(i);
      case Kind::kString: return s;
    }
    return {};
  }
  [[nodiscard]] std::int64_t as_int() const {
    switch (kind) {
      case Kind::kBool: return b ? 1 : 0;
      case Kind::kInt: return i;
      case Kind::kString: return uchecker::strutil::php_intval(s);
    }
    return 0;
  }
  [[nodiscard]] bool as_bool() const {
    switch (kind) {
      case Kind::kBool: return b;
      case Kind::kInt: return i != 0;
      case Kind::kString: return !s.empty();
    }
    return false;
  }
};

// Folds a concrete-only heap-graph value; nullopt when any symbolic or
// unmodeled piece is involved.
std::optional<Folded> fold(const HeapGraph& g, Label label);

std::optional<Folded> fold_func(const HeapGraph& g, const Object& obj) {
  const auto arg = [&](std::size_t i) { return fold(g, obj.children[i]); };
  const std::size_t n = obj.children.size();
  if ((is_identity_builtin(obj.name) || obj.name == "basename") && n >= 1) {
    // The documented identity model (basename of a no-slash name).
    return arg(0);
  }
  if (obj.name == "strlen" && n == 1) {
    const auto a = arg(0);
    if (!a) return std::nullopt;
    return Folded::of(static_cast<std::int64_t>(a->as_string().size()));
  }
  if (obj.name == "strpos" && n >= 2) {
    const auto h = arg(0);
    const auto needle = arg(1);
    if (!h || !needle) return std::nullopt;
    const auto pos = h->as_string().find(needle->as_string());
    if (pos == std::string::npos) return std::nullopt;  // PHP false; skip
    return Folded::of(static_cast<std::int64_t>(pos));
  }
  if (obj.name == "intval" && n >= 1) {
    const auto a = arg(0);
    if (!a) return std::nullopt;
    return Folded::of(a->as_int());
  }
  if (obj.name == "strval" && n >= 1) {
    const auto a = arg(0);
    if (!a) return std::nullopt;
    return Folded::of(a->as_string());
  }
  if (obj.name == "str_replace" && n >= 3) {
    const auto search = arg(0);
    const auto repl = arg(1);
    const auto subject = arg(2);
    if (!search || !repl || !subject) return std::nullopt;
    // Single-occurrence inputs only (Z3 semantics).
    return Folded::of(uchecker::strutil::replace_all(subject->as_string(),
                                           search->as_string(),
                                           repl->as_string()));
  }
  if (obj.name == "substr") {
    const auto s = arg(0);
    const auto start = n >= 2 ? arg(1) : std::nullopt;
    if (!s || !start) return std::nullopt;
    const std::string str = s->as_string();
    std::int64_t from = start->as_int();
    if (from < 0) from += static_cast<std::int64_t>(str.size());
    if (from < 0 || from > static_cast<std::int64_t>(str.size())) {
      return std::nullopt;
    }
    std::int64_t len = static_cast<std::int64_t>(str.size()) - from;
    if (n >= 3) {
      const auto l = arg(2);
      if (!l) return std::nullopt;
      len = l->as_int();
      if (len < 0) len = static_cast<std::int64_t>(str.size()) - from + len;
      if (len < 0) return std::nullopt;
    }
    return Folded::of(str.substr(static_cast<std::size_t>(from),
                                 static_cast<std::size_t>(len)));
  }
  if (obj.name == "empty" && n == 1) {
    const auto a = arg(0);
    if (!a) return std::nullopt;
    return Folded::of(!a->as_bool());
  }
  return std::nullopt;
}

std::optional<Folded> fold(const HeapGraph& g, Label label) {
  const Object* obj = g.find(label);
  if (obj == nullptr) return std::nullopt;
  switch (obj->kind) {
    case Object::Kind::kConcrete:
      switch (obj->type) {
        case Type::kBool: return Folded::of(std::get<bool>(obj->value));
        case Type::kInt:
          return Folded::of(std::get<std::int64_t>(obj->value));
        case Type::kString:
          return Folded::of(std::get<std::string>(obj->value));
        default: return std::nullopt;
      }
    case Object::Kind::kSymbol:
    case Object::Kind::kArray:
      return std::nullopt;
    case Object::Kind::kFunc:
      return fold_func(g, *obj);
    case Object::Kind::kOp: {
      const auto l = fold(g, obj->children.at(0));
      if (!l) return std::nullopt;
      if (obj->op == OpKind::kNot) return Folded::of(!l->as_bool());
      if (obj->op == OpKind::kNegate) return Folded::of(-l->as_int());
      if (obj->op == OpKind::kTernary) {
        const auto t = fold(g, obj->children.at(1));
        const auto e = fold(g, obj->children.at(2));
        if (!t || !e) return std::nullopt;
        return l->as_bool() ? t : e;
      }
      if (obj->children.size() < 2) return std::nullopt;
      const auto r = fold(g, obj->children.at(1));
      if (!r) return std::nullopt;
      switch (obj->op) {
        case OpKind::kConcat:
          return Folded::of(l->as_string() + r->as_string());
        case OpKind::kAdd: return Folded::of(l->as_int() + r->as_int());
        case OpKind::kSub: return Folded::of(l->as_int() - r->as_int());
        case OpKind::kMul: return Folded::of(l->as_int() * r->as_int());
        case OpKind::kEqual:
        case OpKind::kIdentical: {
          if (l->kind == Folded::Kind::kString &&
              r->kind == Folded::Kind::kString) {
            return Folded::of(l->s == r->s);
          }
          return Folded::of(l->as_int() == r->as_int());
        }
        case OpKind::kNotEqual:
        case OpKind::kNotIdentical: {
          if (l->kind == Folded::Kind::kString &&
              r->kind == Folded::Kind::kString) {
            return Folded::of(l->s != r->s);
          }
          return Folded::of(l->as_int() != r->as_int());
        }
        case OpKind::kLess: return Folded::of(l->as_int() < r->as_int());
        case OpKind::kGreater: return Folded::of(l->as_int() > r->as_int());
        case OpKind::kLessEqual:
          return Folded::of(l->as_int() <= r->as_int());
        case OpKind::kGreaterEqual:
          return Folded::of(l->as_int() >= r->as_int());
        case OpKind::kAnd:
          return Folded::of(l->as_bool() && r->as_bool());
        case OpKind::kOr: return Folded::of(l->as_bool() || r->as_bool());
        case OpKind::kXor:
          return Folded::of(l->as_bool() != r->as_bool());
        default: return std::nullopt;
      }
    }
  }
  return std::nullopt;
}

// --- the differential harness ----------------------------------------------

// Interprets `php` (concrete straight-line code), folds variable `var`,
// and asserts Z3 proves the translation equal to the folded value.
void expect_translation_matches(const std::string& php,
                                const std::string& var) {
  SourceManager sources;
  DiagnosticSink diags;
  const FileId id = sources.add_file("d.php", "<?php\n" + php);
  Arena arena;
  const phpast::PhpFile file =
      phpparse::parse_php(*sources.file(id), diags, arena);
  ASSERT_FALSE(diags.has_errors()) << diags.render(sources);
  const Program program = build_program({&file});
  Interpreter interp(program, diags);
  AnalysisRoot root;
  root.file = &file;
  const InterpResult result = interp.run(root);
  ASSERT_EQ(result.envs.size(), 1u) << "differential inputs must be linear";

  const Label label = result.envs[0].get_map(var);
  ASSERT_NE(label, kNoLabel) << var;
  const auto folded = fold(result.graph, label);
  ASSERT_TRUE(folded.has_value())
      << "not concretely foldable: " << to_sexpr(result.graph, label);

  smt::TermGraph terms;
  Translator trl(terms, result.graph);
  smt::Term translated;
  smt::Term concrete;
  switch (folded->kind) {
    case Folded::Kind::kBool:
      translated = trl.translate(label, Type::kBool);
      concrete = terms.bool_val(folded->b);
      break;
    case Folded::Kind::kInt:
      translated = trl.translate(label, Type::kInt);
      concrete = terms.int_val(static_cast<std::int64_t>(folded->i));
      break;
    case Folded::Kind::kString:
      translated = trl.translate(label, Type::kString);
      concrete = terms.string_val(folded->s);
      break;
  }
  const smt::Term disagreement =
      terms.app(smt::Op::kDistinct, {translated, concrete});
  smt::Checker checker;
  EXPECT_EQ(checker.check(terms.query({disagreement}).text).result,
            smt::SatResult::kUnsat)
      << php << "\n  object: " << to_sexpr(result.graph, label)
      << "\n  folded: " << folded->as_string();
}

struct Case {
  const char* name;
  const char* php;
  const char* var;
};

class Differential : public ::testing::TestWithParam<Case> {};

TEST_P(Differential, TranslationAgreesWithConcreteSemantics) {
  expect_translation_matches(GetParam().php, GetParam().var);
}

const Case kCases[] = {
    {"Concat", "$x = 'up' . 'load' . '.php';", "x"},
    {"ConcatIntCoercion", "$x = 'v' . 42;", "x"},
    {"Arith", "$x = (3 + 4) * 2 - 5;", "x"},
    {"Strlen", "$x = strlen('hello.php');", "x"},
    {"StrlenOfConcat", "$x = strlen('a' . 'bc');", "x"},
    {"SubstrTwoArg", "$x = substr('hello.php', 5);", "x"},
    {"SubstrThreeArg", "$x = substr('abcdef', 1, 3);", "x"},
    {"SubstrNegativeStart", "$x = substr('x.php', -4);", "x"},
    {"Strpos", "$x = strpos('abcdef', 'cd');", "x"},
    {"IntvalString", "$x = intval('42');", "x"},
    {"IntvalConcat", "$x = intval('4' . '2');", "x"},
    {"StrReplaceSingle", "$x = str_replace('tmp', 'www', '/tmp/up');", "x"},
    {"EqualStrings", "$x = ('php' == 'php');", "x"},
    {"NotEqualStrings", "$x = ('php' != 'png');", "x"},
    {"EqualInts", "$x = (3 + 4 == 7);", "x"},
    {"Comparison", "$x = (strlen('abc') > 2);", "x"},
    {"LogicAnd", "$x = (1 < 2 && 'a' == 'a');", "x"},
    {"LogicOr", "$x = (1 > 2 || 3 > 2);", "x"},
    {"LogicNotInt", "$x = !0;", "x"},
    {"LogicNotString", "$x = !'nonempty';", "x"},
    {"TernaryTrue", "$x = (2 > 1) ? 'yes' : 'no';", "x"},
    {"TernaryFalse", "$x = (1 > 2) ? 'yes' : 'no';", "x"},
    {"IdentityChain", "$x = strtolower(trim('abc'));", "x"},
    {"BasenameNoSlash", "$x = basename('file.php');", "x"},
    {"EmptyOfEmptyString", "$x = empty('');", "x"},
    {"EmptyOfValue", "$x = empty('x');", "x"},
    {"ChainedVariables",
     "$a = 'dir/'; $b = $a . 'name'; $x = $b . '.png';", "x"},
    {"MixedPipeline",
     "$n = 'photo.jpeg'; $x = substr($n, 0, 5) . '-' . strlen($n);", "x"},
    {"NestedCalls", "$x = strlen(substr('abcdefgh', 2, 4));", "x"},
    {"CompoundConcat", "$x = 'a'; $x .= 'b'; $x .= 'c';", "x"},
    {"SuffixPipeline",
     "$name = 'shell' . '.' . 'php'; $x = substr($name, -4);", "x"},
    {"BoolToInt", "$x = intval(3 == 3);", "x"},
};

INSTANTIATE_TEST_SUITE_P(Semantics, Differential, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace uchecker::core
