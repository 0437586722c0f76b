// Tests for the PHP -> SMT-LIB translation rules of paper Table II. Each
// rule pins the printed term and its sort, and is verified
// *semantically*: Z3 decides a characterizing query built from it.
#include "core/translate/translate.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>

#include "smt/solver.h"

namespace uchecker::core {
namespace {

using smt::Op;
using smt::SatResult;
using smt::Term;

class TranslateTest : public ::testing::Test {
 protected:
  // The sort and the printed term, e.g. "String (str.++ a b)".
  [[nodiscard]] std::string text(Term t) const {
    return std::string(smt::sort_name(terms_.sort(t))) + " " +
           terms_.print(t);
  }
  [[nodiscard]] SatResult check(std::initializer_list<Term> assertions) {
    return checker_.check(terms_.query(assertions).text).result;
  }
  [[nodiscard]] Term eq(Term a, Term b) { return terms_.app(Op::kEq, {a, b}); }
  [[nodiscard]] Term ne(Term a, Term b) {
    return terms_.app(Op::kDistinct, {a, b});
  }
  [[nodiscard]] Term str(const char* s) { return terms_.string_val(s); }
  [[nodiscard]] Term num(std::int64_t v) { return terms_.int_val(v); }

  smt::Checker checker_;
  smt::TermGraph terms_;
  HeapGraph graph_;
};

// --- constants and symbols (Table II rows 1-2) ---------------------------------

TEST_F(TranslateTest, ConcreteStringTranslatesToStringVal) {
  const Label l = graph_.add_concrete(Value(std::string("abc")));
  Translator trl(terms_, graph_);
  const Term e = trl.translate(l, Type::kString);
  EXPECT_EQ(text(e), "String \"abc\"");
  EXPECT_EQ(check({eq(e, str("abc"))}), SatResult::kSat);
  EXPECT_EQ(check({ne(e, str("abc"))}), SatResult::kUnsat);
}

TEST_F(TranslateTest, ConcreteIntAndBool) {
  const Label i = graph_.add_concrete(Value(std::int64_t{42}));
  const Label b = graph_.add_concrete(Value(true));
  Translator trl(terms_, graph_);
  EXPECT_EQ(text(trl.translate(i, Type::kInt)), "Int 42");
  EXPECT_EQ(text(trl.translate(b, Type::kBool)), "Bool true");
  EXPECT_EQ(check({terms_.app(Op::kNot, {trl.translate(b, Type::kBool)})}),
            SatResult::kUnsat);
}

TEST_F(TranslateTest, SymbolKeepsItsName) {
  const Label s = graph_.add_symbol("s_ext", Type::kString);
  Translator trl(terms_, graph_);
  EXPECT_EQ(text(trl.translate(s, Type::kString)), "String s_ext");
}

TEST_F(TranslateTest, SameObjectTranslatesToSameTerm) {
  const Label s = graph_.add_symbol("shared", Type::kUnknown);
  Translator trl(terms_, graph_);
  const Term a = trl.translate(s, Type::kString);
  const Term b = trl.translate(s, Type::kString);
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(text(a), "String shared");
}

TEST_F(TranslateTest, UnknownSymbolAtTwoSortsIsDeclaredOnce) {
  // `$n > 3` first uses the symbol as Int; `$n == "5"` then needs it as
  // String. The second use coerces the first declaration.
  const Label n = graph_.add_symbol("s_param_n_1", Type::kUnknown);
  Translator trl(terms_, graph_);
  const Term as_int = trl.translate(n, Type::kInt);
  const Term as_str = trl.translate(n, Type::kString);
  EXPECT_EQ(text(as_int), "Int s_param_n_1");
  EXPECT_EQ(text(as_str), "String (str.from_int s_param_n_1)");
  const std::string query = terms_.named_query(
      {terms_.app(Op::kGt, {as_int, num(3)}), eq(as_str, str("5"))});
  std::size_t declarations = 0;
  for (std::size_t at = query.find("(declare-fun s_param_n_1 ");
       at != std::string::npos;
       at = query.find("(declare-fun s_param_n_1 ", at + 1)) {
    ++declarations;
  }
  EXPECT_EQ(declarations, 1u) << query;
  EXPECT_EQ(checker_.check(query).result, SatResult::kSat) << query;
}

// --- string concat (Table II row 3) ---------------------------------------------

TEST_F(TranslateTest, ConcatIsStrConcat) {
  const Label a = graph_.add_symbol("a", Type::kString);
  const Label dot = graph_.add_concrete(Value(std::string(".")));
  const Label ext = graph_.add_symbol("e", Type::kString);
  const Label name = graph_.add_op(OpKind::kConcat, Type::kString,
                                   {graph_.add_op(OpKind::kConcat, Type::kString,
                                                  {a, dot}),
                                    ext});
  Translator trl(terms_, graph_);
  const Term n = trl.translate(name, Type::kString);
  EXPECT_EQ(text(n), "String (str.++ (str.++ a \".\") e)");
  // Can end with ".php":
  const Term php_suffix = terms_.app(Op::kSuffixOf, {str(".php"), n});
  EXPECT_EQ(check({php_suffix}), SatResult::kSat);
  // If ext is "jpg" it can NOT end with ".php" (given ext has no dot —
  // here ext is literally constrained):
  EXPECT_EQ(check({php_suffix, eq(trl.translate(ext, Type::kString),
                                  str("jpg"))}),
            SatResult::kUnsat);
}

TEST_F(TranslateTest, ConcatCoercesIntOperand) {
  // time() . '.php' — int func result must coerce to string.
  const Label t = graph_.add_func("time", Type::kInt, {});
  const Label suffix = graph_.add_concrete(Value(std::string(".php")));
  const Label cat = graph_.add_op(OpKind::kConcat, Type::kString, {t, suffix});
  Translator trl(terms_, graph_);
  const Term e = trl.translate(cat, Type::kString);
  EXPECT_EQ(text(e), "String (str.++ (str.from_int u_time_1) \".php\")");
  EXPECT_EQ(check({terms_.app(Op::kSuffixOf, {str(".php"), e})}),
            SatResult::kSat);
}

// --- str_replace (row 4), intval (row 5), strpos (row 6), strlen (row 7) -------

TEST_F(TranslateTest, StrReplaceParameterOrder) {
  // str_replace('a', 'b', 'banana'): PHP arg order (search, replace,
  // subject) maps to (str.replace subject search replace).
  const Label search = graph_.add_concrete(Value(std::string("a")));
  const Label repl = graph_.add_concrete(Value(std::string("b")));
  const Label subject = graph_.add_concrete(Value(std::string("banana")));
  const Label call = graph_.add_func("str_replace", Type::kString,
                                     {search, repl, subject});
  Translator trl(terms_, graph_);
  const Term e = trl.translate(call, Type::kString);
  EXPECT_EQ(text(e), "String (str.replace \"banana\" \"a\" \"b\")");
  // str.replace replaces the FIRST occurrence: "bbnana".
  EXPECT_EQ(check({eq(e, str("bbnana"))}), SatResult::kSat);
}

TEST_F(TranslateTest, IntvalOnString) {
  const Label s = graph_.add_concrete(Value(std::string("42")));
  const Label call = graph_.add_func("intval", Type::kInt, {s});
  Translator trl(terms_, graph_);
  const Term e = trl.translate(call, Type::kInt);
  EXPECT_EQ(text(e), "Int (str.to_int \"42\")");
  EXPECT_EQ(check({eq(e, num(42))}), SatResult::kSat);
  EXPECT_EQ(check({ne(e, num(42))}), SatResult::kUnsat);
}

TEST_F(TranslateTest, StrposIsIndexof) {
  const Label hay = graph_.add_concrete(Value(std::string("abcdef")));
  const Label needle = graph_.add_concrete(Value(std::string("cd")));
  const Label call = graph_.add_func("strpos", Type::kInt, {hay, needle});
  Translator trl(terms_, graph_);
  const Term e = trl.translate(call, Type::kInt);
  EXPECT_EQ(text(e), "Int (str.indexof \"abcdef\" \"cd\" 0)");
  EXPECT_EQ(check({eq(e, num(2))}), SatResult::kSat);
}

TEST_F(TranslateTest, StrposIdenticalToFalseMeansNotFound) {
  // `strpos($h, "\0") === false` is PHP's "not found": str.indexof's -1,
  // not the Int 0 that coercing false would give ("found at 0").
  const Label hay = graph_.add_symbol("h", Type::kString);
  const Label needle = graph_.add_concrete(Value(std::string(1, '\0')));
  const Label call = graph_.add_func("strpos", Type::kInt, {hay, needle});
  const Label no = graph_.add_concrete(Value(false));
  const Label absent =
      graph_.add_op(OpKind::kIdentical, Type::kBool, {call, no});
  const Label present =
      graph_.add_op(OpKind::kNotIdentical, Type::kBool, {no, call});
  Translator trl(terms_, graph_);
  const Term a = trl.translate(absent, Type::kBool);
  const Term p = trl.translate(present, Type::kBool);
  EXPECT_EQ(text(a), "Bool (= (str.indexof h \"\\u{0}\" 0) (- 1))");
  EXPECT_EQ(text(p), "Bool (not (= (str.indexof h \"\\u{0}\" 0) (- 1)))");
  const Term h = trl.translate(hay, Type::kString);
  // A name that starts with NUL has the needle at 0: "found".
  const Term nul_first = eq(h, terms_.string_val(std::string("\0x", 2)));
  EXPECT_EQ(check({a, nul_first}), SatResult::kUnsat);
  EXPECT_EQ(check({p, nul_first}), SatResult::kSat);
  EXPECT_EQ(check({a, eq(h, str("a.php"))}), SatResult::kSat);
  // Loose equality keeps Table II's coercion of false to 0.
  const Label loose = graph_.add_op(OpKind::kEqual, Type::kBool, {call, no});
  EXPECT_EQ(text(trl.translate(loose, Type::kBool)),
            "Bool (= (str.indexof h \"\\u{0}\" 0) (ite false 1 0))");
}

TEST_F(TranslateTest, StrlenIsStrLen) {
  const Label s = graph_.add_concrete(Value(std::string("hello")));
  const Label call = graph_.add_func("strlen", Type::kInt, {s});
  Translator trl(terms_, graph_);
  const Term e = trl.translate(call, Type::kInt);
  EXPECT_EQ(text(e), "Int (str.len \"hello\")");
  EXPECT_EQ(check({eq(e, num(5))}), SatResult::kSat);
}

// --- logical not (row 8) --------------------------------------------------------

TEST_F(TranslateTest, NotOnBool) {
  const Label b = graph_.add_symbol("b", Type::kBool);
  const Label n = graph_.add_op(OpKind::kNot, Type::kBool, {b});
  Translator trl(terms_, graph_);
  const Term e = trl.translate(n, Type::kBool);
  EXPECT_EQ(text(e), "Bool (not b)");
  EXPECT_EQ(check({e, trl.translate(b, Type::kBool)}), SatResult::kUnsat);
}

TEST_F(TranslateTest, NotOnIntIsZeroTest) {
  const Label i = graph_.add_symbol("i", Type::kInt);
  const Label n = graph_.add_op(OpKind::kNot, Type::kBool, {i});
  Translator trl(terms_, graph_);
  const Term e = trl.translate(n, Type::kBool);
  EXPECT_EQ(text(e), "Bool (not (distinct i 0))");
  const Term iv = trl.translate(i, Type::kInt);
  EXPECT_EQ(check({e, eq(iv, num(5))}), SatResult::kUnsat);
  EXPECT_EQ(check({e, eq(iv, num(0))}), SatResult::kSat);
}

TEST_F(TranslateTest, NotOnStringIsEmptyTest) {
  const Label s = graph_.add_symbol("s", Type::kString);
  const Label n = graph_.add_op(OpKind::kNot, Type::kBool, {s});
  Translator trl(terms_, graph_);
  const Term e = trl.translate(n, Type::kBool);
  EXPECT_EQ(text(e), "Bool (not (> (str.len s) 0))");
  EXPECT_EQ(check({e, eq(trl.translate(s, Type::kString), str("x"))}),
            SatResult::kUnsat);
}

// --- logical AND (row 9) with mixed types ---------------------------------------

TEST_F(TranslateTest, AndMixedIntBool) {
  const Label i = graph_.add_symbol("i", Type::kInt);
  const Label b = graph_.add_symbol("b", Type::kBool);
  const Label a = graph_.add_op(OpKind::kAnd, Type::kBool, {i, b});
  Translator trl(terms_, graph_);
  const Term e = trl.translate(a, Type::kBool);
  EXPECT_EQ(text(e), "Bool (and (distinct i 0) b)");
  // and(i, b) with i == 0 is unsatisfiable.
  EXPECT_EQ(check({e, eq(trl.translate(i, Type::kInt), num(0))}),
            SatResult::kUnsat);
}

TEST_F(TranslateTest, AndMixedStringBool) {
  const Label s = graph_.add_symbol("s", Type::kString);
  const Label b = graph_.add_symbol("b", Type::kBool);
  const Label a = graph_.add_op(OpKind::kAnd, Type::kBool, {s, b});
  Translator trl(terms_, graph_);
  const Term e = trl.translate(a, Type::kBool);
  EXPECT_EQ(text(e), "Bool (and (> (str.len s) 0) b)");
  EXPECT_EQ(check({e, eq(trl.translate(s, Type::kString), str(""))}),
            SatResult::kUnsat);
}

// --- logical equal (row 10) ------------------------------------------------------

TEST_F(TranslateTest, EqualSameTypes) {
  const Label a = graph_.add_symbol("a", Type::kString);
  const Label lit = graph_.add_concrete(Value(std::string("php")));
  const Label eqn = graph_.add_op(OpKind::kEqual, Type::kBool, {a, lit});
  Translator trl(terms_, graph_);
  const Term e = trl.translate(eqn, Type::kBool);
  EXPECT_EQ(text(e), "Bool (= a \"php\")");
  EXPECT_EQ(check({e, eq(trl.translate(a, Type::kString), str("jpg"))}),
            SatResult::kUnsat);
}

TEST_F(TranslateTest, EqualUnknownAdoptsSiblingType) {
  const Label unk = graph_.add_symbol("u", Type::kUnknown);
  const Label lit = graph_.add_concrete(Value(std::string("zip")));
  const Label eqn = graph_.add_op(OpKind::kEqual, Type::kBool, {unk, lit});
  Translator trl(terms_, graph_);
  const Term e = trl.translate(eqn, Type::kBool);
  EXPECT_EQ(text(e), "Bool (= u \"zip\")");
  EXPECT_EQ(check({e}), SatResult::kSat);
}

TEST_F(TranslateTest, NotEqualIsNegation) {
  const Label a = graph_.add_symbol("a", Type::kInt);
  const Label lit = graph_.add_concrete(Value(std::int64_t{3}));
  const Label neq = graph_.add_op(OpKind::kNotEqual, Type::kBool, {a, lit});
  Translator trl(terms_, graph_);
  const Term e = trl.translate(neq, Type::kBool);
  EXPECT_EQ(text(e), "Bool (not (= a 3))");
  EXPECT_EQ(check({e, eq(trl.translate(a, Type::kInt), num(3))}),
            SatResult::kUnsat);
}

// --- substring (rows 12-13) -------------------------------------------------------

TEST_F(TranslateTest, SubstrTwoArg) {
  const Label s = graph_.add_concrete(Value(std::string("hello.php")));
  const Label start = graph_.add_concrete(Value(std::int64_t{5}));
  const Label call = graph_.add_func("substr", Type::kString, {s, start});
  Translator trl(terms_, graph_);
  const Term e = trl.translate(call, Type::kString);
  EXPECT_EQ(text(e),
            "String (str.substr \"hello.php\" (ite (< 5 0) (+ (str.len "
            "\"hello.php\") 5) 5) (str.len \"hello.php\"))");
  EXPECT_EQ(check({eq(e, str(".php"))}), SatResult::kSat);
}

TEST_F(TranslateTest, SubstrNegativeStartCountsFromEnd) {
  const Label s = graph_.add_concrete(Value(std::string("x.php")));
  const Label start = graph_.add_concrete(Value(std::int64_t{-4}));
  const Label call = graph_.add_func("substr", Type::kString, {s, start});
  Translator trl(terms_, graph_);
  const Term e = trl.translate(call, Type::kString);
  EXPECT_EQ(text(e),
            "String (str.substr \"x.php\" (ite (< (- 4) 0) (+ (str.len "
            "\"x.php\") (- 4)) (- 4)) (str.len \"x.php\"))");
  EXPECT_EQ(check({eq(e, str(".php"))}), SatResult::kSat);
  EXPECT_EQ(check({ne(e, str(".php"))}), SatResult::kUnsat);
}

TEST_F(TranslateTest, SubstrThreeArg) {
  const Label s = graph_.add_concrete(Value(std::string("abcdef")));
  const Label start = graph_.add_concrete(Value(std::int64_t{1}));
  const Label len = graph_.add_concrete(Value(std::int64_t{3}));
  const Label call = graph_.add_func("substr", Type::kString, {s, start, len});
  Translator trl(terms_, graph_);
  const Term e = trl.translate(call, Type::kString);
  EXPECT_EQ(text(e),
            "String (str.substr \"abcdef\" (ite (< 1 0) (+ (str.len "
            "\"abcdef\") 1) 1) (ite (< 3 0) (+ (str.len \"abcdef\") 3) 3))");
  EXPECT_EQ(check({eq(e, str("bcd"))}), SatResult::kSat);
}

// --- identity builtins and basename (row 15) ---------------------------------------

TEST_F(TranslateTest, StrtolowerIsIdentity) {
  const Label s = graph_.add_symbol("s", Type::kString);
  const Label call = graph_.add_func("strtolower", Type::kString, {s});
  Translator trl(terms_, graph_);
  const Term e = trl.translate(call, Type::kString);
  EXPECT_EQ(text(e), "String s");
  EXPECT_EQ(e.id, trl.translate(s, Type::kString).id);
}

TEST_F(TranslateTest, BasenameIsIdentityOnSymbolicName) {
  const Label s = graph_.add_symbol("name", Type::kString);
  const Label call = graph_.add_func("basename", Type::kString, {s});
  Translator trl(terms_, graph_);
  const Term e = trl.translate(call, Type::kString);
  EXPECT_EQ(text(e), "String name");
  EXPECT_EQ(e.id, trl.translate(s, Type::kString).id);
}

// --- exception rule: unknowns become fresh symbols ----------------------------------

TEST_F(TranslateTest, UnknownFuncBecomesFreshSymbol) {
  const Label call = graph_.add_func("wp_upload_dir", Type::kUnknown, {});
  Translator trl(terms_, graph_);
  const std::size_t before = trl.fallback_count();
  const Term e = trl.translate(call, Type::kString);
  EXPECT_GT(trl.fallback_count(), before);
  EXPECT_EQ(text(e), "String u_wp_upload_dir_1");
  EXPECT_EQ(check({eq(e, str("anything"))}), SatResult::kSat);
}

TEST_F(TranslateTest, ArrayAccessFallbackIsConsistent) {
  const Label arr = graph_.add_symbol("arr", Type::kArray);
  const Label idx = graph_.add_concrete(Value(std::string("k")));
  const Label access = graph_.add_op(OpKind::kArrayAccess, Type::kUnknown,
                                     {arr, idx});
  Translator trl(terms_, graph_);
  // Same node translated twice denotes the same value.
  const Term e = trl.translate(access, Type::kString);
  EXPECT_EQ(text(e), "String u_array_access_1");
  EXPECT_EQ(e.id, trl.translate(access, Type::kString).id);
}

// --- ternary and truthiness ----------------------------------------------------------

TEST_F(TranslateTest, TernaryIsIte) {
  const Label c = graph_.add_symbol("c", Type::kBool);
  const Label a = graph_.add_concrete(Value(std::string("A")));
  const Label b = graph_.add_concrete(Value(std::string("B")));
  const Label t = graph_.add_op(OpKind::kTernary, Type::kString, {c, a, b});
  Translator trl(terms_, graph_);
  const Term e = trl.translate(t, Type::kString);
  EXPECT_EQ(text(e), "String (ite c \"A\" \"B\")");
  EXPECT_EQ(check({eq(e, str("A")),
                   terms_.app(Op::kNot, {trl.translate(c, Type::kBool)})}),
            SatResult::kUnsat);
}

TEST_F(TranslateTest, TruthyOfConcreteValues) {
  Translator trl(terms_, graph_);
  const Term zero = trl.truthy(graph_.add_concrete(Value(std::int64_t{0})));
  const Term seven = trl.truthy(graph_.add_concrete(Value(std::int64_t{7})));
  const Term empty = trl.truthy(graph_.add_concrete(Value(std::string(""))));
  const Term x = trl.truthy(graph_.add_concrete(Value(std::string("x"))));
  EXPECT_EQ(text(zero), "Bool (distinct 0 0)");
  EXPECT_EQ(text(seven), "Bool (distinct 7 0)");
  EXPECT_EQ(text(empty), "Bool (> (str.len \"\") 0)");
  EXPECT_EQ(text(x), "Bool (> (str.len \"x\") 0)");
  EXPECT_EQ(check({zero}), SatResult::kUnsat);
  EXPECT_EQ(check({seven}), SatResult::kSat);
  EXPECT_EQ(check({empty}), SatResult::kUnsat);
  EXPECT_EQ(check({x}), SatResult::kSat);
}

TEST_F(TranslateTest, EmptyFuncIsNegatedTruthiness) {
  const Label s = graph_.add_symbol("s", Type::kString);
  const Label call = graph_.add_func("empty", Type::kBool, {s});
  Translator trl(terms_, graph_);
  const Term e = trl.translate(call, Type::kBool);
  EXPECT_EQ(text(e), "Bool (not (> (str.len s) 0))");
  EXPECT_EQ(check({e, eq(trl.translate(s, Type::kString), str("full"))}),
            SatResult::kUnsat);
}

// --- arithmetic guards ------------------------------------------------------------

TEST_F(TranslateTest, DivisionByZeroGuarded) {
  const Label a = graph_.add_symbol("a", Type::kInt);
  const Label zero = graph_.add_concrete(Value(std::int64_t{0}));
  const Label div = graph_.add_op(OpKind::kDiv, Type::kInt, {a, zero});
  Translator trl(terms_, graph_);
  const Term e = trl.translate(div, Type::kInt);
  EXPECT_EQ(text(e), "Int (div a (ite (= 0 0) 1 0))");
  // Guarded denominator -> well-defined term.
  EXPECT_EQ(check({eq(e, trl.translate(a, Type::kInt))}), SatResult::kSat);
}

TEST_F(TranslateTest, ComparisonOnInts) {
  const Label a = graph_.add_symbol("a", Type::kInt);
  const Label five = graph_.add_concrete(Value(std::int64_t{5}));
  const Label gt = graph_.add_op(OpKind::kGreater, Type::kBool, {a, five});
  Translator trl(terms_, graph_);
  const Term e = trl.translate(gt, Type::kBool);
  EXPECT_EQ(text(e), "Bool (> a 5)");
  EXPECT_EQ(check({e, eq(trl.translate(a, Type::kInt), num(3))}),
            SatResult::kUnsat);
}

}  // namespace
}  // namespace uchecker::core
