// Tests for the solver boundary and the SMT-LIB query text.
#include "smt/solver.h"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <string>
#include <vector>

#include "smt/smtlib.h"
#include "support/deadline.h"
#include "support/fault_injector.h"

namespace uchecker::smt {
namespace {

TEST(Checker, SatWithModel) {
  Checker checker;
  const SolverOutcome outcome = checker.check(
      "(declare-fun x () String)\n(assert (str.suffixof \".php\" x))\n");
  EXPECT_EQ(outcome.result, SatResult::kSat);
  ASSERT_TRUE(outcome.model.has_value());
  EXPECT_TRUE(outcome.model->assignments.contains("x"));
}

TEST(Checker, Unsat) {
  Checker checker;
  const SolverOutcome outcome = checker.check(
      "(declare-fun x () Int)\n(assert (> x 5))\n(assert (< x 3))\n");
  EXPECT_EQ(outcome.result, SatResult::kUnsat);
  EXPECT_FALSE(outcome.model.has_value());
}

TEST(Checker, ConjunctionOfConstraints) {
  Checker checker;
  const SolverOutcome outcome = checker.check(
      "(declare-fun s () String)\n(assert (str.suffixof \".php\" s))\n"
      "(assert (= (str.len s) 7))\n");
  EXPECT_EQ(outcome.result, SatResult::kSat);
}

TEST(Checker, StringTheoryOperations) {
  Checker checker;
  // concat("upload", ".php") has length 10 and ends with ".php".
  const std::string cat = "(str.++ \"upload\" \".php\")";
  EXPECT_EQ(checker.check("(assert (= (str.len " + cat + ") 10))").result,
            SatResult::kSat);
  EXPECT_EQ(checker.check("(assert (distinct (str.len " + cat + ") 10))")
                .result,
            SatResult::kUnsat);
  EXPECT_EQ(
      checker.check("(assert (not (str.suffixof \".php\" " + cat + ")))")
          .result,
      SatResult::kUnsat);
}

TEST(Checker, CountsChecks) {
  Checker checker;
  EXPECT_EQ(checker.check_count(), 0u);
  (void)checker.check("(assert true)");
  (void)checker.check("(assert false)");
  EXPECT_EQ(checker.check_count(), 2u);
}

TEST(Checker, TrivialBooleans) {
  Checker checker;
  EXPECT_EQ(checker.check("").result, SatResult::kSat);
  EXPECT_EQ(checker.check("(assert false)").result, SatResult::kUnsat);
}

TEST(Checker, MalformedQueryIsUnknownWithoutRetry) {
  // A parse error is deterministic: Z3's message comes back in `error`
  // and the escalation loop does not try again.
  Checker checker(100);
  const SolverOutcome outcome = checker.check("(assert (= undeclared 1))");
  EXPECT_EQ(outcome.result, SatResult::kUnknown);
  EXPECT_NE(outcome.error.find("unknown constant undeclared"),
            std::string::npos)
      << outcome.error;
  EXPECT_FALSE(outcome.model.has_value());
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_EQ(checker.retry_count(), 0u);
}

TEST(Model, ToStringIsStable) {
  Model m;
  m.assignments["b"] = "\"y\"";
  m.assignments["a"] = "\"x\"";
  EXPECT_EQ(m.to_string(), "a = \"x\", b = \"y\"");
}

TEST(SatResultName, AllValues) {
  EXPECT_EQ(sat_result_name(SatResult::kSat), "sat");
  EXPECT_EQ(sat_result_name(SatResult::kUnsat), "unsat");
  EXPECT_EQ(sat_result_name(SatResult::kUnknown), "unknown");
}

// ---------------------------------------------------------------------------
// Failure containment and retry escalation.

class CheckerFaults : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::instance().disarm_all(); }
};

TEST_F(CheckerFaults, ExceptionPathPopulatesErrorWithoutRetry) {
  // A permanent (non-transient) exception inside the solve attempt is
  // contained: kUnknown + error, and no escalation retry is wasted.
  FaultInjector::instance().arm("solve-attempt",
                                FaultInjector::Action::kThrow,
                                std::chrono::milliseconds{0}, 1);
  Checker checker(100);
  const SolverOutcome outcome = checker.check("");
  EXPECT_EQ(outcome.result, SatResult::kUnknown);
  EXPECT_FALSE(outcome.error.empty());
  EXPECT_FALSE(outcome.model.has_value());
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_EQ(checker.retry_count(), 0u);
}

TEST_F(CheckerFaults, TransientFailureRetriesWithEscalatedTimeouts) {
  FaultInjector::instance().arm("solve-attempt",
                                FaultInjector::Action::kThrowTransient,
                                std::chrono::milliseconds{0}, /*max_hits=*/1);
  Checker checker(100);
  const SolverOutcome outcome = checker.check("");
  // Attempt 1 failed transiently; attempt 2 ran with a doubled timeout
  // and succeeded.
  EXPECT_EQ(outcome.result, SatResult::kSat);
  EXPECT_EQ(outcome.attempts, 2u);
  ASSERT_EQ(outcome.attempt_timeouts_ms.size(), 2u);
  EXPECT_EQ(outcome.attempt_timeouts_ms[0], 100u);
  EXPECT_EQ(outcome.attempt_timeouts_ms[1], 200u);
  EXPECT_EQ(checker.retry_count(), 1u);
  EXPECT_TRUE(outcome.error.empty());
}

TEST_F(CheckerFaults, RetryBudgetExhaustsAtOneTwoFourTimes) {
  FaultInjector::instance().arm("solve-attempt",
                                FaultInjector::Action::kThrowTransient,
                                std::chrono::milliseconds{0}, -1);
  Checker checker(100);
  const SolverOutcome outcome = checker.check("");
  EXPECT_EQ(outcome.result, SatResult::kUnknown);
  EXPECT_FALSE(outcome.error.empty());
  EXPECT_EQ(outcome.attempts, 3u);  // 1 initial + 2 retries
  ASSERT_EQ(outcome.attempt_timeouts_ms.size(), 3u);
  EXPECT_EQ(outcome.attempt_timeouts_ms[0], 100u);
  EXPECT_EQ(outcome.attempt_timeouts_ms[1], 200u);
  EXPECT_EQ(outcome.attempt_timeouts_ms[2], 400u);
  EXPECT_EQ(checker.retry_count(), 2u);
}

TEST_F(CheckerFaults, EscalationRespectsCap) {
  FaultInjector::instance().arm("solve-attempt",
                                FaultInjector::Action::kThrowTransient,
                                std::chrono::milliseconds{0}, -1);
  Checker checker(Checker::kTimeoutEscalationCap);
  const SolverOutcome outcome = checker.check("");
  ASSERT_EQ(outcome.attempt_timeouts_ms.size(), 3u);
  for (const unsigned t : outcome.attempt_timeouts_ms) {
    EXPECT_EQ(t, Checker::kTimeoutEscalationCap);
  }
}

TEST(CheckerDeadline, ExpiredDeadlineShortCircuits) {
  Checker checker;
  checker.set_deadline(Deadline::after(std::chrono::milliseconds{0}));
  const SolverOutcome outcome = checker.check("");
  EXPECT_EQ(outcome.result, SatResult::kUnknown);
  EXPECT_TRUE(outcome.deadline_exceeded);
  EXPECT_FALSE(outcome.error.empty());
  EXPECT_FALSE(outcome.model.has_value());
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_EQ(checker.retry_count(), 0u);  // deadline unknowns never retry
}

TEST(CheckerDeadline, RemainingTimeClampsAttemptTimeout) {
  Checker checker(5000);
  checker.set_deadline(Deadline::after(std::chrono::milliseconds{50}));
  const SolverOutcome outcome = checker.check("");
  EXPECT_EQ(outcome.result, SatResult::kSat);
  ASSERT_EQ(outcome.attempt_timeouts_ms.size(), 1u);
  EXPECT_LE(outcome.attempt_timeouts_ms[0], 50u);
  EXPECT_GE(outcome.attempt_timeouts_ms[0], 1u);
}

TEST(CheckerDeadline, CancellationReportsCancelled) {
  CancellationSource cancel;
  Deadline deadline;  // unlimited, but carries the token
  deadline.attach(cancel.token());
  Checker checker;
  checker.set_deadline(deadline);
  cancel.cancel();
  const SolverOutcome outcome = checker.check("");
  EXPECT_EQ(outcome.result, SatResult::kUnknown);
  EXPECT_TRUE(outcome.deadline_exceeded);
  EXPECT_NE(outcome.error.find("cancelled"), std::string::npos);
}

TEST(Checker, GenuineTimeoutPopulatesError) {
  // A word equation whose unsatisfiability needs a parity argument the
  // sequence solver searches for unboundedly: x.x = y.y."a" with long
  // minimum lengths. A 20 ms budget cancels the search; the cancellation
  // must surface as a retried kUnknown with a reason, never a hang.
  Checker checker(20);
  const SolverOutcome outcome = checker.check(
      "(declare-fun x () String)\n(declare-fun y () String)\n"
      "(assert (= (str.++ x x) (str.++ (str.++ y y) \"a\")))\n"
      "(assert (> (str.len x) 2000))\n(assert (> (str.len y) 1000))\n");
  if (outcome.result == SatResult::kUnknown) {
    EXPECT_FALSE(outcome.error.empty());
    EXPECT_GE(outcome.attempts, 1u);
    EXPECT_EQ(outcome.attempts, outcome.attempt_timeouts_ms.size());
  }
}

TEST(Checker, IntStringConversions) {
  Checker checker;
  EXPECT_EQ(checker.check("(assert (= (str.from_int 42) \"42\"))").result,
            SatResult::kSat);
  EXPECT_EQ(checker.check("(assert (= (str.to_int \"17\") 17))").result,
            SatResult::kSat);
}

// ---------------------------------------------------------------------------
// Query text (smtlib.h).

TEST(TermGraph, DeclarationsInRightToLeftPreorder) {
  // Right-to-left preorder over the assertions, in assertion order.
  TermGraph g;
  const Term ext = g.constant("s_ext", Sort::kString);
  const Term size = g.constant("s_size", Sort::kInt);
  const Term isset = g.constant("u_isset_1", Sort::kBool);
  const Term axiom = g.app(
      Op::kNot, {g.app(Op::kContains, {ext, g.string_val(".")})});
  const Term reach =
      g.app(Op::kAnd, {g.app(Op::kGt, {size, g.int_val(2097152)}), isset});
  EXPECT_EQ(g.query({axiom, reach}),
            "(declare-fun s_ext () String)\n"
            "(declare-fun u_isset_1 () Bool)\n"
            "(declare-fun s_size () Int)\n"
            "(assert (not (str.contains s_ext \".\")))\n"
            "(assert (and (> s_size 2097152) u_isset_1))\n");
}

TEST(TermGraph, SharedSubtermIsPrintedOnceThroughLet) {
  TermGraph g;
  Term t = g.constant("x", Sort::kString);
  // A chain of self-concatenations doubles in tree size at every step;
  // as a DAG it stays linear.
  for (int i = 0; i < 40; ++i) t = g.app(Op::kConcat, {t, t});
  const std::string text = g.print(g.app(Op::kEq, {t, t}));
  EXPECT_LT(text.size(), 4000u);
  EXPECT_EQ(text.rfind("(let ((?x", 0), 0u);

  TermGraph h;
  const Term s = h.constant("s", Sort::kString);
  const Term len = h.app(Op::kLength, {s});
  EXPECT_EQ(h.print(h.app(Op::kAdd, {len, len})),
            "(let ((?x1 (str.len s))) (+ ?x1 ?x1))");
  // A term used once stays inline.
  EXPECT_EQ(h.print(h.app(Op::kNeg, {len})), "(- (str.len s))");
}

TEST(TermGraph, LiteralsPrintTheirBytes) {
  TermGraph g;
  EXPECT_EQ(g.print(g.int_val(-5)), "(- 5)");
  EXPECT_EQ(g.print(g.int_val(std::numeric_limits<std::int64_t>::min())),
            "(- 9223372036854775808)");
  EXPECT_EQ(g.print(g.bool_val(false)), "false");
  // Printable ASCII stays and a quote doubles; every other byte, the
  // backslash and DEL included, is one \u{h} escape.
  EXPECT_EQ(g.print(g.string_val("a\"b\x01\x7f\xe9\\")),
            "\"a\"\"b\\u{1}\\u{7f}\\u{e9}\\u{5c}\"");
  // Escape-like text is bytes, and a NUL does not end the literal.
  EXPECT_EQ(g.print(g.string_val("\\u{41}")), "\"\\u{5c}u{41}\"");
  EXPECT_EQ(g.print(g.string_val(std::string("a\0b", 3))), "\"a\\u{0}b\"");
}

TEST(TermGraph, SymbolsPrintBareOnlyWhenSimple) {
  TermGraph g;
  EXPECT_EQ(g.print(g.constant("u_a-b.c?_1", Sort::kInt)), "u_a-b.c?_1");
  EXPECT_EQ(g.print(g.constant("s_a.b'c", Sort::kInt)), "|s_a.b'c|");
  EXPECT_EQ(g.print(g.constant("1x", Sort::kInt)), "|1x|");
  EXPECT_EQ(g.print(g.constant("s_a b|c\\d", Sort::kInt)),
            "|s_a b\\|c\\\\d|");
  EXPECT_EQ(g.print(g.constant("s_files_attac\xa0ment_ext", Sort::kInt)),
            "|s_files_attac\xa0ment_ext|");
}

TEST(TermGraph, DistinctAndTrueAssertionsPrintAsThemselves) {
  TermGraph g;
  const Term a = g.constant("a", Sort::kBool);
  const Term b = g.constant("b", Sort::kBool);
  EXPECT_EQ(g.print(g.app(Op::kDistinct, {a, b})), "(distinct a b)");
  EXPECT_EQ(g.query({g.bool_val(true), a, g.bool_val(true)}),
            "(declare-fun a () Bool)\n(assert true)\n(assert a)\n"
            "(assert true)\n");
}

TEST(TermGraph, TwoSortsOfOneSymbolAreTwoDeclarations) {
  // Z3 rejects the ambiguous reference when it parses the query, which
  // the checker reports as kUnknown.
  TermGraph g;
  const Term as_int = g.constant("v", Sort::kInt);
  const Term as_str = g.constant("v", Sort::kString);
  EXPECT_EQ(g.constant("v", Sort::kInt).id, as_int.id);
  const std::string query = g.query(
      {g.app(Op::kEq, {as_int, g.int_val(1)}),
       g.app(Op::kEq, {as_str, g.string_val("1")})});
  EXPECT_EQ(query.find("(declare-fun v () Int)"), 0u);
  Checker checker;
  EXPECT_EQ(checker.check(query).result, SatResult::kUnknown);
}

// ---------------------------------------------------------------------------
// The byte encoding in both directions: printed into a query, solved,
// and read back from the model.

TEST(StringEncoding, DecodeValueInvertsTheLiteral) {
  EXPECT_EQ(decode_value("\"php\""), "php");
  EXPECT_EQ(decode_value("\"a\"\"b\""), "a\"b");
  EXPECT_EQ(decode_value("\"\\u{2e}\\u{0}\\u{FF}\""), std::string(".\0\xff", 3));
  // Text the printer never writes stays as it is: a \x escape, and Z3's
  // spelling of a character above 0xff.
  EXPECT_EQ(decode_value("\"a\\x2eb\""), "a\\x2eb");
  EXPECT_EQ(decode_value("\"\\u{100}\\u{}\""), "\\u{100}\\u{}");
  // Non-string values pass through unchanged.
  EXPECT_EQ(decode_value("42"), "42");
  EXPECT_EQ(decode_value("true"), "true");

  std::string all_bytes;
  for (int b = 0; b < 256; ++b) all_bytes += static_cast<char>(b);
  EXPECT_EQ(decode_value(string_literal(all_bytes)), all_bytes);
}

TEST(StringEncoding, EveryByteRoundTripsThroughTheSolver) {
  // (= x <literal>) has one model; it must decode to exactly the bytes
  // the literal was printed from.
  std::vector<std::string> values;
  for (int b = 0; b < 256; ++b) values.emplace_back(1, static_cast<char>(b));
  values.emplace_back("\\u{41}");  // PHP '\u{41}': six bytes, not "A"
  Checker checker;
  for (const std::string& value : values) {
    TermGraph g;
    const std::string query = g.query(
        {g.app(Op::kEq, {g.constant("x", Sort::kString), g.string_val(value)})});
    const SolverOutcome outcome = checker.check(query);
    ASSERT_EQ(outcome.result, SatResult::kSat) << query << outcome.error;
    ASSERT_TRUE(outcome.model->assignments.contains("x")) << query;
    EXPECT_EQ(decode_value(outcome.model->assignments.at("x")), value)
        << query;
  }
}

TEST(StringEncoding, CharacterAboveByteRangeKeepsZ3Spelling) {
  Checker checker;
  const SolverOutcome outcome = checker.check(
      "(declare-fun x () String)\n(assert (= x \"a\\u{100}\"))\n");
  ASSERT_EQ(outcome.result, SatResult::kSat) << outcome.error;
  EXPECT_EQ(outcome.model->assignments.at("x"), "\"a\\u{100}\"");
}

TEST(StringEncoding, QuotedSymbolsComeBackUnderTheirNames) {
  Checker checker;
  for (const std::string name :
       {"s_a.b'c", "s_a b|c\\d", "1x", "s_files_attac\xa0ment_ext"}) {
    TermGraph g;
    const SolverOutcome outcome = checker.check(g.query(
        {g.app(Op::kEq, {g.constant(name, Sort::kInt), g.int_val(1)})}));
    ASSERT_EQ(outcome.result, SatResult::kSat) << name << outcome.error;
    EXPECT_EQ(outcome.model->to_string(), name + " = 1");
  }
}

}  // namespace
}  // namespace uchecker::smt
