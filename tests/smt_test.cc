// Tests for the solver boundary and the SMT-LIB query text.
#include "smt/solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <map>
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
  // Positive cubes never sum to a cube (Fermat, n = 3), and nonlinear
  // integer arithmetic cannot show it: every attempt runs to its budget.
  // The solver reports such a stop as arithmetic incompleteness, not as
  // a timeout, so this pins that an attempt which used its whole budget
  // is retried at 1x, 2x and 4x, and that each attempt returns.
  Checker checker(20);
  const SolverOutcome outcome = checker.check(
      "(declare-fun x () Int)\n(declare-fun y () Int)\n"
      "(declare-fun z () Int)\n"
      "(assert (> x 0))\n(assert (> y 0))\n(assert (> z 0))\n"
      "(assert (= (+ (* x x x) (* y y y)) (* z z z)))\n");
  EXPECT_EQ(outcome.result, SatResult::kUnknown);
  EXPECT_FALSE(outcome.error.empty());
  EXPECT_FALSE(outcome.model.has_value());
  EXPECT_FALSE(outcome.deadline_exceeded);
  EXPECT_EQ(outcome.attempts, 3u);
  EXPECT_EQ(outcome.attempt_timeouts_ms, (std::vector<unsigned>{20, 40, 80}));
  EXPECT_EQ(checker.retry_count(), 2u);
}

TEST(Checker, EarlyIncompleteUnknownIsNotRetried) {
  // The solver gives up on 2^x = 8 at once, with the same "incomplete"
  // reason a stopped timer gives. Returned well inside its budget, the
  // unknown is deterministic and a larger budget would not change it.
  Checker checker(5000);
  const SolverOutcome outcome =
      checker.check("(declare-fun x () Int)\n(assert (= (^ 2 x) 8))\n");
  EXPECT_EQ(outcome.result, SatResult::kUnknown);
  EXPECT_NE(outcome.error.find("incomplete"), std::string::npos)
      << outcome.error;
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_EQ(outcome.attempt_timeouts_ms, (std::vector<unsigned>{5000}));
  EXPECT_EQ(checker.retry_count(), 0u);
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
  EXPECT_EQ(g.named_query({axiom, reach}),
            "(declare-fun s_ext () String)\n"
            "(declare-fun u_isset_1 () Bool)\n"
            "(declare-fun s_size () Int)\n"
            "(assert (not (str.contains s_ext \".\")))\n"
            "(assert (and (> s_size 2097152) u_isset_1))\n");
  // The canonical form renames the constants in that order.
  const Query q = g.query({axiom, reach});
  EXPECT_EQ(q.text,
            "(declare-fun c0 () String)\n"
            "(declare-fun c1 () Bool)\n"
            "(declare-fun c2 () Int)\n"
            "(assert (not (str.contains c0 \".\")))\n"
            "(assert (and (> c2 2097152) c1))\n");
  EXPECT_EQ(q.symbols,
            (std::vector<std::string>{"s_ext", "u_isset_1", "s_size"}));
  EXPECT_EQ(q.own_names({{"c0", "\"php\""}, {"c2", "3"}, {"z", "1"}}),
            (std::map<std::string, std::string>{
                {"s_ext", "\"php\""}, {"s_size", "3"}, {"z", "1"}}));
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
            "(let ((?x0 (str.len s))) (+ ?x0 ?x0))");
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
  EXPECT_EQ(g.named_query({g.bool_val(true), a, g.bool_val(true)}),
            "(declare-fun a () Bool)\n(assert true)\n(assert a)\n"
            "(assert true)\n");
}

TEST(TermGraph, TwoSortsOfOneSymbolAreTwoDeclarations) {
  // Z3 rejects the ambiguous reference when it parses the query, which
  // the checker reports as kUnknown. Renaming is by name, so the
  // canonical form keeps the ambiguity.
  TermGraph g;
  const Term as_int = g.constant("v", Sort::kInt);
  const Term as_str = g.constant("v", Sort::kString);
  EXPECT_EQ(g.constant("v", Sort::kInt).id, as_int.id);
  const std::vector<Term> assertions = {
      g.app(Op::kEq, {as_int, g.int_val(1)}),
      g.app(Op::kEq, {as_str, g.string_val("1")})};
  const std::string named = g.named_query(assertions);
  EXPECT_EQ(named.find("(declare-fun v () Int)"), 0u);
  const Query q = g.query(assertions);
  EXPECT_EQ(q.text.find("(declare-fun c0 () Int)"), 0u) << q.text;
  EXPECT_NE(q.text.find("(declare-fun c0 () String)"), std::string::npos);
  EXPECT_EQ(q.symbols, std::vector<std::string>{"v"});
  Checker checker;
  EXPECT_EQ(checker.check(named).result, SatResult::kUnknown);
  EXPECT_EQ(checker.check(q.text).result, SatResult::kUnknown);
}

// The sink-query shape of the vulnerability model: the two domain
// axioms over `ext`, C2 as its whitelist of executable extensions, and
// a path condition that compares `ext` and a second symbol with `lit`.
std::vector<Term> sink_query(TermGraph& g, const std::string& ext_name,
                             const std::string& other_name,
                             const std::string& lit) {
  const Term ext = g.constant(ext_name, Sort::kString);
  const Term other = g.constant(other_name, Sort::kString);
  std::vector<Term> out;
  for (const char* forbidden : {".", "/"}) {
    out.push_back(g.app(
        Op::kNot, {g.app(Op::kContains, {ext, g.string_val(forbidden)})}));
  }
  Term c2 = g.bool_val(false);
  for (const char* e : {"php", "php5", "phtml"}) {
    c2 = g.app(Op::kOr, {c2, g.app(Op::kEq, {ext, g.string_val(e)})});
  }
  out.push_back(c2);
  const Term dst = g.app(Op::kConcat, {other, ext});
  out.push_back(g.app(
      Op::kAnd, {g.app(Op::kNot, {g.app(Op::kEq, {ext, g.string_val(lit)})}),
                 g.app(Op::kContains, {dst, dst})}));
  return out;
}

TEST(TermGraph, AlphaEquivalentQueriesPrintIdenticalText) {
  // Same shape, other names, built after different unrelated terms: the
  // node ids differ, the canonical text does not.
  TermGraph a;
  TermGraph b;
  for (int i = 0; i < 7; ++i) {
    (void)b.app(Op::kLength, {b.constant("noise" + std::to_string(i),
                                          Sort::kString)});
  }
  (void)a.int_val(42);
  const Query qa = a.query(sink_query(a, "s_files_f_ext", "s_dir", "php"));
  const Query qb =
      b.query(sink_query(b, "s_files_upload_ext", "|odd name|", "php"));
  EXPECT_EQ(qa.text, qb.text);
  EXPECT_NE(qa.text.find("(let ((?x0 "), std::string::npos) << qa.text;
  EXPECT_EQ(qa.symbols,
            (std::vector<std::string>{"s_files_f_ext", "s_dir"}));
  EXPECT_EQ(qb.symbols,
            (std::vector<std::string>{"s_files_upload_ext", "|odd name|"}));
  // The own-names text differs, as it should.
  EXPECT_NE(a.named_query(sink_query(a, "s_files_f_ext", "s_dir", "php")),
            b.named_query(sink_query(b, "s_files_upload_ext", "|odd name|",
                                     "php")));
}

TEST(TermGraph, QueriesThatAreNotRenamingsDoNotCollide) {
  const auto text =
      [](const std::function<std::vector<Term>(TermGraph&)>& build) {
        TermGraph g;
        return g.query(build(g)).text;
      };
  const std::string base = text([](TermGraph& g) {
    return sink_query(g, "s_ext", "s_dir", "php");
  });
  // A literal.
  EXPECT_NE(base, text([](TermGraph& g) {
              return sink_query(g, "s_ext", "s_dir", "php5");
            }));
  // A sort.
  EXPECT_NE(text([](TermGraph& g) {
              return std::vector<Term>{g.app(
                  Op::kEq, {g.constant("x", Sort::kString),
                            g.constant("y", Sort::kString)})};
            }),
            text([](TermGraph& g) {
              return std::vector<Term>{g.app(
                  Op::kEq, {g.constant("x", Sort::kInt),
                            g.constant("y", Sort::kInt)})};
            }));
  // A |quoted| symbol: "s" and "|s|" are two symbols, so a query over
  // both is not a renaming of one that uses "s" twice.
  EXPECT_NE(text([](TermGraph& g) {
              return std::vector<Term>{g.app(
                  Op::kEq, {g.constant("s", Sort::kString),
                            g.constant("|s|", Sort::kString)})};
            }),
            text([](TermGraph& g) {
              return std::vector<Term>{g.app(
                  Op::kEq, {g.constant("s", Sort::kString),
                            g.constant("s", Sort::kString)})};
            }));
  // A literal that spells a canonical name stays a literal.
  EXPECT_NE(text([](TermGraph& g) {
              return std::vector<Term>{g.app(
                  Op::kEq, {g.constant("c1", Sort::kString),
                            g.string_val("c0")})};
            }),
            text([](TermGraph& g) {
              return std::vector<Term>{g.app(
                  Op::kEq, {g.constant("c1", Sort::kString),
                            g.constant("c0", Sort::kString)})};
            }));
}

// Seeded C3 shapes over the pinned extension symbol and a free one.
class ShapeGenerator {
 public:
  ShapeGenerator(TermGraph& g, unsigned seed)
      : g_(g), state_(seed * 2654435761u + 11u),
        ext_(g.constant("s_files_f_ext", Sort::kString)),
        free_(g.constant("s_post_name", Sort::kString)) {}

  [[nodiscard]] Term ext() const { return ext_; }

  Term condition(int depth) {
    switch (depth <= 0 ? next(5) : next(10)) {
      case 0:
        return g_.app(Op::kEq, {string(depth - 1), literal()});
      case 1:
        return g_.app(Op::kContains, {string(depth - 1), literal()});
      case 2:
        return g_.app(Op::kSuffixOf, {literal(), string(depth - 1)});
      case 3:
        return list(/*whitelist=*/true);
      case 4:
        return list(/*whitelist=*/false);
      case 5:
        return g_.app(Op::kAnd, {condition(depth - 1), condition(depth - 1)});
      case 6:
        return g_.app(Op::kOr, {condition(depth - 1), condition(depth - 1)});
      case 7:
        return g_.app(Op::kNot, {condition(depth - 1)});
      case 8:
        return g_.app(Op::kIte, {condition(depth - 1), condition(depth - 1),
                                 condition(depth - 1)});
      default:
        return g_.app(Op::kEq, {string(depth - 1), string(depth - 1)});
    }
  }

 private:
  unsigned next(unsigned bound) {
    state_ = state_ * 1664525u + 1013904223u;
    return (state_ >> 8) % bound;
  }

  Term literal() {
    static const char* const kLiterals[] = {"php", "php5", "phtml", "jpg",
                                            "png", ".php", "p",     "",
                                            "x.php", "PHP"};
    return g_.string_val(kLiterals[next(10)]);
  }

  Term string(int depth) {
    switch (depth <= 0 ? next(3) : next(5)) {
      case 0:
        return ext_;
      case 1:
        return free_;
      case 2:
        return literal();
      default:
        return g_.app(Op::kConcat, {string(depth - 1), string(depth - 1)});
    }
  }

  // in_array($ext, [...]) as a whitelist, or its negation as a blacklist.
  Term list(bool whitelist) {
    Term any = g_.bool_val(false);
    const unsigned n = 1 + next(3);
    for (unsigned i = 0; i < n; ++i) {
      any = g_.app(Op::kOr, {any, g_.app(Op::kEq, {ext_, literal()})});
    }
    return whitelist ? any : g_.app(Op::kNot, {any});
  }

  TermGraph& g_;
  unsigned state_;
  Term ext_;
  Term free_;
};

TEST(Refuter, EveryCaseRefutationIsUnsatForZ3) {
  Checker checker;
  std::size_t refuted = 0;
  std::size_t kept = 0;
  for (unsigned seed = 1; seed <= 120; ++seed) {
    TermGraph g;
    ShapeGenerator gen(g, seed);
    const Term ext = gen.ext();
    std::vector<Term> assertions;
    Term c2 = g.bool_val(false);
    const std::vector<std::string> exts = {"php", "php5", "phtml"};
    for (const std::string& e : exts) {
      c2 = g.app(Op::kOr, {c2, g.app(Op::kEq, {ext, g.string_val(e)})});
    }
    assertions.push_back(
        g.app(Op::kNot, {g.app(Op::kContains, {ext, g.string_val(".")})}));
    assertions.push_back(c2);
    assertions.push_back(gen.condition(3));
    const bool refutes =
        std::all_of(exts.begin(), exts.end(), [&](const std::string& e) {
          return g.evaluate(assertions, ext, e) == Truth::kFalse;
        });
    const Query query = g.query(assertions);
    if (!refutes) {
      ++kept;
      continue;
    }
    ++refuted;
    EXPECT_EQ(checker.check(query.text).result, SatResult::kUnsat)
        << "seed " << seed << "\n" << query.text;
  }
  EXPECT_GE(refuted, 1u);
  EXPECT_GE(kept, 1u);
}

TEST(Refuter, KleeneEvaluationIsExactOnKnownOperands) {
  TermGraph g;
  const Term ext = g.constant("e", Sort::kString);
  const Term free = g.constant("f", Sort::kString);
  const Term is_php = g.app(Op::kEq, {ext, g.string_val("php")});
  const Term unknown = g.app(Op::kEq, {free, g.string_val("x")});
  EXPECT_EQ(g.evaluate({is_php}, ext, "php"), Truth::kTrue);
  EXPECT_EQ(g.evaluate({is_php}, ext, "jpg"), Truth::kFalse);
  EXPECT_EQ(g.evaluate({unknown}, ext, "php"), Truth::kUnknown);
  // A decisive operand decides `and`/`or` whatever the other one is.
  EXPECT_EQ(g.evaluate({g.app(Op::kAnd, {unknown, is_php})}, ext, "jpg"),
            Truth::kFalse);
  EXPECT_EQ(g.evaluate({g.app(Op::kOr, {unknown, is_php})}, ext, "php"),
            Truth::kTrue);
  EXPECT_EQ(g.evaluate({g.app(Op::kOr, {unknown, is_php})}, ext, "jpg"),
            Truth::kUnknown);
  // A term equals itself even when its value is unknown.
  EXPECT_EQ(g.evaluate({g.app(Op::kEq, {free, free})}, ext, "php"),
            Truth::kTrue);
  // An operator the evaluator does not implement stays unknown.
  EXPECT_EQ(g.evaluate({g.app(Op::kEq, {g.app(Op::kSubstr, {ext, g.int_val(0),
                                                            g.int_val(1)}),
                                        g.string_val("p")})},
                       ext, "php"),
            Truth::kUnknown);
  // Negative literals read back as printed; integer overflow is
  // unknown, not a wrapped value.
  const Term least = g.int_val(std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(g.evaluate({g.app(Op::kLt, {least, g.int_val(-5)})}, ext, "php"),
            Truth::kTrue);
  EXPECT_EQ(g.evaluate({g.app(Op::kGt, {g.app(Op::kNeg, {least}), least})},
                       ext, "php"),
            Truth::kUnknown);
  const Term big = g.int_val(std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(g.evaluate({g.app(Op::kLt, {g.app(Op::kAdd, {big, big}), big})},
                       ext, "php"),
            Truth::kUnknown);
  // String operations on the pinned value and literals.
  EXPECT_EQ(g.evaluate({g.app(Op::kSuffixOf,
                              {g.string_val(".php"),
                               g.app(Op::kConcat, {g.string_val("a."), ext})})},
                       ext, "php"),
            Truth::kTrue);
  EXPECT_EQ(g.evaluate({g.app(Op::kEq, {g.app(Op::kLength, {ext}),
                                        g.int_val(4)})},
                       ext, "php5"),
            Truth::kTrue);
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
    const Query query = g.query({g.app(
        Op::kEq, {g.constant("x", Sort::kString), g.string_val(value)})});
    const SolverOutcome outcome = checker.check(query.text);
    ASSERT_EQ(outcome.result, SatResult::kSat) << query.text << outcome.error;
    const auto bindings = query.own_names(outcome.model->assignments);
    ASSERT_TRUE(bindings.contains("x")) << query.text;
    EXPECT_EQ(decode_value(bindings.at("x")), value) << query.text;
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
    const SolverOutcome outcome = checker.check(g.named_query(
        {g.app(Op::kEq, {g.constant(name, Sort::kInt), g.int_val(1)})}));
    ASSERT_EQ(outcome.result, SatResult::kSat) << name << outcome.error;
    EXPECT_EQ(outcome.model->to_string(), name + " = 1");
  }
}

}  // namespace
}  // namespace uchecker::smt
