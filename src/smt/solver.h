// The solver boundary: the only code that touches Z3.
//
// check() takes a query as SMT-LIB text (see smtlib.h) and solves it in
// a fresh z3::context per attempt: create the context, parse the text,
// solve with Z3's SMT core (z3::solver::simple(), the default solver
// without its tactic front end), read the model. A Checker owns no Z3
// state between checks, so a scan that never misses the solver caches
// never builds a context. The context is fresh per attempt so that a
// model depends on the query text alone: Z3 4.8.x's sequence solver is
// sensitive to AST creation order, and a context shared across queries
// returns models that change with the order the queries came in. The
// vulnerability model hands it canonical text (smtlib.h: constants
// c0, c1, ... in declaration order), so a model depends on the query's
// shape alone, and one answer serves every query equal to it up to
// renaming. Everything downstream of the detector sees only SatResult /
// SolverOutcome values.
//
// Robustness: check() never lets a z3::exception escape (a query Z3
// cannot parse comes back kUnknown with Z3's message and is not
// retried), clamps its timeout to any attached scan Deadline, and
// retries *retryable* unknowns with escalating timeouts — 1x, 2x, 4x
// the configured base, capped at kTimeoutEscalationCap — recording
// every attempt in the returned SolverOutcome. An unknown is retryable
// when it is a timeout: the solve ran to its attempt's budget, or Z3
// names a cancellation (the SMT core often reports a stopped solve as
// "(incomplete (theory arithmetic))", so the reason alone cannot tell).
// An unknown returned before its budget is deterministic and is not
// retried; neither is a deadline expiry. TransientError fault
// injections retry like timeouts.
//
// A Checker lives for one scan, and all of its attempts together get
// kScanSolverBudgetMs of wall time: each attempt is also clamped to what
// is left of it. Once it is spent (or an attempt it clamped runs out),
// check() answers kUnknown with budget_exhausted set and calls no Z3,
// so hard queries cost a scan at most that much, not 5 + 10 + 20 s
// each.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "support/deadline.h"

namespace uchecker::telemetry {
class ScanEvents;
}  // namespace uchecker::telemetry

namespace uchecker::smt {

enum class SatResult : std::uint8_t { kSat, kUnsat, kUnknown };

[[nodiscard]] std::string_view sat_result_name(SatResult r);

// A satisfying assignment, each value in the query's own spelling (a
// string through smt::string_literal(), which smt::decode_value()
// inverts). For an unrestricted-file-upload finding this typically
// shows e.g.
//   s_ext = "php", s_filename = "x"
struct Model {
  std::map<std::string, std::string> assignments;

  [[nodiscard]] std::string to_string() const;
};

struct SolverOutcome {
  SatResult result = SatResult::kUnknown;
  std::optional<Model> model;   // present iff result == kSat
  std::string error;            // populated when Z3 threw / timed out
  // Retry bookkeeping: how many solve attempts ran and the timeout (ms)
  // each one was given. attempts == 1 for a clean first solve;
  // non-retryable failures never retry.
  unsigned attempts = 0;
  std::vector<unsigned> attempt_timeouts_ms;
  // True when the scan deadline expired (or the scan was cancelled)
  // before or during solving; such outcomes are never retried.
  bool deadline_exceeded = false;
  // True when the scan's solver budget ran out before or during this
  // check (see Checker::kScanSolverBudgetMs); never retried.
  bool budget_exhausted = false;
};

// Solves SMT-LIB queries with retry, deadline and telemetry handling.
// Not thread-safe (it keeps counters); create one Checker per scan
// thread.
class Checker {
 public:
  // Escalated per-attempt timeouts never exceed this: the last rung of
  // the default 5 s ladder.
  static constexpr unsigned kTimeoutEscalationCap = 20'000;
  // Wall time all attempts of one Checker (one scan) may spend together.
  static constexpr unsigned kScanSolverBudgetMs = 30'000;
  // Retries of a retryable unknown, each with a doubled timeout.
  static constexpr unsigned kRetries = 2;

  explicit Checker(unsigned timeout_ms = 5000);

  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  // Bounds all subsequent check() calls: per-attempt timeouts are
  // clamped to the remaining wall-clock time, and an already-expired
  // deadline short-circuits to kUnknown without invoking Z3.
  void set_deadline(Deadline deadline) { deadline_ = std::move(deadline); }
  [[nodiscard]] const Deadline& deadline() const { return deadline_; }

  // Attaches the scan event hook (null, the default, detaches): every
  // check() then emits a "solve" phase and one solver query.
  void set_events(telemetry::ScanEvents* events) { events_ = events; }
  [[nodiscard]] telemetry::ScanEvents* events() const { return events_; }

  // Checks the conjunction of the assertions in `query`, an SMT-LIB
  // script of declarations and asserts. Any z3::exception (including a
  // parse error) is caught and converted into an outcome with result ==
  // kUnknown.
  [[nodiscard]] SolverOutcome check(const std::string& query);

  // Total number of check() calls, for benchmark accounting.
  [[nodiscard]] std::uint64_t check_count() const { return check_count_; }

  // Total retry attempts (beyond each check's first) across all checks.
  [[nodiscard]] std::uint64_t retry_count() const { return retry_count_; }

  // The per-scan solver budget is spent: check() will not call Z3.
  [[nodiscard]] bool budget_exhausted() const { return budget_exhausted_; }

 private:
  unsigned timeout_ms_;
  Deadline deadline_;
  // Wall time spent in attempts so far, against kScanSolverBudgetMs.
  std::chrono::steady_clock::duration spent_{};
  bool budget_exhausted_ = false;
  telemetry::ScanEvents* events_ = nullptr;
  std::uint64_t check_count_ = 0;
  std::uint64_t retry_count_ = 0;
};

}  // namespace uchecker::smt
