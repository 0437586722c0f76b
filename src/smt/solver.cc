// Checker::check solves each attempt on Z3's SMT core in a fresh
// context, and retries an attempt that ran out of time. solver.h gives
// the reasons for the set-up, the timeout rule and the context per
// attempt.
#include "smt/solver.h"

#include <z3++.h>

#include <algorithm>
#include <chrono>

#include "smt/smtlib.h"
#include "support/fault_injector.h"
#include "support/scan_events.h"

namespace uchecker::smt {
namespace {

// An unknown is worth retrying with a larger budget when it is a
// timeout: Z3 names a cancellation in reason_unknown(), or the solve ran
// to its own budget. The second test is needed because the SMT core
// often reports a solve its timer stopped as a theory's incompleteness
// ("(incomplete (theory arithmetic))"). An unknown that comes back
// before its budget is deterministic incompleteness and is not retried.
bool retryable_unknown(const std::string& reason,
                       std::chrono::steady_clock::duration solve_time,
                       unsigned budget_ms) {
  return solve_time >= std::chrono::milliseconds(budget_ms) ||
         reason.find("timeout") != std::string::npos ||
         reason.find("canceled") != std::string::npos ||
         reason.find("cancelled") != std::string::npos ||
         reason.find("resource") != std::string::npos ||
         reason.find("interrupted") != std::string::npos;
}

// A model value in the query's own spelling: a string as its bytes,
// through string_literal(). get_string() gives more bytes than the
// string has characters only when one lies above 0xff; such a string,
// like a numeral or a boolean, keeps Z3's spelling.
std::string render_value(const z3::expr& value) {
  if (value.is_string_value()) {
    const std::string bytes = value.get_string();
    unsigned length = 0;
    if (value.length().simplify().is_numeral_u(length) &&
        length == bytes.size()) {
      return string_literal(bytes);
    }
  }
  return value.to_string();
}

}  // namespace

std::string_view sat_result_name(SatResult r) {
  switch (r) {
    case SatResult::kSat: return "sat";
    case SatResult::kUnsat: return "unsat";
    case SatResult::kUnknown: return "unknown";
  }
  return "invalid";
}

std::string Model::to_string() const {
  std::string out;
  for (const auto& [name, value] : assignments) {
    if (!out.empty()) out += ", ";
    out += name + " = " + value;
  }
  return out;
}

Checker::Checker(unsigned timeout_ms) : timeout_ms_(timeout_ms) {}

SolverOutcome Checker::check(const std::string& query) {
  ++check_count_;
  // Pipeline-level fault point: deliberately *outside* the containment
  // below, so tests can prove the detector's own per-root recovery path.
  FaultInjector::checkpoint("solve");

  const telemetry::PhaseScope span(events_, "solve");
  const auto solve_start = std::chrono::steady_clock::now();
  const std::uint64_t retries_before = retry_count_;

  SolverOutcome outcome;
  unsigned timeout = std::max(1u, timeout_ms_);
  for (unsigned attempt = 0; attempt <= kRetries; ++attempt) {
    if (deadline_.expired()) {
      outcome.result = SatResult::kUnknown;
      outcome.deadline_exceeded = true;
      outcome.error = deadline_.cancelled() ? "scan cancelled"
                                            : "scan deadline exceeded";
      if (outcome.attempts == 0) outcome.attempts = 1;
      break;
    }
    const auto spent_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(spent_).count());
    const std::uint64_t left_ms =
        spent_ms < kScanSolverBudgetMs ? kScanSolverBudgetMs - spent_ms : 0;
    if (budget_exhausted_ || left_ms == 0) {
      budget_exhausted_ = true;
      outcome.result = SatResult::kUnknown;
      outcome.budget_exhausted = true;
      outcome.error = "scan solver budget exhausted";
      if (outcome.attempts == 0) outcome.attempts = 1;
      break;
    }
    // Never solve past the scan deadline or the scan's solver budget:
    // clamp this attempt's budget to the time left of both.
    const std::uint64_t allowed =
        std::min<std::uint64_t>(timeout, deadline_.remaining_ms(timeout));
    const bool clamped_by_budget = left_ms < allowed;
    const unsigned effective = static_cast<unsigned>(
        std::max<std::uint64_t>(1, std::min(allowed, left_ms)));
    outcome.attempts = attempt + 1;
    outcome.attempt_timeouts_ms.push_back(effective);
    outcome.error.clear();
    outcome.model.reset();
    const auto attempt_start = std::chrono::steady_clock::now();
    bool retryable = false;
    try {
      // Per-attempt fault point, *inside* containment: an armed throw
      // here degrades to an unknown outcome (transient ones retry).
      FaultInjector::checkpoint("solve-attempt");

      // A fresh context per attempt: Z3 4.8.x's sequence solver is
      // sensitive to AST creation order, and parsing the text into an
      // empty context numbers the ASTs the same way every time, so a
      // model depends on the query alone, not on the queries before it.
      // simple() is the SMT core without the default solver's tactic
      // front end: on the tier-1 queries it gives the same sat/unsat
      // answers in about half the time, and it returns when its timer
      // fires where the default solver can hang.
      z3::context ctx;
      z3::solver solver(ctx, z3::solver::simple());
      z3::params params(ctx);
      params.set("timeout", effective);
      solver.set(params);
      solver.from_string(query.c_str());
      const auto check_start = std::chrono::steady_clock::now();
      const z3::check_result result = solver.check();
      const auto check_time = std::chrono::steady_clock::now() - check_start;
      switch (result) {
        case z3::sat: {
          outcome.result = SatResult::kSat;
          Model model;
          const z3::model m = solver.get_model();
          for (unsigned i = 0; i < m.num_consts(); ++i) {
            const z3::func_decl decl = m.get_const_decl(i);
            model.assignments[symbol_name(decl.name().str())] =
                render_value(m.get_const_interp(decl));
          }
          outcome.model = std::move(model);
          break;
        }
        case z3::unsat:
          outcome.result = SatResult::kUnsat;
          break;
        case z3::unknown: {
          outcome.result = SatResult::kUnknown;
          const std::string reason = solver.reason_unknown();
          outcome.error = "solver returned unknown (" + reason + ")";
          retryable = retryable_unknown(reason, check_time, effective);
          break;
        }
      }
    } catch (const InjectedFault& e) {
      outcome.result = SatResult::kUnknown;
      outcome.error = e.what();
      retryable = e.transient();
    } catch (const z3::exception& e) {
      outcome.result = SatResult::kUnknown;
      outcome.error = e.msg();
    }
    spent_ += std::chrono::steady_clock::now() - attempt_start;
    if (outcome.result != SatResult::kUnknown || !retryable) break;
    if (clamped_by_budget) {
      // It ran out of what was left of the budget: nothing to escalate.
      budget_exhausted_ = true;
      outcome.budget_exhausted = true;
      break;
    }
    if (attempt < kRetries) {
      ++retry_count_;
      timeout = std::min(timeout * 2, kTimeoutEscalationCap);
    }
  }

  if (events_ != nullptr) {
    events_->solver_query(telemetry::SolverQuery{
        .dur_us = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - solve_start)
                .count()),
        .attempts = outcome.attempts,
        .escalations = static_cast<unsigned>(retry_count_ - retries_before),
        .deadline_exceeded = outcome.deadline_exceeded,
        .result = sat_result_name(outcome.result)});
  }
  return outcome;
}

}  // namespace uchecker::smt
