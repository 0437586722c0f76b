// The solver boundary: the only code that touches Z3.
//
// check() takes a query as SMT-LIB text (see smtlib.h) and solves it in
// a fresh z3::context per attempt: create the context, parse the text,
// solve, read the model. A Checker owns no Z3 state between checks, so
// a scan that never misses the solver caches never builds a context.
// Everything downstream of the detector sees only SatResult /
// SolverOutcome values.
//
// Robustness: check() never lets a z3::exception escape (a query Z3
// cannot parse comes back kUnknown with Z3's message and is not
// retried), clamps its timeout to any attached scan Deadline, and
// retries *retryable* unknowns (Z3 timeouts/cancellations and
// TransientError fault injections) with escalating timeouts — 1x, 2x,
// 4x the configured base, capped at kTimeoutEscalationCap — recording
// every attempt in the returned SolverOutcome.
#pragma once

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
};

// Solves SMT-LIB queries with retry, deadline and telemetry handling.
// Not thread-safe (it keeps counters); create one Checker per scan
// thread.
class Checker {
 public:
  // Escalated per-attempt timeouts never exceed this.
  static constexpr unsigned kTimeoutEscalationCap = 60'000;
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

 private:
  unsigned timeout_ms_;
  Deadline deadline_;
  telemetry::ScanEvents* events_ = nullptr;
  std::uint64_t check_count_ = 0;
  std::uint64_t retry_count_ = 0;
};

}  // namespace uchecker::smt
