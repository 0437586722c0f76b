// Checks a finding's witness by meaning rather than by bytes: the query
// it answers, plus one equality per model binding, must be SAT in a
// fresh Checker. The check holds under any solver set-up that decides
// the same queries, whichever model the search happens to return.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "core/detector/detector.h"
#include "smt/smtlib.h"
#include "smt/solver.h"

namespace uchecker::testing_witness {

inline void expect_witness_resolves(const core::Finding& finding) {
  SCOPED_TRACE(finding.location);
  const core::FindingEvidence& evidence = finding.evidence;
  ASSERT_FALSE(evidence.query.empty());
  ASSERT_FALSE(evidence.bindings.empty());
  std::string pinned = evidence.query;
  smt::TermGraph names;  // prints each symbol as the query spells it
  for (const core::WitnessBinding& binding : evidence.bindings) {
    pinned += "(assert (= " +
              names.print(names.constant(binding.symbol, smt::Sort::kInt)) +
              " " + binding.raw + "))\n";
  }
  smt::Checker checker;
  const smt::SolverOutcome outcome = checker.check(pinned);
  EXPECT_EQ(outcome.result, smt::SatResult::kSat)
      << outcome.error << "\n" << pinned;
}

}  // namespace uchecker::testing_witness
