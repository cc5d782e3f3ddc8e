//===- tests/RuleSetIdentity.h - Bit-exact rule-set comparison ---*- C++ -*-===//
//
// The one definition of "these two RuleSets are byte-identical", shared
// by the engine-equivalence pin (tests/ripper_engine_test.cpp) and every
// other test that compares trained filters, so the checks cannot drift
// apart.  Thresholds are compared by bit pattern -- RuleSet::toString()'s
// rounded rendering could mask low-order FP divergence.
//
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_TESTS_RULESETIDENTITY_H
#define SCHEDFILTER_TESTS_RULESETIDENTITY_H

#include "ml/Rule.h"

#include <cstdint>
#include <cstring>

namespace schedfilter {

/// Bit-pattern equality: catches even a -0.0 vs +0.0 divergence that
/// operator== would wave through.
inline bool sameBits(double A, double B) {
  uint64_t BA, BB;
  std::memcpy(&BA, &A, sizeof(BA));
  std::memcpy(&BB, &B, sizeof(BB));
  return BA == BB;
}

/// Bit-exact rule-set identity: default class, rule order, per-rule
/// conditions (feature, operator, threshold bit pattern), conclusions
/// and annotated coverage counts.
inline bool identicalRuleSets(const RuleSet &A, const RuleSet &B) {
  if (A.getDefaultClass() != B.getDefaultClass() || A.size() != B.size())
    return false;
  for (size_t R = 0; R != A.size(); ++R) {
    const Rule &RA = A.rules()[R], &RB = B.rules()[R];
    if (RA.Conclusion != RB.Conclusion || RA.NumCorrect != RB.NumCorrect ||
        RA.NumIncorrect != RB.NumIncorrect || RA.size() != RB.size())
      return false;
    for (size_t C = 0; C != RA.size(); ++C) {
      if (RA.Conditions[C].Feature != RB.Conditions[C].Feature ||
          RA.Conditions[C].IsLessEqual != RB.Conditions[C].IsLessEqual ||
          !sameBits(RA.Conditions[C].Threshold, RB.Conditions[C].Threshold))
        return false;
    }
  }
  return true;
}

} // namespace schedfilter

#endif // SCHEDFILTER_TESTS_RULESETIDENTITY_H
