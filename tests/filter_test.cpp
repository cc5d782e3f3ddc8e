//===- tests/filter_test.cpp - filter/ScheduleFilter unit tests --------------===//

#include "filter/ScheduleFilter.h"

#include "TestHelpers.h"
#include "workloads/ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace schedfilter;
using namespace schedfilter::test;

namespace {

/// Filter with one rule: LS iff bbLen >= 5 and loads >= 0.2.
RuleSet basicFilter() {
  RuleSet RS(Label::NS);
  Rule R;
  R.Conclusion = Label::LS;
  R.Conditions.push_back({FeatBBLen, false, 5.0});
  R.Conditions.push_back({FeatLoad, false, 0.2});
  RS.addRule(std::move(R));
  return RS;
}

} // namespace

TEST(ScheduleFilter, DecisionMatchesRuleSet) {
  ScheduleFilter F(basicFilter());
  // ilp-float: 6 instructions, 2/6 loads -> schedule.
  EXPECT_TRUE(F.shouldSchedule(makeIlpFloatBlock()));
  // trivial: 2 instructions -> below gate -> don't.
  EXPECT_FALSE(F.shouldSchedule(makeTrivialBlock()));
}

TEST(ScheduleFilter, GatedFastPathIsCheaper) {
  ScheduleFilter F(basicFilter());
  // Gated: one comparison, one work unit.
  EXPECT_EQ(F.decide(makeTrivialBlock()).Work, 1u);
  // Full evaluation: the feature pass plus the rule conditions.
  EXPECT_GT(F.decide(makeIlpFloatBlock()).Work, 1u);
}

TEST(ScheduleFilter, ConstOverloadAgrees) {
  RuleSet RS = basicFilter();
  const ScheduleFilter F(RS);
  for (const BasicBlock &BB :
       {makeIlpFloatBlock(), makeTrivialBlock(), makeChainBlock()})
    EXPECT_EQ(F.shouldSchedule(BB),
              RS.predict(extractFeatures(BB)) == Label::LS);
}

TEST(ScheduleFilter, NeverFilterSchedulesNothing) {
  ScheduleFilter F(RuleSet(Label::NS));
  EXPECT_FALSE(F.shouldSchedule(makeIlpFloatBlock()));
  EXPECT_FALSE(F.shouldSchedule(makeTrivialBlock()));
}

// The gate-soundness property: the fast path must never change a
// decision.  Swept over generated blocks and several rule shapes.
class GateSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GateSoundness, FastPathNeverChangesDecisions) {
  const BenchmarkSpec *Spec = findBenchmarkSpec("raytrace");
  Rng R(GetParam());

  // Rule set with a bbLen-gated rule and a second rule gated higher.
  RuleSet RS(Label::NS);
  Rule R1;
  R1.Conclusion = Label::LS;
  R1.Conditions.push_back({FeatBBLen, false, static_cast<double>(R.range(4, 8))});
  R1.Conditions.push_back({FeatLoad, false, 0.15});
  RS.addRule(R1);
  Rule R2;
  R2.Conclusion = Label::LS;
  R2.Conditions.push_back({FeatBBLen, false, static_cast<double>(R.range(9, 14))});
  RS.addRule(R2);

  ScheduleFilter F(RS);
  for (int Trial = 0; Trial != 50; ++Trial) {
    BasicBlock BB = ProgramGenerator(*Spec).generateBlock(
        R, R.range(0, 8), /*EndWithTerminator=*/true);
    bool Slow = RS.predict(extractFeatures(BB)) == Label::LS;
    EXPECT_EQ(F.shouldSchedule(BB), Slow);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GateSoundness,
                         ::testing::Values(101, 202, 303, 404, 505));
