//===- tests/integration_test.cpp - end-to-end reproduction checks -----------===//
//
// End-to-end tests asserting the paper's qualitative results on a reduced
// synthetic suite: the induced filter must classify well, cut scheduling
// effort, and preserve most of the scheduling benefit.  These are the
// "did we actually reproduce the paper?" tests.
//
//===----------------------------------------------------------------------===//

#include "harness/ParallelExperiments.h"

#include "TestHelpers.h"
#include "ml/Metrics.h"
#include "support/Statistics.h"

#include <gtest/gtest.h>

using namespace schedfilter;
using namespace schedfilter::test;

namespace {

/// The serial harness: a one-job engine spawns no threads.
ExperimentEngine Serial;

/// Moderate-size suite: big enough for the learning signal, small enough
/// for test time (~1s).
const std::vector<BenchmarkRun> &suite() {
  static const std::vector<BenchmarkRun> Suite = [] {
    MachineModel Model = MachineModel::ppc7410();
    return Serial.generateSuiteData(shrinkSuite(specjvm98Suite(), 30), Model);
  }();
  return Suite;
}

const ThresholdResult &atZero() {
  static const ThresholdResult R =
      Serial.runThreshold(suite(), 0.0, ripperLearner());
  return R;
}

} // namespace

TEST(Reproduction, SchedulingHelpsButOnlyOnAMinorityOfBlocks) {
  size_t LS = 0, Total = 0;
  for (const BenchmarkRun &Run : suite()) {
    for (const BlockRecord &Rec : Run.Records)
      LS += schedulingBenefitPercent(Rec) > 0.0;
    Total += Run.Records.size();
  }
  double Frac = static_cast<double>(LS) / static_cast<double>(Total);
  // The paper's premise: "in practice a large fraction of blocks do not
  // benefit from instruction scheduling."
  EXPECT_LT(Frac, 0.40);
  EXPECT_GT(Frac, 0.05);
}

TEST(Reproduction, SchedulingSometimesDegradesABlock) {
  // "...and in some rare cases, degrades performance."
  size_t Degraded = 0;
  for (const BenchmarkRun &Run : suite())
    for (const BlockRecord &Rec : Run.Records)
      Degraded += Rec.CostSched > Rec.CostNoSched;
  EXPECT_GT(Degraded, 0u);
}

TEST(Reproduction, CrossValidatedErrorIsSingleDigit) {
  // Table 3 at t=0: geometric-mean error 7.86% in the paper.
  double Geo = geometricMean(atZero().ErrorPct);
  EXPECT_LT(Geo, 12.0);
  EXPECT_GT(Geo, 0.5); // sanity: the task is not trivially separable
}

TEST(Reproduction, ErrorFallsAsThresholdRises) {
  double E0 = geometricMean(atZero().ErrorPct);
  double E40 = geometricMean(
      Serial.runThreshold(suite(), 40.0, ripperLearner()).ErrorPct);
  EXPECT_LT(E40, E0 * 0.5);
}

TEST(Reproduction, FilterCutsSchedulingEffort) {
  // Figure 1(a): L/N spends a fraction of LS's scheduling effort.
  double Effort = geometricMean(atZero().EffortRatioWork);
  EXPECT_LT(Effort, 0.70);
  EXPECT_GT(Effort, 0.05);
}

TEST(Reproduction, EffortFallsMonotonicallyWithThreshold) {
  // Figure 2(a): geometric-mean effort declines as t grows.
  std::vector<ThresholdResult> Sweep =
      Serial.runThresholdSweep(suite(), {0.0, 20.0, 40.0}, ripperLearner());
  double E0 = geometricMean(Sweep[0].EffortRatioWork);
  double E20 = geometricMean(Sweep[1].EffortRatioWork);
  double E40 = geometricMean(Sweep[2].EffortRatioWork);
  EXPECT_GT(E0, E20);
  EXPECT_GT(E20, E40);
}

TEST(Reproduction, FilterPreservesMostOfTheBenefit) {
  // Figure 1(b): L/N tracks LS closely at t=0.
  const ThresholdResult &R = atZero();
  double LS = geometricMean(R.AppRatioLS);
  double LN = geometricMean(R.AppRatioLN);
  ASSERT_LT(LS, 1.0);
  double Retention = (1.0 - LN) / (1.0 - LS);
  EXPECT_GT(Retention, 0.75);
  EXPECT_LE(Retention, 1.05); // can exceed 1 only via avoided degradations
}

TEST(Reproduction, FilteredNeverWorseThanNeverScheduling) {
  for (double V : atZero().AppRatioLN)
    EXPECT_LE(V, 1.0005);
}

TEST(Reproduction, PredictedTimesImproveAtAllThresholds) {
  // Table 4: "the model predicts improvements at all thresholds."
  for (double T : {0.0, 20.0, 50.0}) {
    ThresholdResult R = Serial.runThreshold(suite(), T, ripperLearner());
    EXPECT_LE(geometricMean(R.PredictedTimePct), 100.0) << "t=" << T;
  }
}

TEST(Reproduction, RuntimeLsSharePlausible) {
  // Table 6: the filter schedules a minority of blocks; the share falls
  // with t.
  const ThresholdResult &R0 = atZero();
  double Share0 = static_cast<double>(R0.RuntimeLS) /
                  static_cast<double>(R0.RuntimeLS + R0.RuntimeNS);
  EXPECT_LT(Share0, 0.45);
  ThresholdResult R30 = Serial.runThreshold(suite(), 30.0, ripperLearner());
  EXPECT_LT(R30.RuntimeLS, R0.RuntimeLS);
}

TEST(Reproduction, InducedRulesLookLikeFigure4) {
  // The paper's sample filter keys on block size with call/load/store
  // fractions refining.  Check bbLen appears in (almost) every rule and
  // that rules conclude "list" with default "orig".
  const ThresholdResult &R = atZero();
  size_t RulesTotal = 0, RulesWithBBLen = 0;
  for (const RuleSet &RS : R.Filters) {
    EXPECT_EQ(RS.getDefaultClass(), Label::NS);
    for (const Rule &Rule : RS.rules()) {
      EXPECT_EQ(Rule.Conclusion, Label::LS);
      ++RulesTotal;
      for (const Condition &C : Rule.Conditions)
        if (C.Feature == FeatBBLen) {
          ++RulesWithBBLen;
          break;
        }
    }
  }
  ASSERT_GT(RulesTotal, 0u);
  EXPECT_GT(static_cast<double>(RulesWithBBLen) /
                static_cast<double>(RulesTotal),
            0.6);
}

TEST(Reproduction, FpSuitePreservesLargeBenefit) {
  // Figure 3: on benchmarks selected to benefit, the filter must keep
  // nearly all of a large benefit.
  MachineModel Model = MachineModel::ppc7410();
  std::vector<BenchmarkRun> Fp =
      Serial.generateSuiteData(shrinkSuite(fpSuite(), 25), Model);
  ThresholdResult R = Serial.runThreshold(Fp, 0.0, ripperLearner());
  double LS = geometricMean(R.AppRatioLS);
  double LN = geometricMean(R.AppRatioLN);
  EXPECT_LT(LS, 0.90) << "FP suite must benefit a lot from scheduling";
  EXPECT_GT((1.0 - LN) / (1.0 - LS), 0.85);
}

TEST(Reproduction, HeadlineEffortBenefitTradeoffExists) {
  // The abstract: most of the benefit at a fraction of the effort.  Find
  // any threshold achieving >=75% retention at <=55% effort.
  std::vector<ThresholdResult> Sweep =
      Serial.runThresholdSweep(suite(), {0.0, 10.0, 20.0}, ripperLearner());
  bool Achieved = false;
  for (const ThresholdResult &R : Sweep) {
    double LS = geometricMean(R.AppRatioLS);
    double LN = geometricMean(R.AppRatioLN);
    double Retention = (1.0 - LN) / (1.0 - LS);
    double Effort = geometricMean(R.EffortRatioWork);
    if (Retention >= 0.75 && Effort <= 0.55)
      Achieved = true;
  }
  EXPECT_TRUE(Achieved);
}
