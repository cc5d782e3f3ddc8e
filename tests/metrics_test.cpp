//===- tests/metrics_test.cpp - ml/Metrics unit tests ------------------------===//

#include "ml/Metrics.h"

#include <gtest/gtest.h>

using namespace schedfilter;

namespace {

FeatureVector fv(double BBLen) {
  FeatureVector X{};
  X[FeatBBLen] = BBLen;
  return X;
}

/// Filter: LS iff bbLen >= 10.
RuleSet thresholdFilter() {
  RuleSet RS(Label::NS);
  Rule R;
  R.Conclusion = Label::LS;
  R.Conditions.push_back({FeatBBLen, false, 10.0});
  RS.addRule(std::move(R));
  return RS;
}

} // namespace

TEST(Metrics, EmptyDatasetZeroError) {
  ConfusionMatrix M = evaluate(thresholdFilter(), Dataset("e"));
  EXPECT_EQ(M.total(), 0u);
  EXPECT_DOUBLE_EQ(M.errorRate(), 0.0);
}

TEST(Metrics, ConfusionCellsCorrect) {
  Dataset D = Dataset::fromInstances("d", {{fv(12), Label::LS},  // TP
                                           {fv(15), Label::NS},  // FP
                                           {fv(3), Label::NS},   // TN
                                           {fv(4), Label::LS}}); // FN
  ConfusionMatrix M = evaluate(thresholdFilter(), D);
  EXPECT_EQ(M.TruePos, 1u);
  EXPECT_EQ(M.FalsePos, 1u);
  EXPECT_EQ(M.TrueNeg, 1u);
  EXPECT_EQ(M.FalseNeg, 1u);
  EXPECT_DOUBLE_EQ(M.errorRate(), 0.5);
  EXPECT_EQ(M.errors(), 2u);
}

TEST(Metrics, PerfectClassifier) {
  Dataset D =
      Dataset::fromInstances("d", {{fv(12), Label::LS}, {fv(3), Label::NS}});
  ConfusionMatrix M = evaluate(thresholdFilter(), D);
  EXPECT_DOUBLE_EQ(M.errorRate(), 0.0);
}

TEST(Metrics, ErrorRatePercentScales) {
  Dataset D = Dataset::fromInstances("d", {{fv(12), Label::LS},
                                           {fv(11), Label::NS},
                                           {fv(3), Label::NS},
                                           {fv(2), Label::NS}});
  EXPECT_DOUBLE_EQ(errorRatePercent(thresholdFilter(), D), 25.0);
}
