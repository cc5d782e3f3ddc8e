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
  EXPECT_DOUBLE_EQ(errorRatePercent(thresholdFilter(), Dataset("e")), 0.0);
}

TEST(Metrics, ConfusionCellsCorrect) {
  // One instance per confusion cell: the FP and FN cells are the errors.
  Instance TP{fv(12), Label::LS}, FP{fv(15), Label::NS}, TN{fv(3), Label::NS},
      FN{fv(4), Label::LS};
  Dataset D = Dataset::fromInstances("d", {TP, FP, TN, FN});
  EXPECT_DOUBLE_EQ(errorRatePercent(thresholdFilter(), D), 50.0);
  for (const Instance &I : {TP, TN})
    EXPECT_DOUBLE_EQ(
        errorRatePercent(thresholdFilter(), Dataset::fromInstances("c", {I})),
        0.0);
  for (const Instance &I : {FP, FN})
    EXPECT_DOUBLE_EQ(
        errorRatePercent(thresholdFilter(), Dataset::fromInstances("c", {I})),
        100.0);
}

TEST(Metrics, PerfectClassifier) {
  Dataset D =
      Dataset::fromInstances("d", {{fv(12), Label::LS}, {fv(3), Label::NS}});
  EXPECT_DOUBLE_EQ(errorRatePercent(thresholdFilter(), D), 0.0);
}

TEST(Metrics, ErrorRatePercentScales) {
  Dataset D = Dataset::fromInstances("d", {{fv(12), Label::LS},
                                           {fv(11), Label::NS},
                                           {fv(3), Label::NS},
                                           {fv(2), Label::NS}});
  EXPECT_DOUBLE_EQ(errorRatePercent(thresholdFilter(), D), 25.0);
}
