//===- tests/cv_test.cpp - ml/CrossValidation unit tests ---------------------===//

#include "ml/CrossValidation.h"

#include <gtest/gtest.h>

using namespace schedfilter;

namespace {

FeatureVector fv(double BBLen) {
  FeatureVector X{};
  X[FeatBBLen] = BBLen;
  return X;
}

Dataset named(const std::string &Name, size_t N) {
  Dataset D(Name);
  for (size_t I = 0; I != N; ++I)
    D.add({fv(static_cast<double>(I)), Label::NS});
  return D;
}

} // namespace

TEST(CrossValidation, OneFoldPerBenchmark) {
  std::vector<Dataset> Suite = {named("a", 3), named("b", 4), named("c", 5)};
  std::vector<LoocvFold> Folds =
      leaveOneOut(Suite, [](const Dataset &) { return RuleSet(Label::NS); });
  ASSERT_EQ(Folds.size(), 3u);
  EXPECT_EQ(Folds[0].HeldOut, "a");
  EXPECT_EQ(Folds[1].HeldOut, "b");
  EXPECT_EQ(Folds[2].HeldOut, "c");
}

TEST(CrossValidation, TrainsOnExactlyTheOthers) {
  std::vector<Dataset> Suite = {named("a", 3), named("b", 4), named("c", 5)};
  std::vector<size_t> TrainSizes;
  leaveOneOut(Suite, [&](const Dataset &Train) {
    TrainSizes.push_back(Train.size());
    return RuleSet(Label::NS);
  });
  // Fold i trains on total minus the held-out benchmark.
  EXPECT_EQ(TrainSizes, (std::vector<size_t>{9, 8, 7}));
}

TEST(CrossValidation, NeverTrainsOnHeldOutInstances) {
  // Give each benchmark a unique bbLen range; assert the training set
  // seen for fold i contains no value from i's range.
  std::vector<Dataset> Suite;
  for (int B = 0; B != 3; ++B) {
    Dataset D("bench" + std::to_string(B));
    for (int I = 0; I != 10; ++I)
      D.add({fv(B * 100 + I), Label::NS});
    Suite.push_back(std::move(D));
  }
  size_t Fold = 0;
  leaveOneOut(Suite, [&](const Dataset &Train) {
    for (const Instance &I : Train) {
      double Lo = static_cast<double>(Fold) * 100.0;
      EXPECT_TRUE(I.X[FeatBBLen] < Lo || I.X[FeatBBLen] >= Lo + 100.0)
          << "fold " << Fold << " trained on its own benchmark";
    }
    ++Fold;
    return RuleSet(Label::NS);
  });
  EXPECT_EQ(Fold, 3u);
}

TEST(CrossValidation, SingleBenchmarkTrainsOnNothing) {
  std::vector<Dataset> Suite = {named("only", 5)};
  std::vector<LoocvFold> Folds =
      leaveOneOut(Suite, [](const Dataset &Train) {
        EXPECT_EQ(Train.size(), 0u);
        return RuleSet(Label::NS);
      });
  EXPECT_EQ(Folds.size(), 1u);
}

TEST(CrossValidation, EmptySuite) {
  EXPECT_TRUE(
      leaveOneOut({}, [](const Dataset &) { return RuleSet(Label::NS); })
          .empty());
}
