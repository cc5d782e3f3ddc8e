//===- tests/cv_test.cpp - ml/CrossValidation unit tests ---------------------===//

#include "ml/CrossValidation.h"

#include "ml/Labeler.h"
#include "support/TaskPool.h"

#include <gtest/gtest.h>

using namespace schedfilter;

namespace {

/// One benchmark's records: bbLen First, First+1, ..., N of them, each
/// an NS block (scheduling gains nothing).
std::vector<BlockRecord> records(size_t N, double First = 0.0) {
  std::vector<BlockRecord> Records(N);
  for (size_t I = 0; I != N; ++I)
    Records[I].X[FeatBBLen] = First + static_cast<double>(I);
  return Records;
}

/// Labels \p Runs together (one rank table, as every suite is labeled),
/// one dataset per run named by its pair.
std::vector<Dataset>
suite(const std::vector<std::pair<std::string, std::vector<BlockRecord>>>
          &Runs) {
  std::vector<RecordSet> Sets;
  for (const auto &[Name, Records] : Runs)
    Sets.push_back({Name, &Records});
  TaskPool Pool(1);
  return labelRecordSets(Sets, 0.0, Pool);
}

/// leaveOneOut on a one-job pool: folds run serially, in order, so a
/// learner may record what each fold saw.
std::vector<LoocvFold> serialLoocv(const std::vector<Dataset> &Suite,
                                   const LearnerFn &Learner) {
  TaskPool Pool(1);
  return leaveOneOut(Suite, Learner, Pool);
}

} // namespace

TEST(CrossValidation, OneFoldPerBenchmark) {
  std::vector<Dataset> Suite =
      suite({{"a", records(3)}, {"b", records(4)}, {"c", records(5)}});
  std::vector<LoocvFold> Folds =
      serialLoocv(Suite, [](const Dataset &) { return RuleSet(Label::NS); });
  ASSERT_EQ(Folds.size(), 3u);
  EXPECT_EQ(Folds[0].HeldOut, "a");
  EXPECT_EQ(Folds[1].HeldOut, "b");
  EXPECT_EQ(Folds[2].HeldOut, "c");
}

TEST(CrossValidation, TrainsOnExactlyTheOthers) {
  std::vector<Dataset> Suite =
      suite({{"a", records(3)}, {"b", records(4)}, {"c", records(5)}});
  std::vector<size_t> TrainSizes;
  serialLoocv(Suite, [&](const Dataset &Train) {
    TrainSizes.push_back(Train.size());
    return RuleSet(Label::NS);
  });
  // Fold i trains on total minus the held-out benchmark.
  EXPECT_EQ(TrainSizes, (std::vector<size_t>{9, 8, 7}));
}

TEST(CrossValidation, NeverTrainsOnHeldOutInstances) {
  // Give each benchmark a unique bbLen range; assert the training set
  // seen for fold i contains no value from i's range.
  std::vector<std::pair<std::string, std::vector<BlockRecord>>> Runs;
  for (int B = 0; B != 3; ++B)
    Runs.emplace_back("bench" + std::to_string(B), records(10, B * 100));
  size_t Fold = 0;
  serialLoocv(suite(Runs), [&](const Dataset &Train) {
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
  std::vector<LoocvFold> Folds =
      serialLoocv(suite({{"only", records(5)}}), [](const Dataset &Train) {
        EXPECT_EQ(Train.size(), 0u);
        return RuleSet(Label::NS);
      });
  EXPECT_EQ(Folds.size(), 1u);
}

TEST(CrossValidation, EmptySuite) {
  EXPECT_TRUE(
      serialLoocv({}, [](const Dataset &) { return RuleSet(Label::NS); })
          .empty());
}
