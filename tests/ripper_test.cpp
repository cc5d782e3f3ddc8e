//===- tests/ripper_test.cpp - ml/Ripper unit tests --------------------------===//

#include "ml/Ripper.h"

#include "TestHelpers.h"
#include "ml/Metrics.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace schedfilter;

namespace {

FeatureVector fv(double BBLen, double Loads = 0.0, double Floats = 0.0) {
  FeatureVector X{};
  X[FeatBBLen] = BBLen;
  X[FeatLoad] = Loads;
  X[FeatFloat] = Floats;
  return X;
}

/// Linearly separable data: LS iff bbLen >= 8.  Minority LS.
Dataset separableData(size_t N, uint64_t Seed) {
  std::vector<Instance> Is;
  Rng R(Seed);
  for (size_t I = 0; I != N; ++I) {
    bool Big = R.chance(0.25);
    double BBLen = Big ? R.range(8, 30) : R.range(1, 7);
    Is.push_back({fv(BBLen, R.uniform(), R.uniform()),
                  Big ? Label::LS : Label::NS});
  }
  return Dataset::fromInstances("separable", Is);
}

/// Conjunctive concept: LS iff bbLen >= 8 AND loads >= 0.3.
Dataset conjunctiveData(size_t N, uint64_t Seed) {
  std::vector<Instance> Is;
  Rng R(Seed);
  for (size_t I = 0; I != N; ++I) {
    double BBLen = R.range(1, 20);
    double Loads = R.uniform();
    bool Pos = BBLen >= 8.0 && Loads >= 0.3;
    Is.push_back({fv(BBLen, Loads), Pos ? Label::LS : Label::NS});
  }
  return Dataset::fromInstances("conj", Is);
}

/// Disjunctive concept (needs at least two rules): LS iff bbLen >= 15 OR
/// floats >= 0.7.
Dataset disjunctiveData(size_t N, uint64_t Seed) {
  std::vector<Instance> Is;
  Rng R(Seed);
  for (size_t I = 0; I != N; ++I) {
    double BBLen = R.range(1, 20);
    double Floats = R.uniform();
    bool Pos = BBLen >= 15.0 || Floats >= 0.7;
    Is.push_back({fv(BBLen, 0.0, Floats), Pos ? Label::LS : Label::NS});
  }
  return Dataset::fromInstances("disj", Is);
}

} // namespace

TEST(Ripper, EmptyDataGivesEmptyNSRuleSet) {
  RuleSet RS = Ripper().train(Dataset("empty"));
  EXPECT_EQ(RS.size(), 0u);
  EXPECT_EQ(RS.getDefaultClass(), Label::NS);
}

TEST(Ripper, SingleClassAllNS) {
  std::vector<Instance> Is;
  for (int I = 0; I != 50; ++I)
    Is.push_back({fv(I % 10 + 1), Label::NS});
  Dataset D = Dataset::fromInstances("allns", Is);
  RuleSet RS = Ripper().train(D);
  EXPECT_EQ(RS.size(), 0u);
  EXPECT_EQ(RS.getDefaultClass(), Label::NS);
  EXPECT_EQ(test::countErrors(RS, D), 0u);
}

TEST(Ripper, SingleClassAllLS) {
  std::vector<Instance> Is;
  for (int I = 0; I != 50; ++I)
    Is.push_back({fv(I % 10 + 1), Label::LS});
  Dataset D = Dataset::fromInstances("allls", Is);
  RuleSet RS = Ripper().train(D);
  EXPECT_EQ(RS.getDefaultClass(), Label::LS);
  EXPECT_EQ(test::countErrors(RS, D), 0u);
}

TEST(Ripper, LearnsSeparableConceptExactly) {
  Dataset D = separableData(800, 42);
  RuleSet RS = Ripper().train(D);
  // A single threshold on bbLen separates the classes perfectly; RIPPER
  // should get training error (near) zero.
  EXPECT_LE(errorRatePercent(RS, D), 0.5);
  EXPECT_GE(RS.size(), 1u);
}

TEST(Ripper, GeneralizesSeparableConcept) {
  RuleSet RS = Ripper().train(separableData(800, 42));
  Dataset Test = separableData(400, 4242);
  EXPECT_LE(errorRatePercent(RS, Test), 2.0);
}

TEST(Ripper, LearnsConjunction) {
  Dataset D = conjunctiveData(1000, 7);
  RuleSet RS = Ripper().train(D);
  EXPECT_LE(errorRatePercent(RS, D), 2.0);
  Dataset Test = conjunctiveData(500, 77);
  EXPECT_LE(errorRatePercent(RS, Test), 4.0);
}

TEST(Ripper, LearnsDisjunctionWithMultipleRules) {
  Dataset D = disjunctiveData(1200, 13);
  RuleSet RS = Ripper().train(D);
  EXPECT_LE(errorRatePercent(RS, D), 3.0);
  // A disjunction of two unrelated tests needs at least two rules.
  EXPECT_GE(RS.size(), 2u);
}

TEST(Ripper, MinorityClassGetsTheRules) {
  Dataset D = separableData(600, 3); // LS minority by construction
  RuleSet RS = Ripper().train(D);
  EXPECT_EQ(RS.getDefaultClass(), Label::NS);
  for (const Rule &R : RS.rules())
    EXPECT_EQ(R.Conclusion, Label::LS);
}

TEST(Ripper, DeterministicGivenSeed) {
  Dataset D = conjunctiveData(600, 5);
  RuleSet A = Ripper().train(D);
  RuleSet B = Ripper().train(D);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    ASSERT_EQ(A.rules()[I].size(), B.rules()[I].size());
    for (size_t C = 0; C != A.rules()[I].size(); ++C) {
      EXPECT_EQ(A.rules()[I].Conditions[C].Feature,
                B.rules()[I].Conditions[C].Feature);
      EXPECT_EQ(A.rules()[I].Conditions[C].Threshold,
                B.rules()[I].Conditions[C].Threshold);
    }
  }
}

TEST(Ripper, SeedChangesSplitsButNotQuality) {
  Dataset D = conjunctiveData(800, 11);
  RipperOptions O1, O2;
  O1.Seed = 1;
  O2.Seed = 999;
  RuleSet A = Ripper(O1).train(D);
  RuleSet B = Ripper(O2).train(D);
  EXPECT_LE(errorRatePercent(A, D), 3.0);
  EXPECT_LE(errorRatePercent(B, D), 3.0);
}

TEST(Ripper, RobustToLabelNoise) {
  // 8% label noise: training error should stay near the noise floor, not
  // collapse to memorization (MDL pruning at work).
  std::vector<Instance> Is;
  Rng R(21);
  for (int I = 0; I != 1500; ++I) {
    double BBLen = R.range(1, 20);
    bool Pos = BBLen >= 10.0;
    if (R.chance(0.08))
      Pos = !Pos;
    Is.push_back({fv(BBLen, R.uniform()), Pos ? Label::LS : Label::NS});
  }
  Dataset D = Dataset::fromInstances("noisy", Is);
  RuleSet RS = Ripper().train(D);
  double Err = errorRatePercent(RS, D);
  EXPECT_LE(Err, 12.0);
  // The rule list should stay compact despite the noise.
  EXPECT_LE(RS.size(), 12u);
}

TEST(Ripper, BeatsMajorityOnImbalancedData) {
  Dataset D = separableData(1000, 17);
  RuleSet RS = Ripper().train(D);
  double MajorityErr =
      100.0 * static_cast<double>(D.countLabel(Label::LS)) /
      static_cast<double>(D.size());
  EXPECT_LT(errorRatePercent(RS, D), MajorityErr);
}

TEST(Ripper, CoverageCountsConsistent) {
  Dataset D = conjunctiveData(700, 29);
  RuleSet RS = Ripper().train(D);
  // train() annotates coverage; claims plus defaults must account for
  // every instance exactly once.
  size_t DC = 0, DI = 0;
  RuleSet Copy = RS;
  Copy.annotateCoverage(D, DC, DI);
  size_t Sum = DC + DI;
  for (const Rule &R : Copy.rules())
    Sum += R.NumCorrect + R.NumIncorrect;
  EXPECT_EQ(Sum, D.size());
  // And the pre-annotated counts match a recount.
  for (size_t I = 0; I != RS.size(); ++I) {
    EXPECT_EQ(RS.rules()[I].NumCorrect, Copy.rules()[I].NumCorrect);
    EXPECT_EQ(RS.rules()[I].NumIncorrect, Copy.rules()[I].NumIncorrect);
  }
}

TEST(Ripper, RespectsRuleCountCap) {
  RipperOptions O;
  O.MaxRules = 3;
  Dataset D = disjunctiveData(800, 31);
  RuleSet RS = Ripper(O).train(D);
  EXPECT_LE(RS.size(), 3u);
}

TEST(Ripper, RespectsConditionCap) {
  RipperOptions O;
  O.MaxConditionsPerRule = 2;
  Dataset D = conjunctiveData(800, 37);
  RuleSet RS = Ripper(O).train(D);
  for (const Rule &R : RS.rules())
    EXPECT_LE(R.size(), 2u);
}

TEST(Ripper, ZeroOptimizePassesStillWorks) {
  RipperOptions O;
  O.OptimizePasses = 0;
  Dataset D = separableData(500, 41);
  RuleSet RS = Ripper(O).train(D);
  EXPECT_LE(errorRatePercent(RS, D), 2.0);
}

// Property sweep: across seeds, RIPPER never performs worse on its own
// training data than always predicting the majority class.
class RipperProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RipperProperty, NeverWorseThanMajority) {
  Dataset D = disjunctiveData(500, GetParam());
  RuleSet RS = Ripper().train(D);
  size_t Minority = std::min(D.countLabel(Label::LS),
                             D.countLabel(Label::NS));
  EXPECT_LE(test::countErrors(RS, D), Minority);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RipperProperty,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128));
