//===- tests/ripper_extra_test.cpp - deeper RIPPER behaviour tests -------------===//
//
// Beyond ripper_test.cpp's functional checks: properties of the MDL
// stopping rule, the optimization passes, class handling, and behaviour
// on pathological datasets.
//
//===----------------------------------------------------------------------===//

#include "ml/Ripper.h"

#include "TestHelpers.h"
#include "ml/Metrics.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace schedfilter;

namespace {

FeatureVector fv(double BBLen, double Loads = 0.0, double Calls = 0.0) {
  FeatureVector X{};
  X[FeatBBLen] = BBLen;
  X[FeatLoad] = Loads;
  X[FeatCall] = Calls;
  return X;
}

/// Three-clause disjunction with 5% noise: a realistic hard target.
Dataset hardData(size_t N, uint64_t Seed) {
  std::vector<Instance> Is;
  Rng R(Seed);
  for (size_t I = 0; I != N; ++I) {
    double BBLen = R.range(1, 24);
    double Loads = R.uniform();
    double Calls = R.uniform() * 0.3;
    bool Pos = (BBLen >= 16) || (BBLen >= 8 && Loads >= 0.5) ||
               (Loads >= 0.85 && Calls <= 0.05);
    if (R.chance(0.05))
      Pos = !Pos;
    Is.push_back({fv(BBLen, Loads, Calls), Pos ? Label::LS : Label::NS});
  }
  return Dataset::fromInstances("hard", Is);
}

} // namespace

TEST(RipperExtra, MdlKeepsModelsSmallOnPureNoise) {
  std::vector<Instance> Is;
  Rng R(1);
  for (int I = 0; I != 2000; ++I)
    Is.push_back({fv(R.range(1, 20), R.uniform(), R.uniform()),
                  R.chance(0.35) ? Label::LS : Label::NS});
  Dataset D = Dataset::fromInstances("purenoise", Is);
  RuleSet RS = Ripper().train(D);
  // With no learnable signal, the description-length criterion should
  // keep the rule list very small (ideally empty).
  EXPECT_LE(RS.totalConditions(), 20u);
  // And never do worse than majority.
  EXPECT_LE(test::countErrors(RS, D),
            std::min(D.countLabel(Label::LS), D.countLabel(Label::NS)));
}

TEST(RipperExtra, OptimizationPassesDoNotHurtTrainingError) {
  Dataset D = hardData(1500, 2);
  RipperOptions NoOpt, TwoOpt;
  NoOpt.OptimizePasses = 0;
  TwoOpt.OptimizePasses = 2;
  double E0 = errorRatePercent(Ripper(NoOpt).train(D), D);
  double E2 = errorRatePercent(Ripper(TwoOpt).train(D), D);
  EXPECT_LE(E2, E0 + 1.0);
}

TEST(RipperExtra, OptimizationTendsToSimplify) {
  Dataset D = hardData(1500, 3);
  RipperOptions NoOpt, TwoOpt;
  NoOpt.OptimizePasses = 0;
  TwoOpt.OptimizePasses = 2;
  size_t C0 = Ripper(NoOpt).train(D).totalConditions();
  size_t C2 = Ripper(TwoOpt).train(D).totalConditions();
  EXPECT_LE(C2, C0 + 6); // usually smaller; never wildly bigger
}

TEST(RipperExtra, HandlesMajorityPositiveData) {
  // When LS is the majority, RIPPER must flip: rules for NS, default LS.
  std::vector<Instance> Is;
  Rng R(4);
  for (int I = 0; I != 600; ++I) {
    double BBLen = R.range(1, 20);
    Is.push_back({fv(BBLen), BBLen >= 5 ? Label::LS : Label::NS}); // ~80% LS
  }
  Dataset D = Dataset::fromInstances("majpos", Is);
  RuleSet RS = Ripper().train(D);
  EXPECT_EQ(RS.getDefaultClass(), Label::LS);
  for (const Rule &Rl : RS.rules())
    EXPECT_EQ(Rl.Conclusion, Label::NS);
  EXPECT_LE(errorRatePercent(RS, D), 1.0);
}

TEST(RipperExtra, DuplicatedInstancesDoNotBreakTraining) {
  std::vector<Instance> Is;
  for (int I = 0; I != 200; ++I) {
    Is.push_back({fv(12, 0.5), Label::LS});
    Is.push_back({fv(3, 0.1), Label::NS});
    Is.push_back({fv(3, 0.1), Label::NS});
  }
  Dataset D = Dataset::fromInstances("dups", Is);
  RuleSet RS = Ripper().train(D);
  EXPECT_EQ(test::countErrors(RS, D), 0u);
}

TEST(RipperExtra, ContradictoryDuplicatesHitNoiseFloor) {
  // The same point labeled both ways 20/80: Bayes error is 20%.
  std::vector<Instance> Is;
  for (int I = 0; I != 500; ++I)
    Is.push_back({fv(10, 0.5), I % 5 == 0 ? Label::LS : Label::NS});
  Dataset D = Dataset::fromInstances("contra", Is);
  RuleSet RS = Ripper().train(D);
  double Err = errorRatePercent(RS, D);
  EXPECT_NEAR(Err, 20.0, 0.5); // cannot beat Bayes; must not overfit
}

TEST(RipperExtra, SingleInstancePerClass) {
  Dataset D = Dataset::fromInstances(
      "tiny", {{fv(12, 0.9), Label::LS}, {fv(2, 0.1), Label::NS}});
  RuleSet RS = Ripper().train(D);
  // Must not crash; prediction quality on 2 points is unconstrained, but
  // the default class must be valid.
  (void)RS.predict(fv(12, 0.9));
  (void)RS.predict(fv(2, 0.1));
}

TEST(RipperExtra, GrowFractionExtremes) {
  Dataset D = hardData(800, 5);
  for (double Frac : {0.5, 0.9}) {
    RipperOptions O;
    O.GrowFraction = Frac;
    RuleSet RS = Ripper(O).train(D);
    EXPECT_LE(errorRatePercent(RS, D), 15.0) << "GrowFraction " << Frac;
  }
}

TEST(RipperExtra, MdlSlackZeroStillProducesAFilter) {
  RipperOptions O;
  O.MdlSlackBits = 0.0; // most aggressive stopping
  Dataset D = hardData(800, 6);
  RuleSet RS = Ripper(O).train(D);
  EXPECT_LE(test::countErrors(RS, D),
            std::min(D.countLabel(Label::LS), D.countLabel(Label::NS)));
}

TEST(RipperExtra, RulesNeverContradictTheirCoverageCounts) {
  Dataset D = hardData(1000, 7);
  RuleSet RS = Ripper().train(D);
  for (const Rule &Rl : RS.rules()) {
    // Every rule that survived must have claimed at least as many correct
    // as incorrect training instances (otherwise MDL deletion or the
    // prune-error guard should have removed it).
    EXPECT_GE(Rl.NumCorrect + 2, Rl.NumIncorrect)
        << Rl.toString();
  }
}

TEST(RipperExtra, GeneralizationGapIsBounded) {
  Dataset Train = hardData(2000, 8);
  Dataset Test = hardData(1000, 88);
  RuleSet RS = Ripper().train(Train);
  double TrainErr = errorRatePercent(RS, Train);
  double TestErr = errorRatePercent(RS, Test);
  EXPECT_LE(TestErr, TrainErr + 6.0) << "severe overfitting";
  EXPECT_LE(TestErr, 16.0); // 5% label noise floor + learnable structure
}
