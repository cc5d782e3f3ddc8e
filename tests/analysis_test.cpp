//===- tests/analysis_test.cpp - analysis/RuleAnalysis unit tests -----------===//
//
// The static analyzer's contracts: dead-rule/shadowed-rule/redundant-
// condition detection in the interval domain, default-class reachability
// on the corner grid, threshold hygiene, normalization (including the
// predict()-equivalence proof), and the corner-grid equivalence checker
// validated against brute-force sampling on randomized rule sets.
//
//===----------------------------------------------------------------------===//

#include "analysis/RuleAnalysis.h"

#include "harness/ParallelExperiments.h"
#include "ml/Serialization.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

using namespace schedfilter;

namespace {

constexpr double NaN = std::numeric_limits<double>::quiet_NaN();
constexpr double Inf = std::numeric_limits<double>::infinity();

Rule makeRule(Label Conclusion, std::vector<Condition> Conds) {
  Rule R;
  R.Conclusion = Conclusion;
  R.Conditions = std::move(Conds);
  return R;
}

size_t countKind(const RuleAnalysis &A, LintKind K) {
  size_t N = 0;
  for (const LintFinding &F : A.Findings)
    N += F.Kind == K;
  return N;
}

const LintFinding *findKind(const RuleAnalysis &A, LintKind K) {
  for (const LintFinding &F : A.Findings)
    if (F.Kind == K)
      return &F;
  return nullptr;
}

/// A random rule set over a coarse threshold lattice, so contradictions,
/// duplicates and containments actually occur.
RuleSet randomRuleSet(Rng &R) {
  RuleSet RS(R.chance(0.5) ? Label::NS : Label::LS);
  size_t NumRules = 1 + R.below(5);
  for (size_t I = 0; I != NumRules; ++I) {
    Rule Rule_;
    Rule_.Conclusion = R.chance(0.5) ? Label::LS : Label::NS;
    size_t NumConds = R.below(4); // 0 = match-all rule
    for (size_t C = 0; C != NumConds; ++C) {
      unsigned F = R.below(3); // few features -> frequent interactions
      double T = F == FeatBBLen ? static_cast<double>(R.range(0, 4))
                                : 0.25 * static_cast<double>(R.range(0, 4));
      Rule_.Conditions.push_back({F, R.chance(0.5), T});
    }
    RS.addRule(std::move(Rule_));
  }
  return RS;
}

FeatureVector randomPoint(Rng &R) {
  FeatureVector X{};
  for (unsigned F = 0; F != NumFeatures; ++F) {
    // Mix lattice values (where behavior changes) with off-lattice ones.
    double Lattice = F == FeatBBLen ? static_cast<double>(R.range(0, 4))
                                    : 0.25 * static_cast<double>(R.range(0, 4));
    X[F] = R.chance(0.5) ? Lattice : R.uniform(-1.0, 5.0);
  }
  return X;
}

} // namespace

// --- Feasibility -----------------------------------------------------------

TEST(Analysis, DeadRuleContradictoryBounds) {
  RuleSet RS(Label::NS);
  RS.addRule(makeRule(Label::LS, {{FeatBBLen, true, 3.0},     // bbLen <= 3
                                  {FeatBBLen, false, 7.0}})); // bbLen >= 7
  RuleAnalysis A = analyzeRuleSet(RS);
  const LintFinding *F = findKind(A, LintKind::DeadRule);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Severity, LintSeverity::Error);
  EXPECT_EQ(F->RuleIndex, 0u);
  ASSERT_EQ(A.RemoveRule.size(), 1u);
  EXPECT_TRUE(A.RemoveRule[0]);
  EXPECT_TRUE(A.hasErrors());

  RuleSet N = normalizeRuleSet(RS, A);
  EXPECT_EQ(N.size(), 0u);
  EquivalenceCheck Eq = checkPredictEquivalence(RS, N);
  EXPECT_TRUE(Eq.Equivalent);
  EXPECT_TRUE(Eq.Exhaustive);
}

TEST(Analysis, TouchingBoundsAreFeasible) {
  // bbLen <= 7 and bbLen >= 7 matches exactly bbLen == 7: not dead.
  RuleSet RS(Label::NS);
  RS.addRule(makeRule(Label::LS, {{FeatBBLen, true, 7.0},
                                  {FeatBBLen, false, 7.0}}));
  RuleAnalysis A = analyzeRuleSet(RS);
  EXPECT_EQ(countKind(A, LintKind::DeadRule), 0u);
  EXPECT_FALSE(A.RemoveRule[0]);
}

TEST(Analysis, NaNThresholdIsDeadAndNonFinite) {
  RuleSet RS(Label::NS);
  RS.addRule(makeRule(Label::LS, {{FeatLoad, false, NaN}}));
  RuleAnalysis A = analyzeRuleSet(RS);
  EXPECT_EQ(countKind(A, LintKind::NonFiniteThreshold), 1u);
  EXPECT_EQ(countKind(A, LintKind::DeadRule), 1u);
  EXPECT_TRUE(A.RemoveRule[0]);

  RuleSet N = normalizeRuleSet(RS, A);
  EXPECT_EQ(N.size(), 0u);
  EXPECT_TRUE(checkPredictEquivalence(RS, N).Equivalent);
}

TEST(Analysis, InfiniteThresholdErrorButAlive) {
  // 'loads >= inf' matches only the (unreachable-in-practice) input +inf;
  // it is an error finding but not provably dead over all doubles, so the
  // removal plan must leave it alone.
  RuleSet RS(Label::NS);
  RS.addRule(makeRule(Label::LS, {{FeatLoad, false, Inf}}));
  RuleAnalysis A = analyzeRuleSet(RS);
  EXPECT_EQ(countKind(A, LintKind::NonFiniteThreshold), 1u);
  EXPECT_EQ(countKind(A, LintKind::DeadRule), 0u);
  EXPECT_FALSE(A.RemoveRule[0]);
  EXPECT_TRUE(A.hasErrors());
}

// --- Within-rule redundancy ------------------------------------------------

TEST(Analysis, RedundantConditionSubsumedByTighter) {
  RuleSet RS(Label::NS);
  RS.addRule(makeRule(Label::LS, {{FeatBBLen, false, 5.0},   // looser >=
                                  {FeatBBLen, false, 7.0},   // tighter >=
                                  {FeatLoad, true, 0.8},     // looser <=
                                  {FeatLoad, true, 0.3}}));  // tighter <=
  RuleAnalysis A = analyzeRuleSet(RS);
  EXPECT_EQ(countKind(A, LintKind::RedundantCondition), 2u);
  ASSERT_EQ(A.RemoveCondition[0].size(), 4u);
  EXPECT_TRUE(A.RemoveCondition[0][0]);  // bbLen >= 5 subsumed by >= 7
  EXPECT_FALSE(A.RemoveCondition[0][1]);
  EXPECT_TRUE(A.RemoveCondition[0][2]);  // loads <= 0.8 subsumed by <= 0.3
  EXPECT_FALSE(A.RemoveCondition[0][3]);
  EXPECT_FALSE(A.hasErrors()); // redundancy is a warning

  RuleSet N = normalizeRuleSet(RS, A);
  ASSERT_EQ(N.size(), 1u);
  EXPECT_EQ(N.rules()[0].Conditions.size(), 2u);
  EquivalenceCheck Eq = checkPredictEquivalence(RS, N);
  EXPECT_TRUE(Eq.Equivalent);
  EXPECT_TRUE(Eq.Exhaustive);
}

TEST(Analysis, DuplicateConditionKeepsFirst) {
  RuleSet RS(Label::NS);
  RS.addRule(makeRule(Label::LS, {{FeatStore, true, 0.5},
                                  {FeatStore, true, 0.5}}));
  RuleAnalysis A = analyzeRuleSet(RS);
  EXPECT_EQ(countKind(A, LintKind::RedundantCondition), 1u);
  EXPECT_FALSE(A.RemoveCondition[0][0]);
  EXPECT_TRUE(A.RemoveCondition[0][1]);
}

TEST(Analysis, OppositeDirectionsAreNotRedundant) {
  RuleSet RS(Label::NS);
  RS.addRule(makeRule(Label::LS, {{FeatBBLen, false, 5.0},   // >= 5
                                  {FeatBBLen, true, 9.0}})); // <= 9
  RuleAnalysis A = analyzeRuleSet(RS);
  EXPECT_EQ(countKind(A, LintKind::RedundantCondition), 0u);
}

// --- Cross-rule shadowing --------------------------------------------------

TEST(Analysis, ShadowedRuleSameConclusionIsWarning) {
  RuleSet RS(Label::NS);
  RS.addRule(makeRule(Label::LS, {{FeatBBLen, false, 5.0}}));
  RS.addRule(makeRule(Label::LS, {{FeatBBLen, false, 8.0},
                                  {FeatLoad, true, 0.4}}));
  RuleAnalysis A = analyzeRuleSet(RS);
  const LintFinding *F = findKind(A, LintKind::ShadowedRule);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Severity, LintSeverity::Warning);
  EXPECT_EQ(F->RuleIndex, 1u);
  EXPECT_EQ(F->OtherRule, 0u);
  EXPECT_TRUE(A.RemoveRule[1]);
  EXPECT_FALSE(A.hasErrors());

  RuleSet N = normalizeRuleSet(RS, A);
  EXPECT_EQ(N.size(), 1u);
  EXPECT_TRUE(checkPredictEquivalence(RS, N).Equivalent);
}

TEST(Analysis, ShadowedRuleOppositeConclusionIsError) {
  RuleSet RS(Label::NS);
  RS.addRule(makeRule(Label::LS, {{FeatBBLen, false, 5.0}}));
  RS.addRule(makeRule(Label::NS, {{FeatBBLen, false, 8.0}}));
  RuleAnalysis A = analyzeRuleSet(RS);
  const LintFinding *F = findKind(A, LintKind::ShadowedRule);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Severity, LintSeverity::Error);
  EXPECT_TRUE(A.hasErrors());
  // Removal is still predict()-equivalent: the shadowed rule never fired.
  EXPECT_TRUE(
      checkPredictEquivalence(RS, normalizeRuleSet(RS, A)).Equivalent);
}

TEST(Analysis, OverlapWithoutContainmentIsNotShadowing) {
  RuleSet RS(Label::NS);
  RS.addRule(makeRule(Label::LS, {{FeatBBLen, false, 5.0}}));
  RS.addRule(makeRule(Label::NS, {{FeatLoad, false, 0.5}})); // overlaps only
  RuleAnalysis A = analyzeRuleSet(RS);
  EXPECT_EQ(countKind(A, LintKind::ShadowedRule), 0u);
}

TEST(Analysis, MatchAllRuleShadowsEverythingAfterIt) {
  RuleSet RS(Label::NS);
  RS.addRule(makeRule(Label::LS, {{FeatBBLen, false, 5.0}}));
  RS.addRule(makeRule(Label::LS, {})); // true: matches every block
  RS.addRule(makeRule(Label::NS, {{FeatBBLen, true, 2.0}}));
  RuleAnalysis A = analyzeRuleSet(RS);
  EXPECT_EQ(countKind(A, LintKind::ShadowedRule), 1u);
  EXPECT_TRUE(A.RemoveRule[2]);
  EXPECT_FALSE(A.RemoveRule[1]);
  // ... and makes the default class unreachable.
  EXPECT_EQ(countKind(A, LintKind::UnreachableDefault), 1u);
}

// --- Default-class reachability --------------------------------------------

TEST(Analysis, DefaultReachableThroughGap) {
  RuleSet RS(Label::NS);
  RS.addRule(makeRule(Label::LS, {{FeatBBLen, true, 10.0}}));
  RS.addRule(makeRule(Label::LS, {{FeatBBLen, false, 11.0}}));
  // Blocks with bbLen strictly between 10 and 11 fall through.
  RuleAnalysis A = analyzeRuleSet(RS);
  EXPECT_EQ(countKind(A, LintKind::UnreachableDefault), 0u);
}

TEST(Analysis, UnreachableDefaultAcrossTwoRules) {
  // x <= 10 and x >= 10 jointly cover every real input even though
  // neither rule alone does -- only the corner grid sees this.
  RuleSet RS(Label::NS);
  RS.addRule(makeRule(Label::LS, {{FeatBBLen, true, 10.0}}));
  RS.addRule(makeRule(Label::LS, {{FeatBBLen, false, 10.0}}));
  RuleAnalysis A = analyzeRuleSet(RS);
  const LintFinding *F = findKind(A, LintKind::UnreachableDefault);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Severity, LintSeverity::Warning);
  EXPECT_EQ(F->RuleIndex, LintFinding::npos);
}

TEST(Analysis, HugeGridLeavesDefaultUndecided) {
  // Thresholds on many features blow the corner grid past the cap; the
  // analyzer must say so (a note) rather than guess.
  RuleSet RS(Label::NS);
  Rng R(7);
  for (int I = 0; I != 4; ++I) {
    Rule Rule_;
    Rule_.Conclusion = Label::LS;
    for (unsigned F = 0; F != NumFeatures; ++F)
      Rule_.Conditions.push_back(
          {F, I % 2 == 0, 0.1 * static_cast<double>(I + 1)});
    RS.addRule(std::move(Rule_));
  }
  RuleAnalysis A = analyzeRuleSet(RS, nullptr, /*MaxGridPoints=*/1000);
  const LintFinding *F = findKind(A, LintKind::UnreachableDefault);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Severity, LintSeverity::Note);
}

// --- Threshold hygiene -----------------------------------------------------

TEST(Analysis, NegativeThresholdWarnings) {
  RuleSet RS(Label::NS);
  RS.addRule(makeRule(Label::LS, {{FeatCall, true, -0.2}}));  // never matches
  RS.addRule(makeRule(Label::LS, {{FeatCall, false, -0.2}})); // vacuous
  RuleAnalysis A = analyzeRuleSet(RS);
  EXPECT_EQ(countKind(A, LintKind::DomainMismatch), 2u);
  for (const LintFinding &F : A.Findings)
    if (F.Kind == LintKind::DomainMismatch) {
      EXPECT_EQ(F.Severity, LintSeverity::Warning);
    }
  // Domain hygiene is advisory: removal would change full-domain
  // behavior, so the plan must not touch these rules.
  EXPECT_FALSE(A.RemoveRule[0]);
  EXPECT_FALSE(A.RemoveRule[1]);
}

TEST(Analysis, FractionAboveOneWarns) {
  RuleSet RS(Label::NS);
  RS.addRule(makeRule(Label::LS, {{FeatLoad, false, 1.5}})); // never matches
  RS.addRule(makeRule(Label::LS, {{FeatLoad, true, 1.5}}));  // vacuous
  RS.addRule(makeRule(Label::LS, {{FeatBBLen, false, 40.0}})); // fine: a count
  RuleAnalysis A = analyzeRuleSet(RS);
  EXPECT_EQ(countKind(A, LintKind::DomainMismatch), 2u);
}

TEST(Analysis, ObservedRangeNotes) {
  std::vector<Instance> Obs;
  for (int I = 1; I <= 10; ++I) {
    FeatureVector X{};
    X[FeatBBLen] = I;
    X[FeatLoad] = 0.1 * I;
    Obs.push_back({X, Label::NS});
  }
  Dataset D = Dataset::fromInstances("obs", Obs);
  RuleSet RS(Label::NS);
  RS.addRule(makeRule(Label::LS, {{FeatBBLen, false, 25.0},  // outside [1,10]
                                  {FeatLoad, true, 0.5}}));  // inside [0.1,1]
  RuleAnalysis With = analyzeRuleSet(RS, &D);
  EXPECT_EQ(countKind(With, LintKind::OutOfObservedRange), 1u);
  const LintFinding *F = findKind(With, LintKind::OutOfObservedRange);
  EXPECT_EQ(F->Severity, LintSeverity::Note);
  EXPECT_EQ(F->CondIndex, 0u);
  // Without a dataset the check is silent.
  RuleAnalysis Without = analyzeRuleSet(RS);
  EXPECT_EQ(countKind(Without, LintKind::OutOfObservedRange), 0u);
}

// --- Normalization ---------------------------------------------------------

TEST(Analysis, NormalizationPreservesCoverageAndOrder) {
  RuleSet RS(Label::LS);
  Rule Dead = makeRule(Label::NS, {{FeatBBLen, true, 1.0},
                                   {FeatBBLen, false, 9.0}});
  Rule Keep1 = makeRule(Label::NS, {{FeatBBLen, true, 4.0}});
  Keep1.NumCorrect = 21;
  Keep1.NumIncorrect = 2;
  Rule Keep2 = makeRule(Label::NS, {{FeatLoad, false, 0.7}});
  Keep2.NumCorrect = 9;
  RS.addRule(Dead);
  RS.addRule(Keep1);
  RS.addRule(Keep2);
  RuleAnalysis A = analyzeRuleSet(RS);
  RuleSet N = normalizeRuleSet(RS, A);
  ASSERT_EQ(N.size(), 2u);
  EXPECT_EQ(N.getDefaultClass(), Label::LS);
  EXPECT_EQ(N.rules()[0].NumCorrect, 21u);
  EXPECT_EQ(N.rules()[0].NumIncorrect, 2u);
  EXPECT_EQ(N.rules()[1].NumCorrect, 9u);
}

TEST(Analysis, NormalizationIsIdempotent) {
  Rng Seed(0xA11CE);
  for (int Trial = 0; Trial != 200; ++Trial) {
    Rng R = Seed.fork(Trial);
    RuleSet RS = randomRuleSet(R);
    RuleAnalysis A = analyzeRuleSet(RS);
    RuleSet N = normalizeRuleSet(RS, A);
    RuleAnalysis A2 = analyzeRuleSet(N);
    EXPECT_EQ(A2.removedRules(), 0u) << "trial " << Trial;
    EXPECT_EQ(A2.removedConditions(), 0u) << "trial " << Trial;
  }
}

// --- Corner-grid equivalence checker ---------------------------------------

TEST(Analysis, NormalizedSetsEquivalentOnRandomizedRuleSets) {
  // The heart of the --fix guarantee: for randomized rule sets (dense in
  // dead rules, duplicates and containments by construction), the
  // normalized set must agree with the original on the exhaustive corner
  // grid AND under independent brute-force sampling.
  Rng Seed(0xBEEF);
  size_t Normalized = 0;
  for (int Trial = 0; Trial != 300; ++Trial) {
    Rng R = Seed.fork(Trial);
    RuleSet RS = randomRuleSet(R);
    RuleAnalysis A = analyzeRuleSet(RS);
    RuleSet N = normalizeRuleSet(RS, A);
    Normalized += A.removedRules() + A.removedConditions() != 0;

    EquivalenceCheck Eq = checkPredictEquivalence(RS, N);
    ASSERT_TRUE(Eq.Exhaustive) << "trial " << Trial;
    ASSERT_TRUE(Eq.Equivalent)
        << "trial " << Trial << ": corner grid disagreed after "
        << Eq.PointsChecked << " points";

    for (int P = 0; P != 200; ++P) {
      FeatureVector X = randomPoint(R);
      ASSERT_EQ(RS.predict(X), N.predict(X)) << "trial " << Trial;
    }
  }
  // The lattice construction must actually exercise normalization.
  EXPECT_GT(Normalized, 50u);
}

TEST(Analysis, CheckerAgreesWithBruteForceOnIndependentPairs) {
  // Validate the checker itself: for *independent* random pairs, its
  // verdict must match reality -- a "not equivalent" must come with a
  // genuine counterexample, and an "equivalent" must survive brute force.
  Rng Seed(0xD15C);
  size_t Inequivalent = 0;
  for (int Trial = 0; Trial != 200; ++Trial) {
    Rng R = Seed.fork(Trial);
    RuleSet A = randomRuleSet(R);
    RuleSet B = randomRuleSet(R);
    EquivalenceCheck Eq = checkPredictEquivalence(A, B);
    ASSERT_TRUE(Eq.Exhaustive);
    if (!Eq.Equivalent) {
      ++Inequivalent;
      EXPECT_NE(A.predict(Eq.Counterexample), B.predict(Eq.Counterexample))
          << "trial " << Trial << ": counterexample does not disagree";
    } else {
      for (int P = 0; P != 500; ++P) {
        FeatureVector X = randomPoint(R);
        ASSERT_EQ(A.predict(X), B.predict(X))
            << "trial " << Trial << ": brute force refutes 'equivalent'";
      }
    }
  }
  // Independent pairs should usually differ somewhere.
  EXPECT_GT(Inequivalent, 100u);
}

TEST(Analysis, EquivalenceCatchesNaNOnlyDifference) {
  // Two sets that agree on every real input but differ on a NaN feature
  // vector: rule 'true' matches NaN inputs, the two-rule cover does not.
  // The grid's NaN coordinates must find the difference.
  RuleSet A(Label::NS);
  A.addRule(makeRule(Label::LS, {}));
  RuleSet B(Label::NS);
  B.addRule(makeRule(Label::LS, {{FeatBBLen, true, 10.0}}));
  B.addRule(makeRule(Label::LS, {{FeatBBLen, false, 10.0}}));
  EquivalenceCheck Eq = checkPredictEquivalence(A, B);
  ASSERT_TRUE(Eq.Exhaustive);
  EXPECT_FALSE(Eq.Equivalent);
  EXPECT_TRUE(std::isnan(Eq.Counterexample[FeatBBLen]));
}

TEST(Analysis, SampledFallbackOnHugeGrids) {
  // Dense thresholds on all 13 features: the grid is astronomically
  // large, so the checker must fall back to sampling and say so.
  RuleSet A(Label::NS);
  Rng R(3);
  for (int I = 0; I != 6; ++I) {
    Rule Rule_;
    Rule_.Conclusion = I % 2 ? Label::LS : Label::NS;
    for (unsigned F = 0; F != NumFeatures; ++F)
      Rule_.Conditions.push_back({F, R.chance(0.5), R.uniform()});
    A.addRule(std::move(Rule_));
  }
  EquivalenceCheck Eq = checkPredictEquivalence(A, A, /*MaxPoints=*/5000);
  EXPECT_FALSE(Eq.Exhaustive);
  EXPECT_TRUE(Eq.Equivalent);
  EXPECT_EQ(Eq.PointsChecked, 5000u);
}

// --- Diagnostics rendering -------------------------------------------------

TEST(Analysis, PrintFindingsUsesFileLineDiscipline) {
  std::stringstream File("schedfilter-rules v1\n"
                         "default NS\n"
                         "# comment\n"
                         "rule LS :- bbLen >= 7, bbLen <= 3\n");
  ParseResult<RuleSetFile> Parsed = readRuleSetFile(File);
  ASSERT_TRUE(Parsed.has_value()) << Parsed.error().str();
  ASSERT_EQ(Parsed->RuleLines.size(), 1u);
  EXPECT_EQ(Parsed->RuleLines[0], 4u);

  RuleAnalysis A = analyzeRuleSet(Parsed->Rules);
  std::stringstream Out;
  size_t N = printFindings(A, Out, "rules.txt", &Parsed->RuleLines);
  EXPECT_EQ(N, A.Findings.size());
  EXPECT_NE(Out.str().find("rules.txt:4: error: rule #1 is dead"),
            std::string::npos)
      << Out.str();
}

// --- Golden pin ------------------------------------------------------------

TEST(Golden, TrainedFilterLintStableAtZero) {
  // The paper-setting filter (SPECjvm98, t = 0, jack held out -- the
  // Figure 4 artifact): the trainer must induce no dead or shadowed
  // rules and no error-severity findings, and normalization (which may
  // only strip redundant conditions) must be proven predict()-equivalent
  // on the exhaustive corner grid.
  MachineModel Model = MachineModel::ppc7410();
  ExperimentEngine Engine;
  std::vector<BenchmarkRun> Suite =
      Engine.generateSuiteData(specjvm98Suite(), Model);
  std::vector<Dataset> Labeled = Engine.labelSuite(Suite, 0.0);
  Dataset Train("minus-jack");
  for (size_t I = 0; I + 1 < Labeled.size(); ++I)
    Train.append(Labeled[I]);
  RuleSet Filter = ripperLearner()(Train);

  RuleAnalysis A = analyzeRuleSet(Filter, &Train);
  EXPECT_EQ(A.numFindings(LintSeverity::Error), 0u);
  EXPECT_EQ(countKind(A, LintKind::DeadRule), 0u);
  EXPECT_EQ(countKind(A, LintKind::ShadowedRule), 0u);
  EXPECT_EQ(A.removedRules(), 0u);

  // The trained filter spreads ~25 thresholds over most of the 13
  // features, so the corner grid is astronomically large (observed
  // ~1.9e9 points); the checker samples it deterministically.  Either
  // way, the verdict must be "equivalent".
  RuleSet N = normalizeRuleSet(Filter, A);
  EquivalenceCheck Eq = checkPredictEquivalence(Filter, N);
  EXPECT_TRUE(Eq.Equivalent)
      << (Eq.Exhaustive ? "exhaustive" : "sampled") << " check over "
      << Eq.PointsChecked << " of " << Eq.GridSize << " points disagreed";
  EXPECT_GT(Eq.PointsChecked, 0u);

  // Normalization-stable: a second analysis finds nothing left to do.
  RuleAnalysis A2 = analyzeRuleSet(N);
  EXPECT_EQ(A2.removedRules(), 0u);
  EXPECT_EQ(A2.removedConditions(), 0u);

  // And per-benchmark self-trained filters are clean too.
  for (const Dataset &D : Labeled) {
    RuleSet Own = ripperLearner()(D);
    RuleAnalysis OwnA = analyzeRuleSet(Own, &D);
    EXPECT_EQ(OwnA.numFindings(LintSeverity::Error), 0u) << D.getName();
    EXPECT_EQ(OwnA.removedRules(), 0u) << D.getName();
    EquivalenceCheck OwnEq =
        checkPredictEquivalence(Own, normalizeRuleSet(Own, OwnA));
    EXPECT_TRUE(OwnEq.Equivalent) << D.getName();
  }
}
