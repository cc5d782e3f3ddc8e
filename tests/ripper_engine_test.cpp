//===- tests/ripper_engine_test.cpp - indexed-engine equivalence pins --------===//
//
// The indexed RIPPER trainer (views of a shared rank table, rank-histogram
// sweeps and incremental mask-based MDL bookkeeping; ml/Ripper.cpp) must
// produce *bit-for-bit* the RuleSet of the original sort-per-condition
// implementation, which lives on verbatim in tests/ReferenceRipper.h --
// across synthetic datasets, a many-rule corpus that keeps mop-up and
// deletion busy, the real LOOCV folds sf-report trains, seeds, option
// settings and TaskPool job counts.  A sweep's folds, trained on views of
// one suite-wide table, must equal the same folds ranked on their own,
// including when a fold drops the row that gave a -0.0/+0.0 rank its
// bits.  Plus the degenerate inputs the rank machinery could plausibly
// mishandle: tiny datasets whose ceil-based grow/prune split leaves an
// empty prune side, single-class data, and all-identical feature columns.
//
//===----------------------------------------------------------------------===//

#include "ml/Ripper.h"

#include "ReferenceRipper.h"
#include "harness/ParallelExperiments.h"
#include "RuleSetIdentity.h"
#include "ml/Metrics.h"
#include "support/Rng.h"
#include "support/TaskPool.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace schedfilter;

namespace {

FeatureVector fv(double BBLen, double Loads = 0.0, double Calls = 0.0) {
  FeatureVector X{};
  X[FeatBBLen] = BBLen;
  X[FeatLoad] = Loads;
  X[FeatCall] = Calls;
  return X;
}

/// Asserts two rule sets are byte-identical.  The verdict is the shared
/// identicalRuleSets (the same checker bench_train_scale gates on); the
/// per-field EXPECTs below it exist to name the first diverging field
/// when something breaks.
void expectIdentical(const RuleSet &A, const RuleSet &B,
                     const std::string &What) {
  EXPECT_TRUE(identicalRuleSets(A, B)) << What;
  EXPECT_EQ(A.getDefaultClass(), B.getDefaultClass()) << What;
  ASSERT_EQ(A.size(), B.size()) << What;
  for (size_t R = 0; R != A.size(); ++R) {
    const Rule &RA = A.rules()[R], &RB = B.rules()[R];
    EXPECT_EQ(RA.Conclusion, RB.Conclusion) << What << " rule " << R;
    EXPECT_EQ(RA.NumCorrect, RB.NumCorrect) << What << " rule " << R;
    EXPECT_EQ(RA.NumIncorrect, RB.NumIncorrect) << What << " rule " << R;
    ASSERT_EQ(RA.size(), RB.size()) << What << " rule " << R;
    for (size_t C = 0; C != RA.size(); ++C) {
      EXPECT_EQ(RA.Conditions[C].Feature, RB.Conditions[C].Feature)
          << What << " rule " << R << " cond " << C;
      EXPECT_EQ(RA.Conditions[C].IsLessEqual, RB.Conditions[C].IsLessEqual)
          << What << " rule " << R << " cond " << C;
      EXPECT_TRUE(sameBits(RA.Conditions[C].Threshold,
                           RB.Conditions[C].Threshold))
          << What << " rule " << R << " cond " << C << ": "
          << RA.Conditions[C].Threshold << " vs " << RB.Conditions[C].Threshold;
    }
  }
  // Belt and braces: the Figure 4 rendering is byte-identical too.
  EXPECT_EQ(A.toString(), B.toString()) << What;
}

/// Linearly separable data: LS iff bbLen >= 8.  Minority LS.
Dataset separableData(size_t N, uint64_t Seed) {
  std::vector<Instance> Is;
  Rng R(Seed);
  for (size_t I = 0; I != N; ++I) {
    bool Big = R.chance(0.25);
    double BBLen = Big ? R.range(8, 30) : R.range(1, 7);
    Is.push_back(
        {fv(BBLen, R.uniform(), R.uniform()), Big ? Label::LS : Label::NS});
  }
  return Dataset::fromInstances("separable", Is);
}

/// Three-clause disjunction with 5% noise: a realistic hard target.
std::vector<Instance> hardInstances(size_t N, uint64_t Seed) {
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
  return Is;
}

Dataset hardData(size_t N, uint64_t Seed) {
  return Dataset::fromInstances("hard", hardInstances(N, Seed));
}

/// Every Table 1 shape in one dataset: a small-integer bbLen, k/n
/// fractions with small n in eleven columns (a few dozen distinct values
/// each), and one continuous column (nearly one distinct value per
/// instance, so on a rule's small covered sets its histogram is almost
/// all empty bins).  The label depends on several of them, with 5% noise.
Dataset mixedShapeData(size_t N, uint64_t Seed) {
  std::vector<Instance> Is;
  Rng R(Seed);
  for (size_t I = 0; I != N; ++I) {
    FeatureVector X{};
    double Len = static_cast<double>(R.range(1, 12));
    X[FeatBBLen] = Len;
    for (unsigned F = FeatBranch; F != FeatYield; ++F)
      X[F] = static_cast<double>(R.range(0, static_cast<int>(Len))) / Len;
    X[FeatYield] = R.uniform();
    bool Pos = (Len >= 9 && X[FeatLoad] >= 0.25) ||
               (X[FeatYield] >= 0.8 && X[FeatCall] <= 0.2) ||
               (X[FeatFloat] >= 0.5 && X[FeatStore] <= 0.1);
    if (R.chance(0.05))
      Pos = !Pos;
    Is.push_back({X, Pos ? Label::LS : Label::NS});
  }
  return Dataset::fromInstances("mixed", Is);
}

/// A noisy checkerboard over two small-integer columns: LS on the cells
/// where (a / 4 + b / 4) is even, so the positive class is a union of
/// many boxes, with 3% label noise.  Large enough to induce well over a
/// dozen rules, so mop-up and deletion both get work.
Dataset checkerData(size_t N, uint64_t Seed) {
  std::vector<Instance> Is;
  Rng R(Seed);
  for (size_t I = 0; I != N; ++I) {
    FeatureVector X{};
    int A = R.range(0, 23), B = R.range(0, 23);
    X[FeatBBLen] = A;
    X[FeatLoad] = B / 24.0;
    X[FeatStore] = R.range(0, 5) / 6.0;
    bool Pos = (A / 4 + B / 4) % 2 == 0;
    if (R.chance(0.03))
      Pos = !Pos;
    Is.push_back({X, Pos ? Label::LS : Label::NS});
  }
  return Dataset::fromInstances("checker", Is);
}

} // namespace

TEST(RipperEngine, ManyRuleCorpusMatchesReferenceAtAnyJobCount) {
  Dataset D = checkerData(2500, 4);
  RuleSet Serial = Ripper().train(D);
  EXPECT_GE(Serial.size(), 15u);
  expectIdentical(Serial, reference::trainReference(D), "checker, serial");
  for (unsigned Jobs : {2u, 4u}) {
    TaskPool Pool(Jobs);
    expectIdentical(Ripper().train(D, Pool), Serial,
                    "checker, jobs=" + std::to_string(Jobs));
  }
}

TEST(RipperEngine, SubtractedFirstSearchMatchesReferenceOnThePool) {
  // A grow split of ~4 000 instances, above ParallelMinCovered, so the
  // pool fans out the first search of fresh rules, which fills as the
  // universe's histogram minus the prune split.  Training this corpus
  // replaces and revises rules in the optimization pass, mops up and
  // deletes rules.
  Dataset D = checkerData(6000, 2);
  RuleSet Reference = reference::trainReference(D);
  EXPECT_GE(Reference.size(), 15u);
  expectIdentical(Ripper().train(D), Reference, "checker 6000, serial");
  for (unsigned Jobs : {1u, 2u, 4u}) {
    TaskPool Pool(Jobs);
    expectIdentical(Ripper().train(D, Pool), Reference,
                    "checker 6000, jobs=" + std::to_string(Jobs));
  }
}

TEST(RipperEngine, RankTableMirrorsInstancesBitExactly) {
  std::vector<Instance> Is = hardInstances(257, 11);
  Dataset D = Dataset::fromInstances("hard", Is);
  const std::shared_ptr<const RankTable> &T = D.rankTable();
  ASSERT_EQ(T->rows(), D.size());
  for (unsigned F = 0; F != NumFeatures; ++F) {
    const std::vector<double> &RV = T->rankValues(F);
    for (size_t R = 1; R < RV.size(); ++R)
      EXPECT_LT(RV[R - 1], RV[R]) << "rank values ascend strictly, F=" << F;
    for (size_t I = 0; I != D.size(); ++I) {
      EXPECT_TRUE(sameBits(T->values(F)[I], Is[I].X[F])) << I << "/" << F;
      ASSERT_LT(T->ranks(F)[I], RV.size()) << I << "/" << F;
      EXPECT_EQ(RV[T->ranks(F)[I]], Is[I].X[F]) << I << "/" << F;
      EXPECT_TRUE(sameBits(D[I].X[F], Is[I].X[F])) << I << "/" << F;
    }
    // Ranks are monotone in the values: a smaller value never outranks a
    // larger one.
    for (size_t I = 0; I != D.size(); ++I)
      for (size_t J = 0; J != D.size(); ++J) {
        if (Is[I].X[F] < Is[J].X[F]) {
          ASSERT_LT(T->ranks(F)[I], T->ranks(F)[J]) << I << "/" << J;
        }
      }
    EXPECT_TRUE(T->mixedRanks(F).empty());
  }
}

TEST(RipperEngine, DatasetsKeepTheirRankTableOnlyWhileRowsMatch) {
  std::vector<Instance> Is = hardInstances(50, 3);
  Dataset Base = Dataset::fromInstances("hard", Is);
  std::shared_ptr<const RankTable> T = Base.rankTable();
  Dataset A("a", T), B("b", T);
  for (uint32_t R = 0; R != 50; ++R)
    (R % 2 ? A : B).addRow(R, Is[R].Y);
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A.label(I), Is[A.rowIds()[I]].Y);
    for (unsigned F = 0; F != NumFeatures; ++F)
      EXPECT_TRUE(sameBits(A[I].X[F], Is[A.rowIds()[I]].X[F]));
  }

  Dataset Pooled("pooled");
  Pooled.append(A);
  Pooled.append(B);
  EXPECT_EQ(Pooled.rankTable(), T);
  ASSERT_EQ(Pooled.rowIds().size(), Pooled.size());
  EXPECT_EQ(Pooled.rowIds()[A.size()], B.rowIds()[0]);
  // Rows of the same table append in any grouping, Base's own included.
  Dataset Again = Pooled;
  Again.append(Base);
  EXPECT_EQ(Again.rankTable(), T);
  EXPECT_EQ(Again.rowIds().size(), 100u);
}

TEST(RipperEngineDeathTest, AppendAcrossRankTablesAborts) {
  // Rows of two tables cannot share one view: pooling them is a bug in
  // the caller (label the sets together instead), and it dies in every
  // build type rather than train on a silently re-ranked set.
  Dataset A = hardData(20, 3);
  Dataset B = hardData(20, 4);
  EXPECT_DEATH(A.append(B), "cannot append 'hard', whose rows belong to "
                            "another rank table");
  Dataset Empty("empty");
  Empty.append(A); // an empty side takes the other's table
  EXPECT_EQ(Empty.rankTable(), A.rankTable());
  EXPECT_DEATH(Empty.append(B), "another rank table");
}

TEST(RipperEngine, MatchesReferenceOnStockDatasets) {
  std::vector<Dataset> Datasets = {
      separableData(800, 42), hardData(1000, 7), hardData(1500, 2)};
  for (const Dataset &D : Datasets)
    expectIdentical(Ripper().train(D), reference::trainReference(D),
                    D.getName());
}

TEST(RipperEngine, MatchesReferenceAcrossSeeds) {
  for (uint64_t Seed : {1ull, 2ull, 17ull, 999ull, 0xDEADBEEFull}) {
    Dataset D = hardData(700, Seed * 13 + 1);
    RipperOptions O;
    O.Seed = Seed;
    expectIdentical(Ripper(O).train(D),
                    reference::trainReference(D, O),
                    "seed " + std::to_string(Seed));
  }
}

TEST(RipperEngine, MatchesReferenceAcrossOptionSettings) {
  Dataset D = hardData(900, 5);
  std::vector<RipperOptions> Settings(5);
  Settings[1].OptimizePasses = 0;
  Settings[2].GrowFraction = 0.5;
  Settings[3].MdlSlackBits = 0.0;
  Settings[4].MaxConditionsPerRule = 2;
  Settings[4].MaxRules = 3;
  for (size_t S = 0; S != Settings.size(); ++S)
    expectIdentical(Ripper(Settings[S]).train(D),
                    reference::trainReference(D, Settings[S]),
                    "options " + std::to_string(S));
}

TEST(RipperEngine, PooledTrainingIsByteIdenticalAtAnyJobCount) {
  // Large enough that the per-feature fan-out actually engages (the
  // covered set exceeds the inline threshold), plus a small dataset where
  // it never does -- both must match serial and the reference exactly.
  for (size_t N : {300u, 6000u}) {
    Dataset D = hardData(N, 31);
    RuleSet Serial = Ripper().train(D);
    expectIdentical(Serial, reference::trainReference(D),
                    "serial vs reference n=" + std::to_string(N));
    for (unsigned Jobs : {2u, 4u}) {
      TaskPool Pool(Jobs);
      expectIdentical(Ripper().train(D, Pool), Serial,
                      "jobs=" + std::to_string(Jobs) +
                          " n=" + std::to_string(N));
    }
  }
}

TEST(RipperEngine, PooledLearnerMatchesFromInsideAPoolTask) {
  // LOOCV runs learners *inside* pool tasks (nested parallelFor runs
  // inline); the filter must still be byte-identical.
  Dataset D = hardData(500, 77);
  RuleSet Serial = Ripper().train(D);
  TaskPool Pool(4);
  std::vector<RuleSet> Out(3, RuleSet(Label::NS));
  Pool.parallelFor(Out.size(),
                   [&](size_t I) { Out[I] = Ripper().train(D, Pool); });
  for (size_t I = 0; I != Out.size(); ++I)
    expectIdentical(Out[I], Serial, "nested slot " + std::to_string(I));
}

TEST(RipperEngine, MatchesReferenceOnRealLoocvFolds) {
  // The sweep's own training sets: the SPECjvm98 suite traced fresh (no
  // corpus cache), labeled at three thresholds, minus one held-out
  // benchmark -- exactly the folds sf-report trains.
  ExperimentEngine Engine;
  std::vector<BenchmarkRun> Runs =
      Engine.generateSuiteData(specjvm98Suite(), MachineModel::ppc7410());
  for (double T : {0.0, 25.0, 50.0}) {
    std::vector<Dataset> Labeled = Engine.labelSuite(Runs, T);
    ASSERT_GE(Labeled.size(), 3u);
    for (size_t Held = 0; Held != 3; ++Held) {
      Dataset Fold("fold");
      for (size_t B = 0; B != Labeled.size(); ++B)
        if (B != Held)
          Fold.append(Labeled[B]);
      expectIdentical(Ripper().train(Fold), reference::trainReference(Fold),
                      "t=" + std::to_string(T) + " without " +
                          Labeled[Held].getName());
    }
  }
}

TEST(RipperEngine, SweepFiltersMatchPerFoldTraining) {
  // runThresholdSweep ranks the suite once and trains all 77 folds on
  // views of that table; each filter must equal a training of the same
  // fold's instances on a table of their own (Dataset::fromInstances).
  ExperimentEngine Engine(4);
  std::vector<BenchmarkRun> Runs =
      Engine.generateSuiteData(specjvm98Suite(), MachineModel::ppc7410());
  std::vector<double> Thresholds = paperThresholds();
  std::vector<ThresholdResult> Sweep =
      Engine.runThresholdSweep(Runs, Thresholds, ripperLearner());
  ASSERT_EQ(Sweep.size(), Thresholds.size());
  size_t Folds = 0;
  for (size_t T = 0; T != Thresholds.size(); ++T) {
    ASSERT_EQ(Sweep[T].Filters.size(), Runs.size());
    for (size_t Held = 0; Held != Runs.size(); ++Held) {
      std::vector<Instance> Own;
      for (size_t B = 0; B != Runs.size(); ++B)
        if (B != Held)
          for (const Instance &I : reference::instancesOf(buildDataset(
                   Runs[B].Records, Thresholds[T], Runs[B].Name)))
            Own.push_back(I);
      Dataset Fold = Dataset::fromInstances("fold", Own);
      expectIdentical(Sweep[T].Filters[Held], Ripper().train(Fold),
                      "t=" + std::to_string(Thresholds[T]) + " without " +
                          Runs[Held].Name);
      ++Folds;
    }
  }
  EXPECT_EQ(Folds, 77u);
}

TEST(RipperEngine, FoldOnASharedTableTakesItsOwnSignedZeroBits) {
  // The suite table's zero rank holds -0.0 at its lowest row and +0.0
  // elsewhere.  A fold that drops that row holds only +0.0, so its
  // threshold must be +0.0 -- not the table's -0.0 -- exactly as a
  // training that ranks the fold itself (and the reference) gives.
  std::vector<Instance> Is;
  for (int I = 0; I != 300; ++I) {
    FeatureVector X{};
    bool Pos = I % 3 == 0;
    X[FeatLoad] = Pos ? (I == 0 ? -0.0 : 0.0) : 1.0;
    Is.push_back({X, Pos ? Label::LS : Label::NS});
  }
  Dataset Suite = Dataset::fromInstances("suite", Is);
  std::shared_ptr<const RankTable> T = Suite.rankTable();
  ASSERT_EQ(T->mixedRanks(FeatLoad).size(), 1u);
  EXPECT_TRUE(std::signbit(T->rankValues(FeatLoad)[0]));
  for (uint32_t FirstRow : {0u, 1u}) {
    Dataset Fold("fold", T);
    for (uint32_t R = FirstRow; R != Suite.size(); ++R)
      Fold.addRow(R, Suite[R].Y);
    RuleSet RS = Ripper().train(Fold);
    ASSERT_EQ(RS.size(), 1u);
    ASSERT_EQ(RS.rules()[0].Conditions.size(), 1u);
    EXPECT_EQ(std::signbit(RS.rules()[0].Conditions[0].Threshold),
              FirstRow == 0)
        << "first row " << FirstRow;
    Dataset Own = Dataset::fromInstances("own", reference::instancesOf(Fold));
    expectIdentical(RS, Ripper().train(Own),
                    "first row " + std::to_string(FirstRow));
    if (FirstRow == 1)
      expectIdentical(RS, reference::trainReference(Fold), "without row 0");
  }
}

TEST(RipperEngine, MixedFeatureShapesMatchReferenceAtAnyJobCount) {
  // One training that sweeps dense histograms (the fraction columns) and
  // sparse ones (the continuous column on small covered sets), with the
  // pool's per-feature fan-out engaged on the early, large covered sets.
  Dataset D = mixedShapeData(4000, 23);
  RuleSet Serial = Ripper().train(D);
  expectIdentical(Serial, reference::trainReference(D), "mixed, serial");
  EXPECT_GE(Serial.size(), 2u);
  for (unsigned Jobs : {2u, 4u}) {
    TaskPool Pool(Jobs);
    expectIdentical(Ripper().train(D, Pool), Serial,
                    "mixed, jobs=" + std::to_string(Jobs));
  }
}

// --- Degenerate inputs. ---

TEST(RipperEngine, EmptyAndSingleClassMatchReference) {
  Dataset Empty("empty");
  expectIdentical(Ripper().train(Empty), reference::trainReference(Empty),
                  "empty");

  std::vector<Instance> NS, LS;
  for (int I = 0; I != 40; ++I) {
    NS.push_back({fv(I % 10 + 1), Label::NS});
    LS.push_back({fv(I % 10 + 1), Label::LS});
  }
  Dataset AllNS = Dataset::fromInstances("allns", NS);
  Dataset AllLS = Dataset::fromInstances("allls", LS);
  expectIdentical(Ripper().train(AllNS), reference::trainReference(AllNS),
                  "all NS");
  expectIdentical(Ripper().train(AllLS), reference::trainReference(AllLS),
                  "all LS");
  EXPECT_EQ(Ripper().train(AllNS).getDefaultClass(), Label::NS);
  EXPECT_EQ(Ripper().train(AllLS).getDefaultClass(), Label::LS);
}

TEST(RipperEngine, TinyDatasetsWithEmptyPruneSplit) {
  // With <= 2 positives, ceil(2/3 * n) swallows every positive into the
  // grow split: the prune side is empty, every prefix scores Worth 0, and
  // the rule prunes to empty -- training must stop cleanly (no rules),
  // identically in both engines, at every size from 1 up.
  for (size_t Positives : {1u, 2u}) {
    for (size_t Negatives : {0u, 1u, 2u, 5u}) {
      std::vector<Instance> Is;
      for (size_t I = 0; I != Positives; ++I)
        Is.push_back({fv(10 + static_cast<double>(I), 0.9), Label::LS});
      for (size_t I = 0; I != Negatives; ++I)
        Is.push_back({fv(2 + static_cast<double>(I), 0.1), Label::NS});
      Dataset D = Dataset::fromInstances("tiny", Is);
      RuleSet RS = Ripper().train(D);
      expectIdentical(RS, reference::trainReference(D),
                      "tiny " + std::to_string(Positives) + "p" +
                          std::to_string(Negatives) + "n");
      // Up to 2 instances per class, ceil keeps *both* prune sides empty:
      // every prefix scores Worth 0, the first rule prunes to nothing and
      // training stops with zero rules.  (At 5 negatives the prune side
      // regains an instance and a rule may legitimately survive; those
      // cases are covered by the equivalence pin alone.)
      if (Negatives <= 2) {
        EXPECT_EQ(RS.size(), 0u) << "empty prune split must stop training";
      }
      // Predicting must be safe whatever was induced.
      (void)RS.predict(fv(10, 0.9));
    }
  }
}

TEST(RipperEngine, AllIdenticalFeatureVectors) {
  // Every instance identical: one distinct value per feature, so no
  // condition can exclude anything -- no rules, majority default.  The
  // sorted columns collapse to a single tie group; both engines must
  // agree.
  for (double LSShare : {0.2, 0.5, 0.8}) {
    std::vector<Instance> Is;
    for (int I = 0; I != 60; ++I)
      Is.push_back(
          {fv(7, 0.5, 0.25), I < 60 * LSShare ? Label::LS : Label::NS});
    Dataset D = Dataset::fromInstances("const", Is);
    RuleSet RS = Ripper().train(D);
    expectIdentical(RS, reference::trainReference(D),
                    "const features, LS share " + std::to_string(LSShare));
    EXPECT_EQ(RS.size(), 0u);
  }
}

TEST(RipperEngine, ConstantColumnsAmongInformativeOnes) {
  // Most features constant (the fv() helper zeroes them), one
  // informative: the sweep must skip the constant columns' single tie
  // group and still find the signal.
  Dataset D = separableData(400, 3);
  RuleSet RS = Ripper().train(D);
  expectIdentical(RS, reference::trainReference(D), "constant columns");
  EXPECT_GE(RS.size(), 1u);
  EXPECT_LE(errorRatePercent(RS, D), 1.0);
}

TEST(RipperEngine, SignedZeroThresholdTakesLowestIndexBits) {
  // -0.0 and +0.0 share a rank; its threshold keeps the bits of the
  // lowest-index instance holding it, whichever order the sort left.
  for (double First : {-0.0, 0.0}) {
    std::vector<Instance> Is;
    for (int I = 0; I != 300; ++I) {
      FeatureVector X{};
      bool Pos = I % 3 == 0;
      X[FeatLoad] = Pos ? (I == 0 ? First : -First) : 1.0;
      Is.push_back({X, Pos ? Label::LS : Label::NS});
    }
    Dataset D = Dataset::fromInstances("zeros", Is);
    RuleSet RS = Ripper().train(D);
    ASSERT_EQ(RS.size(), 1u);
    ASSERT_EQ(RS.rules()[0].Conditions.size(), 1u);
    const Condition &C = RS.rules()[0].Conditions[0];
    EXPECT_EQ(C.Feature, static_cast<unsigned>(FeatLoad));
    EXPECT_TRUE(C.IsLessEqual);
    EXPECT_EQ(std::signbit(C.Threshold), std::signbit(First));
  }
}

TEST(RipperEngine, ContradictoryDuplicatesMatchReference) {
  std::vector<Instance> Is;
  for (int I = 0; I != 300; ++I)
    Is.push_back({fv(10, 0.5), I % 5 == 0 ? Label::LS : Label::NS});
  Dataset D = Dataset::fromInstances("contra", Is);
  expectIdentical(Ripper().train(D), reference::trainReference(D), "contra");
}

// Property sweep: equivalence holds across many generated datasets, with
// the pool engaged.
class RipperEngineProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RipperEngineProperty, IndexedEngineEqualsReference) {
  Dataset D = hardData(400 + 37 * (GetParam() % 5), GetParam());
  TaskPool Pool(3);
  RuleSet New = Ripper().train(D, Pool);
  expectIdentical(New, reference::trainReference(D),
                  "property seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RipperEngineProperty,
                         ::testing::Values(3, 9, 27, 81, 243, 729));
