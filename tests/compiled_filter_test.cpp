//===- tests/compiled_filter_test.cpp - compiled-evaluator equivalence -------===//
//
// The compiled filter's contract is total: for EVERY feature vector --
// NaN coordinates included -- the flat cell form must return bit-exactly
// the interpreter's prediction AND its work count, and evaluateBatch must
// return, row for row, exactly what the scalar evaluator returns.  The
// corner-grid walk (analysis/RuleAnalysis.h) makes the first half a
// finite proof: every condition is an axis-aligned threshold compare, so
// one representative per threshold-cut cell of feature space covers every
// behaviorally distinct input.  Randomized rule sets and feature streams
// cover rule sets from empty to past 64 cells, and the Golden group pins
// the real trained filters and the serve path's decision counters and
// work against the interpreter.  The interpreter (RuleSet::predict /
// predictionWork) lives on here only, as the oracle.
//
//===----------------------------------------------------------------------===//

#include "filter/CompiledFilter.h"

#include "analysis/RuleAnalysis.h"
#include "filter/ScheduleFilter.h"
#include "harness/ParallelExperiments.h"
#include "ml/Ripper.h"
#include "runtime/MultiAppService.h"
#include "support/Rng.h"
#include "workloads/ProgramGenerator.h"

#include "RuleSetIdentity.h"
#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using namespace schedfilter;
using namespace schedfilter::test;

namespace {

/// The interpreter oracle for one ScheduleFilter decision: the same bbLen
/// gate (one work unit, default class), otherwise RuleSet::predict on the
/// extracted features, charged the feature pass plus predictionWork.
CompiledFilter::Decision interpretDecision(const RuleSet &RS,
                                           const BasicBlock &BB) {
  if (static_cast<double>(BB.size()) < RS.minMatchableBBLen())
    return {RS.getDefaultClass() == Label::LS, 1};
  FeatureVector X = extractFeatures(BB);
  return {RS.predict(X) == Label::LS,
          featureExtractionWork(BB) + RS.predictionWork(X)};
}

/// Proves (exhaustively when the corner grid fits \p MaxPoints) that the
/// compiled form of \p RS is prediction- and work-equivalent to the
/// interpreter, NaN coordinates included.
void expectEquivalentOnCornerGrid(const RuleSet &RS,
                                  uint64_t MaxPoints = 1u << 20) {
  CompiledFilter C(RS);
  uint64_t Mismatches = 0;
  CornerGridWalk W = forEachCornerPoint(
      {&RS}, /*WithNaN=*/true, MaxPoints, [&](const FeatureVector &X) {
        bool InterpLS = RS.predict(X) == Label::LS;
        uint64_t InterpWork = RS.predictionWork(X);
        CompiledFilter::Decision D = C.evaluate(X);
        if (D.ScheduleLS != InterpLS || D.Work != InterpWork) {
          ++Mismatches;
          return false; // first counterexample is enough
        }
        return true;
      });
  EXPECT_EQ(Mismatches, 0u);
  EXPECT_GT(W.PointsVisited, 0u);
}

/// Asserts evaluateBatch over \p Rows returns, row for row, exactly what
/// the scalar evaluator (and therefore the interpreter) returns.
void expectBatchMatchesScalar(const RuleSet &RS,
                              const std::vector<FeatureVector> &Rows) {
  CompiledFilter C(RS);
  FeatureMatrix M;
  for (const FeatureVector &X : Rows)
    M.appendRow(X);
  std::vector<unsigned char> LS(Rows.size(), 0xCC);
  std::vector<uint64_t> Work(Rows.size(), ~uint64_t{0});
  CompiledFilter::BatchScratch Scratch;
  C.evaluateBatch(M, Scratch, LS.data(), Work.data());
  for (size_t I = 0; I != Rows.size(); ++I) {
    CompiledFilter::Decision D = C.evaluate(Rows[I]);
    ASSERT_EQ(LS[I] != 0, D.ScheduleLS) << "row " << I;
    ASSERT_EQ(Work[I], D.Work) << "row " << I;
    ASSERT_EQ(D.ScheduleLS, RS.predict(Rows[I]) == Label::LS) << "row " << I;
    ASSERT_EQ(D.Work, RS.predictionWork(Rows[I])) << "row " << I;
  }
}

/// A deterministic random rule set.  Thresholds come from a small pool so
/// rules overlap and contain within-rule redundant conditions -- the
/// shapes that stress work counting.
RuleSet randomRuleSet(Rng &R, size_t NumRules, size_t MaxConds,
                      bool AllowNaNThreshold) {
  static const double Pool[] = {-1.0, 0.0,  0.125, 0.25, 0.5,
                                1.0,  4.0,  5.0,   16.0, 1e6};
  RuleSet RS(R.below(2) ? Label::LS : Label::NS);
  for (size_t I = 0; I != NumRules; ++I) {
    Rule Ru;
    Ru.Conclusion = R.below(2) ? Label::LS : Label::NS;
    size_t NC = R.below(static_cast<uint32_t>(MaxConds + 1));
    for (size_t C = 0; C != NC; ++C) {
      Condition Cond;
      Cond.Feature = static_cast<FeatureIndex>(R.below(NumFeatures));
      Cond.IsLessEqual = R.below(2) != 0;
      Cond.Threshold = AllowNaNThreshold && R.below(16) == 0
                           ? std::numeric_limits<double>::quiet_NaN()
                           : Pool[R.below(10)];
      Ru.Conditions.push_back(Cond);
    }
    RS.addRule(std::move(Ru));
  }
  return RS;
}

/// Random feature vectors, salted with the values that break naive
/// evaluators: NaN, infinities, signed zero, and exact pool thresholds.
std::vector<FeatureVector> randomVectors(Rng &R, size_t N) {
  static const double Specials[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      -0.0,
      0.0,
      0.25,
      0.5,
      1.0,
      5.0};
  std::vector<FeatureVector> Rows(N);
  for (FeatureVector &X : Rows)
    for (double &V : X)
      V = R.below(4) == 0
              ? Specials[R.below(9)]
              : static_cast<double>(R.range(-8, 64)) * 0.125;
  return Rows;
}

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

TEST(CompiledFilter, EmptyRuleSet) {
  RuleSet RS(Label::NS);
  CompiledFilter C(RS);
  EXPECT_EQ(C.numCells(), 0u);
  FeatureVector X{};
  CompiledFilter::Decision D = C.evaluate(X);
  EXPECT_FALSE(D.ScheduleLS);
  EXPECT_EQ(D.Work, 1u); // the interpreter's default fall-through
  expectEquivalentOnCornerGrid(RS);
  Rng R(1);
  expectBatchMatchesScalar(RS, randomVectors(R, 300));
}

TEST(CompiledFilter, SingleRule) {
  expectEquivalentOnCornerGrid(basicFilter());
  Rng R(2);
  expectBatchMatchesScalar(basicFilter(), randomVectors(R, 300));
}

TEST(CompiledFilter, EmptyAntecedentRuleMatchesEverything) {
  // An empty-antecedent rule matches every input with zero condition
  // work; rules behind it are unreachable.  Both positions (first and
  // mid-list) exercise the rule-entry special case.
  for (size_t Position : {size_t{0}, size_t{1}}) {
    RuleSet RS(Label::NS);
    if (Position == 1)
      RS = basicFilter();
    Rule Always;
    Always.Conclusion = Label::LS;
    RS.addRule(std::move(Always));
    Rule Behind;
    Behind.Conclusion = Label::NS;
    Behind.Conditions.push_back({FeatBBLen, true, 3.0});
    RS.addRule(std::move(Behind));
    expectEquivalentOnCornerGrid(RS);
    Rng R(3 + Position);
    expectBatchMatchesScalar(RS, randomVectors(R, 300));
  }
}

TEST(CompiledFilter, NaNThresholdConditionNeverMatches) {
  RuleSet RS(Label::NS);
  Rule Dead;
  Dead.Conclusion = Label::LS;
  Dead.Conditions.push_back({FeatBBLen, false, 2.0});
  Dead.Conditions.push_back(
      {FeatLoad, true, std::numeric_limits<double>::quiet_NaN()});
  RS.addRule(std::move(Dead));
  Rule Live;
  Live.Conclusion = Label::LS;
  Live.Conditions.push_back({FeatBBLen, false, 8.0});
  RS.addRule(std::move(Live));
  expectEquivalentOnCornerGrid(RS);
  // The NaN compare fails with its short-circuit work still counted.
  FeatureVector X{};
  X[FeatBBLen] = 10.0;
  CompiledFilter C(RS);
  EXPECT_EQ(C.evaluate(X).Work, RS.predictionWork(X));
  EXPECT_TRUE(C.evaluate(X).ScheduleLS);
  Rng R(5);
  expectBatchMatchesScalar(RS, randomVectors(R, 300));
}

TEST(CompiledFilter, EightyConditionRuleMatchesInterpreter) {
  // 80 conditions in one rule: a filter wider than any 64-bit mask, so
  // no evaluator may assume the cells fit one word.
  Rng Seed(6);
  RuleSet RS(Label::NS);
  Rule Big;
  Big.Conclusion = Label::LS;
  for (size_t C = 0; C != 80; ++C)
    Big.Conditions.push_back(
        {static_cast<FeatureIndex>(C % NumFeatures), C % 2 == 0,
         static_cast<double>(C % 7) * 0.25 - 0.5});
  RS.addRule(std::move(Big));
  Rule Tail;
  Tail.Conclusion = Label::LS;
  Tail.Conditions.push_back({FeatBBLen, false, 4.0});
  RS.addRule(std::move(Tail));
  CompiledFilter C(RS);
  EXPECT_EQ(C.numCells(), 81u);
  expectEquivalentOnCornerGrid(RS, 1u << 16); // sampled: grid is huge
  expectBatchMatchesScalar(RS, randomVectors(Seed, 500));
}

TEST(CompiledFilter, SixtyFourBitBoundaryMatchesInterpreter) {
  // 61-63 cells in one rule -- 63 to 65 bits with one per rule and one
  // for the default -- straddle a 64-bit word; evaluate and evaluateBatch must
  // stay bit-identical to the interpreter there.
  for (size_t Conds : {size_t{61}, size_t{62}, size_t{63}}) {
    RuleSet RS(Label::LS);
    Rule R1;
    R1.Conclusion = Label::NS;
    for (size_t C = 0; C != Conds; ++C)
      R1.Conditions.push_back({static_cast<FeatureIndex>(C % NumFeatures),
                               C % 3 != 0,
                               static_cast<double>(C % 5) * 0.5});
    RS.addRule(std::move(R1));
    Rng R(7 + Conds);
    expectBatchMatchesScalar(RS, randomVectors(R, 400));
  }
}

TEST(CompiledFilter, RandomizedRuleSets) {
  // 60 random rule sets spanning empty to many-rule, NaN thresholds
  // included: corner-grid equivalence plus batch identity on a salted
  // random stream.  Deterministic seeds -- failures reproduce.
  for (uint64_t Seed = 0; Seed != 60; ++Seed) {
    Rng R(0xC0FFEE + Seed);
    RuleSet RS = randomRuleSet(R, R.below(7), 6, /*AllowNaNThreshold=*/true);
    expectEquivalentOnCornerGrid(RS, 1u << 16);
    expectBatchMatchesScalar(RS, randomVectors(R, 200));
  }
}

TEST(CompiledFilter, WorkCountsRedundantConditions) {
  // The compiler evaluates the rule set as given, not sf-lint --fix's
  // normalized form: work counts include the redundant compares, exactly
  // like the interpreter's, and exceed the normalized set's.
  RuleSet RS(Label::NS);
  Rule R1;
  R1.Conclusion = Label::LS;
  R1.NumCorrect = 11;
  R1.NumIncorrect = 2;
  R1.Conditions.push_back({FeatBBLen, false, 5.0});
  R1.Conditions.push_back({FeatBBLen, false, 3.0}); // looser: subsumed
  R1.Conditions.push_back({FeatLoad, true, 0.5});
  R1.Conditions.push_back({FeatLoad, true, 0.5}); // duplicate: subsumed
  RS.addRule(std::move(R1));
  Rule R2;
  R2.Conclusion = Label::LS;
  R2.Conditions.push_back({FeatStore, true, 0.25});
  RS.addRule(std::move(R2));

  RuleSet Normalized = normalizeRuleSet(RS, analyzeRuleSet(RS));
  EXPECT_EQ(Normalized.totalConditions(), RS.totalConditions() - 2);

  FeatureVector X{};
  X[FeatBBLen] = 10.0;
  X[FeatLoad] = 0.1;
  EXPECT_EQ(CompiledFilter(RS).evaluate(X).Work, RS.predictionWork(X));
  EXPECT_GT(CompiledFilter(RS).evaluate(X).Work,
            CompiledFilter(Normalized).evaluate(X).Work);
}

TEST(FeatureMatrix, ColumnMajorBitIdentity) {
  // appendBlock must store bit-for-bit what extractFeatures returns, in
  // both row and column views, and extractFeaturesBatch must sum exactly
  // the per-block featureExtractionWork.
  std::vector<BasicBlock> Blocks = {makeIlpFloatBlock(), makeChainBlock(),
                                    makeTrivialBlock()};
  std::vector<const BasicBlock *> Ptrs;
  for (const BasicBlock &BB : Blocks)
    Ptrs.push_back(&BB);

  FeatureMatrix M;
  uint64_t Work = extractFeaturesBatch(Ptrs.data(), Ptrs.size(), M);
  ASSERT_EQ(M.size(), Blocks.size());

  uint64_t ExpectWork = 0;
  for (size_t I = 0; I != Blocks.size(); ++I) {
    FeatureVector X = extractFeatures(Blocks[I]);
    ExpectWork += featureExtractionWork(Blocks[I]);
    for (unsigned F = 0; F != NumFeatures; ++F) {
      EXPECT_TRUE(sameBits(M.row(I)[F], X[F])) << "row " << I << " f " << F;
      EXPECT_TRUE(sameBits(M.column(F)[I], X[F])) << "row " << I << " f " << F;
    }
  }
  EXPECT_EQ(Work, ExpectWork);

  // Reuse keeps capacity but must re-fill identically.
  FeatureMatrix &Reused = M;
  uint64_t Work2 = extractFeaturesBatch(Ptrs.data(), Ptrs.size(), Reused);
  EXPECT_EQ(Work2, ExpectWork);
  ASSERT_EQ(Reused.size(), Blocks.size());
}

TEST(ScheduleFilter, EvaluatorModesAgreeBlockForBlock) {
  // The compiled filter against the interpreter oracle, decision for
  // decision: the same class and the same work units on every block.
  Program P = ProgramGenerator(shrinkSuite(specjvm98Suite(), 6)[0]).generate();
  RuleSet Rules = basicFilter();
  ScheduleFilter Compiled(Rules);
  uint64_t OracleWork = 0;
  P.forEachBlock([&](const BasicBlock &BB) {
    CompiledFilter::Decision D = interpretDecision(Rules, BB);
    CompiledFilter::Decision C = Compiled.decide(BB);
    ASSERT_EQ(C.ScheduleLS, D.ScheduleLS);
    ASSERT_EQ(C.Work, D.Work);
    OracleWork += D.Work;
  });
  EXPECT_GT(OracleWork, 0u);
}

// --- Golden: the real trained filters and the serve path (skipped in the
// sanitizer CI lane like every other Golden test). ---

TEST(Golden, CompiledFilterEquivalentForTrainedFilters) {
  // The paper-setting filter (t = 0, every SPECjvm98 stand-in pooled)
  // plus all nine LOOCV fold filters: corner-grid prediction- and
  // work-equivalence, and batch identity over the real block stream.
  ExperimentEngine Engine(4);
  MachineModel Model = MachineModel::ppc7410();
  std::vector<BenchmarkRun> Runs =
      Engine.generateSuiteData(specjvm98Suite(), Model);
  std::vector<Dataset> Labeled = Engine.labelSuite(Runs, 0.0);
  Dataset Pooled("suite");
  for (const Dataset &D : Labeled)
    Pooled.append(D);

  std::vector<RuleSet> Filters;
  Filters.push_back(Ripper().train(Pooled, Engine.pool()));
  for (const LoocvFold &F :
       leaveOneOut(Labeled, ripperLearner(), Engine.pool()))
    Filters.push_back(F.Filter);

  std::vector<FeatureVector> Rows;
  for (const BenchmarkRun &R : Runs)
    R.Prog.forEachBlock(
        [&](const BasicBlock &BB) { Rows.push_back(extractFeatures(BB)); });

  for (const RuleSet &RS : Filters) {
    expectEquivalentOnCornerGrid(RS, 1u << 18);
    expectBatchMatchesScalar(RS, Rows);
  }
}

TEST(Golden, ServeStatsByteIdenticalAcrossEvaluators) {
  // The serve-path pin: every deterministic stats field is byte-identical
  // at jobs 1 and jobs 4, and the compiled filter inside the service made
  // exactly the decisions, and charged exactly the work, that the
  // interpreter oracle computes over the methods the service compiled.
  MachineModel Model = MachineModel::ppc7410();
  const BenchmarkSpec &Spec = *findBenchmarkSpec("db");
  ExperimentEngine Engine;
  std::vector<BenchmarkRun> Runs = Engine.generateSuiteData({Spec}, Model);
  RuleSet Rules = ripperLearner()(Engine.labelSuite(Runs, 0.0)[0]);
  ServiceConfig Cfg;
  Cfg.StreamSeed = invocationStreamSeed(Spec.Seed);

  std::vector<MultiAppComparison> PerJobs;
  for (int Jobs : {1, 4}) {
    TaskPool Pool(static_cast<size_t>(Jobs));
    PerJobs.push_back(compareOneApp(Runs[0].Prog, Model, Cfg, Rules, Pool));
  }
  EXPECT_TRUE(PerJobs[1].Always == PerJobs[0].Always);
  EXPECT_TRUE(PerJobs[1].Filtered == PerJobs[0].Filtered);

  const ServiceStats &LN = PerJobs[0].Filtered.Total;
  uint64_t OracleLS = 0, OracleNS = 0, OracleWork = 0;
  for (const ServiceStats::CompilePinStat &C : LN.Compiles)
    for (const BasicBlock &BB : Runs[0].Prog[C.Method]) {
      CompiledFilter::Decision D = interpretDecision(Rules, BB);
      ++(D.ScheduleLS ? OracleLS : OracleNS);
      OracleWork += D.Work;
    }
  EXPECT_EQ(LN.FilterLS, OracleLS);
  EXPECT_EQ(LN.FilterNS, OracleNS);
  EXPECT_EQ(LN.FilterWork, OracleWork);
  EXPECT_GT(OracleLS, 0u);
}
