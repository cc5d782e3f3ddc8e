//===- tests/golden_test.cpp - pinned end-to-end reproduction numbers ---------===//
//
// Regression guards for the headline numbers reported in EXPERIMENTS.md,
// computed on the full (not shrunken) SPECjvm98 stand-in suite.  Exact
// integer counts are fully determined by the seeded generators; derived
// floating-point aggregates get tolerances.  If a deliberate change to
// the workloads, scheduler, simulator, or learner moves these, update
// EXPERIMENTS.md alongside this file.
//
//===----------------------------------------------------------------------===//

#include "harness/ParallelExperiments.h"
#include "io/TraceStore.h"
#include "support/Statistics.h"

#include "RuleSetIdentity.h"
#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace schedfilter;

namespace {

/// The serial harness: a one-job engine spawns no threads.
ExperimentEngine Serial;

const std::vector<BenchmarkRun> &fullSuite() {
  static const std::vector<BenchmarkRun> Suite = [] {
    MachineModel Model = MachineModel::ppc7410();
    return Serial.generateSuiteData(specjvm98Suite(), Model);
  }();
  return Suite;
}

} // namespace

TEST(Golden, SuitePopulation) {
  size_t Blocks = 0, Insts = 0;
  for (const BenchmarkRun &Run : fullSuite()) {
    Blocks += Run.Prog.totalBlocks();
    Insts += Run.Prog.totalInstructions();
  }
  // Pure functions of the seeded generators.
  EXPECT_EQ(Blocks, 8827u);
  EXPECT_EQ(Insts, 51419u);
}

TEST(Golden, Table5TrainingSetSizes) {
  std::vector<Dataset> At0 = Serial.labelSuite(fullSuite(), 0.0);
  size_t LS = 0, NS = 0;
  for (const Dataset &D : At0) {
    LS += D.countLabel(Label::LS);
    NS += D.countLabel(Label::NS);
  }
  // Simulator outputs are integer cycle counts; labeling is exact.
  EXPECT_EQ(LS, 1673u);
  EXPECT_EQ(NS, 7154u);
}

TEST(Golden, Table3ErrorGeomeanAtZero) {
  ThresholdResult R = Serial.runThreshold(fullSuite(), 0.0, ripperLearner());
  // Paper: 7.86.  Pinned with a tolerance that still catches regressions
  // an order of magnitude smaller than the paper-vs-us gap.
  EXPECT_NEAR(geometricMean(R.ErrorPct), 7.78, 0.75);
}

TEST(Golden, HeadlineFrontierAtZero) {
  ThresholdResult R = Serial.runThreshold(fullSuite(), 0.0, ripperLearner());
  double LS = geometricMean(R.AppRatioLS);
  double LN = geometricMean(R.AppRatioLN);
  double Retention = (1.0 - LN) / (1.0 - LS);
  double Effort = geometricMean(R.EffortRatioWork);
  EXPECT_NEAR(Retention, 0.921, 0.05);
  EXPECT_NEAR(Effort, 0.539, 0.06);
  EXPECT_NEAR(LS, 0.890, 0.02);
}

TEST(Golden, HeadlineNumbersIdenticalAtJobsFour) {
  // The pinned numbers must reproduce exactly under the parallel engine:
  // regenerate the suite and rerun t = 0 at four jobs and compare both
  // against the absolute golden values and against the serial reference.
  MachineModel Model = MachineModel::ppc7410();
  ExperimentEngine Engine(4);
  std::vector<BenchmarkRun> Suite =
      Engine.generateSuiteData(specjvm98Suite(), Model);
  ThresholdResult R = Engine.runThreshold(Suite, 0.0, ripperLearner());

  // Table 5 at t = 0.
  EXPECT_EQ(R.TrainLS, 1673u);
  EXPECT_EQ(R.TrainNS, 7154u);
  // Table 3 geomean and the benefit-retention headline.
  EXPECT_NEAR(geometricMean(R.ErrorPct), 7.78, 0.75);
  double LS = geometricMean(R.AppRatioLS);
  double LN = geometricMean(R.AppRatioLN);
  EXPECT_NEAR((1.0 - LN) / (1.0 - LS), 0.921, 0.05);

  // Bit-for-bit agreement with the serial path on every deterministic
  // output (wall-clock fields excluded by construction).
  ThresholdResult S = Serial.runThreshold(fullSuite(), 0.0, ripperLearner());
  EXPECT_EQ(R.ErrorPct, S.ErrorPct);
  EXPECT_EQ(R.PredictedTimePct, S.PredictedTimePct);
  EXPECT_EQ(R.EffortRatioWork, S.EffortRatioWork);
  EXPECT_EQ(R.AppRatioLN, S.AppRatioLN);
  EXPECT_EQ(R.AppRatioLS, S.AppRatioLS);
  EXPECT_EQ(R.RuntimeLS, S.RuntimeLS);
  EXPECT_EQ(R.RuntimeNS, S.RuntimeNS);
  ASSERT_EQ(R.Filters.size(), S.Filters.size());
  for (size_t I = 0; I != R.Filters.size(); ++I)
    EXPECT_EQ(R.Filters[I].toString(), S.Filters[I].toString());
}

TEST(Golden, Table5IdenticalFromEveryArtifactSource) {
  // The acceptance bit-identity guarantee: the Table 5 counts (1673 LS /
  // 7154 NS at t = 0) must be reproduced exactly whether the records
  // come straight from the generator, from a CSV trace, from an SFTB1
  // binary trace, or from a warm corpus cache.
  const std::vector<BenchmarkRun> &Suite = fullSuite();

  auto CountAt0 = [](const std::vector<BenchmarkRun> &Runs) {
    std::pair<size_t, size_t> C{0, 0};
    for (const Dataset &D : Serial.labelSuite(Runs, 0.0)) {
      C.first += D.countLabel(Label::LS);
      C.second += D.countLabel(Label::NS);
    }
    return C;
  };
  const std::pair<size_t, size_t> Golden{1673u, 7154u};
  EXPECT_EQ(CountAt0(Suite), Golden);

  // CSV and binary trace round trips, per benchmark, field-exact.
  for (TraceFormat F : {TraceFormat::Csv, TraceFormat::Binary}) {
    std::vector<BenchmarkRun> FromTrace = Suite; // shares Prog/reports
    for (BenchmarkRun &Run : FromTrace) {
      std::stringstream SS;
      writeTrace(Run.Records, SS, F);
      ParseResult<std::vector<BlockRecord>> Back = readTrace(SS);
      ASSERT_TRUE(Back.has_value()) << Back.error().str();
      ASSERT_EQ(Back->size(), Run.Records.size());
      for (size_t I = 0; I != Run.Records.size(); ++I)
        ASSERT_EQ(Run.Records[I].X, (*Back)[I].X);
      Run.Records = std::move(*Back);
    }
    EXPECT_EQ(CountAt0(FromTrace), Golden);
  }

  // Warm corpus cache: seed it from the already-traced suite, reload
  // through a fresh engine, and require zero retracing.
  test::TempCacheDir Dir("golden");
  CorpusCache Seed(Dir.str());
  std::vector<BenchmarkSpec> Specs = specjvm98Suite();
  ASSERT_EQ(Specs.size(), Suite.size());
  for (size_t I = 0; I != Suite.size(); ++I) {
    CorpusKey Key{Specs[I].Name,           Suite[I].ModelName,
                  GeneratorVersion,        TracePipelineVersion,
                  specFingerprint(Specs[I]), Specs[I].Family};
    ASSERT_TRUE(Seed.store(Key, Suite[I].Records, Suite[I].NeverReport,
                           Suite[I].AlwaysReport));
  }

  CorpusCache Cache(Dir.str());
  ExperimentEngine Warm(4);
  Warm.setCorpusCache(&Cache);
  std::vector<BenchmarkRun> FromCache =
      Warm.generateSuiteData(Specs, MachineModel::ppc7410());
  EXPECT_EQ(Warm.tracedBlocks(), 0u);
  EXPECT_EQ(Cache.stats().Hits, Specs.size());
  EXPECT_EQ(CountAt0(FromCache), Golden);
}

TEST(Golden, ServeRecoupedHeadline) {
  // The sf-serve headline at the default service config: db's invocation
  // stream served with LS vs the self-trained t = 0 filter in the
  // optimizing tier.  The LS-side work is a pure integer function of the
  // stream and the scheduler and is pinned exactly; the recouped fraction
  // depends on the induced rule set and gets a tolerance, like the other
  // learner-dependent goldens.
  MachineModel Model = MachineModel::ppc7410();
  const BenchmarkSpec &Spec = *findBenchmarkSpec("db");
  std::vector<BenchmarkRun> Runs = Serial.generateSuiteData({Spec}, Model);
  RuleSet Rules = ripperLearner()(Serial.labelSuite(Runs, 0.0)[0]);

  ServiceConfig Cfg;
  Cfg.StreamSeed = invocationStreamSeed(Spec.Seed);
  TaskPool Pool(4);
  MultiAppComparison Cmp =
      test::compareOneApp(Runs[0].Prog, Model, Cfg, Rules, Pool);
  const ServiceStats &LS = Cmp.Always.Total;
  const ServiceStats &LN = Cmp.Filtered.Total;

  EXPECT_EQ(LS.SchedulingWork, 102414u);
  EXPECT_EQ(LS.Promotions, 77u);
  EXPECT_EQ(LS.Deferred, 0u);
  EXPECT_EQ(LS.FinalQueueDepth, 0u);
  EXPECT_NEAR(Cmp.RecoupedWorkFraction, 0.393, 0.06);
  // Filtering keeps the optimization's application-side value: the served
  // stream is within a whisker of the LS run's time.
  double AppLS = LS.AppTime / LS.BaselineAppTime;
  double AppLN = LN.AppTime / LN.BaselineAppTime;
  EXPECT_LT(AppLN - AppLS, 0.005);
}

TEST(Golden, MixedServeStreamPinned) {
  // The interleaved path end to end: every family's suite in one stream
  // (the perfbench serve_mix shape, at a tenth of its length), a sampler
  // hot enough to fill the queue and shed load, and a hand-built filter
  // (schedule blocks of >= 7 instructions) so no learner output moves the
  // pins.  Integer fields are pinned exactly and the app-time folds bit
  // for bit, at one job and at four.
  std::vector<AppSpec> Apps =
      expandWorkloadMix({{"specjvm98", 1.0}, {"serverloop", 1.0},
                         {"fp", 1.0}, {"fpkernel", 1.0}, {"ptrchase", 1.0}});
  ASSERT_EQ(Apps.size(), 22u);
  std::vector<Program> Programs = generateMixPrograms(Apps);
  MachineModel Model = MachineModel::ppc7410();
  RuleSet Rules(Label::NS);
  Rule R;
  R.Conclusion = Label::LS;
  R.Conditions.push_back({FeatBBLen, false, 7.0});
  Rules.addRule(std::move(R));

  ServiceConfig Cfg;
  Cfg.StreamSeed = workloadMixSeed(Apps);
  Cfg.SampleEvery = 4;
  Cfg.HotThreshold = 8;
  Cfg.QueueCap = 16;
  for (unsigned Jobs : {1u, 4u}) {
    SCOPED_TRACE(Jobs);
    TaskPool Pool(Jobs);
    MultiAppStats St =
        MultiAppService(Apps, Programs, Model, Cfg, &Rules, Pool).run();
    const ServiceStats &T = St.Total;
    EXPECT_EQ(checkServiceStats(St), std::nullopt);
    EXPECT_EQ(T.Invocations, 200000u);
    EXPECT_EQ(T.Epochs, 196u);
    EXPECT_EQ(T.SampledInvocations, 50000u);
    EXPECT_EQ(T.Promotions, 776u);
    EXPECT_EQ(T.Deferred, 14964u);
    EXPECT_EQ(T.CompiledMethods, 764u);
    EXPECT_EQ(T.MethodsOptimized, 764u);
    EXPECT_EQ(T.MethodsTotal, 2690u);
    EXPECT_EQ(T.MaxQueueDepth, 16u);
    EXPECT_EQ(T.FinalQueueDepth, 12u);
    EXPECT_EQ(T.BaselineInvocations, 121693u);
    EXPECT_EQ(T.OptimizedInvocations, 78307u);
    EXPECT_EQ(T.SchedulingWork, 1903518u);
    EXPECT_EQ(T.FilterWork, 84322u);
    EXPECT_EQ(T.BlocksCompiled, 7477u);
    EXPECT_EQ(T.BlocksScheduled, 2911u);
    EXPECT_EQ(T.FilterLS, 2911u);
    EXPECT_EQ(T.FilterNS, 4566u);
    EXPECT_TRUE(sameBits(T.MeanQueueDepth, 0x1.e97829cbc14e6p+3));
    EXPECT_TRUE(sameBits(T.AppTime, 0x1.c4bbf57a7d200p+44));
    EXPECT_TRUE(sameBits(T.BaselineAppTime, 0x1.157b492bd0c80p+45));
  }
}

TEST(Golden, EffortCollapsesAtHighThreshold) {
  ThresholdResult R = Serial.runThreshold(fullSuite(), 50.0, ripperLearner());
  EXPECT_LT(geometricMean(R.EffortRatioWork), 0.15);
  EXPECT_LT(R.RuntimeLS, 400u);
}

TEST(Golden, Figure4ShapeStable) {
  // Train on all-but-jack at t = 0 (the Figure 4 setting) and pin the
  // structural properties EXPERIMENTS.md describes.
  std::vector<Dataset> Labeled = Serial.labelSuite(fullSuite(), 0.0);
  Dataset Train("minus-jack");
  for (size_t I = 0; I + 1 < Labeled.size(); ++I)
    Train.append(Labeled[I]);
  RuleSet Filter = ripperLearner()(Train);
  ASSERT_GE(Filter.size(), 5u);
  ASSERT_LE(Filter.size(), 24u);
  EXPECT_EQ(Filter.getDefaultClass(), Label::NS);
  // The O(1) gate exists and is small (every rule bounds bbLen below).
  double Gate = Filter.minMatchableBBLen();
  EXPECT_GE(Gate, 4.0);
  EXPECT_LE(Gate, 9.0);
}
