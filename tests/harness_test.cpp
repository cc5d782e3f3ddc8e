//===- tests/harness_test.cpp - harness/ unit tests ---------------------------===//

#include "harness/ParallelExperiments.h"
#include "harness/TableRender.h"
#include "runtime/MethodCompiler.h"
#include "workloads/WorkloadFamily.h"

#include "RuleSetIdentity.h"
#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>

using namespace schedfilter;
using namespace schedfilter::test;

namespace {

/// The serial harness: a one-job engine spawns no threads.
ExperimentEngine Serial;

/// Shared tiny suite so the harness tests stay fast: generated once.
const std::vector<BenchmarkRun> &tinySuite() {
  static const std::vector<BenchmarkRun> Suite = [] {
    MachineModel Model = MachineModel::ppc7410();
    return Serial.generateSuiteData(shrinkSuite(specjvm98Suite(), 6), Model);
  }();
  return Suite;
}

} // namespace

TEST(Experiments, SuiteDataShape) {
  const std::vector<BenchmarkRun> &Suite = tinySuite();
  ASSERT_EQ(Suite.size(), 7u);
  for (const BenchmarkRun &Run : Suite) {
    EXPECT_EQ(Run.Records.size(), Run.Prog.totalBlocks());
    EXPECT_EQ(Run.NeverReport.NumBlocks, Run.Prog.totalBlocks());
    EXPECT_EQ(Run.AlwaysReport.NumScheduled, Run.Prog.totalBlocks());
    EXPECT_EQ(Run.NeverReport.NumScheduled, 0u);
  }
}

TEST(Experiments, RecordsMatchPolicyReports) {
  // Sum of exec-weighted unscheduled costs == the NS pipeline's SIM time;
  // same for the scheduled costs vs the LS pipeline.
  for (const BenchmarkRun &Run : tinySuite()) {
    double NoSched = 0.0, Sched = 0.0;
    for (const BlockRecord &R : Run.Records) {
      NoSched += static_cast<double>(R.ExecCount) *
                 static_cast<double>(R.CostNoSched);
      Sched += static_cast<double>(R.ExecCount) *
               static_cast<double>(R.CostSched);
    }
    EXPECT_DOUBLE_EQ(NoSched, Run.NeverReport.SimulatedTime);
    EXPECT_DOUBLE_EQ(Sched, Run.AlwaysReport.SimulatedTime);
  }

  // The trace derives both fixed-policy reports in one pass; each must
  // equal a fresh compile under its policy on every deterministic field,
  // SimulatedTime to the bit, on a small suite of every family.
  auto Bits = [](double D) {
    uint64_t U;
    std::memcpy(&U, &D, sizeof(U));
    return U;
  };
  auto ExpectSameReport = [&](const CompileReport &Traced,
                              const CompileReport &Compiled,
                              const std::string &Name) {
    EXPECT_EQ(Traced.Policy, Compiled.Policy) << Name;
    EXPECT_EQ(Traced.NumBlocks, Compiled.NumBlocks) << Name;
    EXPECT_EQ(Traced.NumScheduled, Compiled.NumScheduled) << Name;
    EXPECT_EQ(Traced.SchedulingWork, Compiled.SchedulingWork) << Name;
    EXPECT_EQ(Traced.FilterWork, Compiled.FilterWork) << Name;
    EXPECT_EQ(Bits(Traced.SimulatedTime), Bits(Compiled.SimulatedTime))
        << Name;
  };
  MachineModel Model = MachineModel::ppc7410();
  const std::vector<const WorkloadFamily *> &Families =
      WorkloadRegistry::instance().families();
  ASSERT_EQ(Families.size(), 5u);
  for (const WorkloadFamily *F : Families) {
    std::vector<BenchmarkSpec> Specs =
        shrinkSuite(F->makeBenchmarkSuite(), 3);
    Specs.resize(std::min<size_t>(Specs.size(), 3));
    for (const BenchmarkRun &Run : Serial.generateSuiteData(Specs, Model)) {
      std::string Name = std::string(F->name()) + "/" + Run.Name;
      ExpectSameReport(
          Run.NeverReport,
          compileProgram(Run.Prog, Model, SchedulingPolicy::Never), Name);
      ExpectSameReport(
          Run.AlwaysReport,
          compileProgram(Run.Prog, Model, SchedulingPolicy::Always), Name);
    }
  }
}

TEST(Experiments, LabelSuiteNamesAndNsInvariance) {
  const std::vector<BenchmarkRun> &Suite = tinySuite();
  std::vector<Dataset> At0 = Serial.labelSuite(Suite, 0.0);
  std::vector<Dataset> At30 = Serial.labelSuite(Suite, 30.0);
  ASSERT_EQ(At0.size(), Suite.size());
  for (size_t I = 0; I != Suite.size(); ++I) {
    EXPECT_EQ(At0[I].getName(), Suite[I].Name);
    // Table 5 property: NS constant, LS shrinking.
    EXPECT_EQ(At30[I].countLabel(Label::NS), At0[I].countLabel(Label::NS));
    EXPECT_LE(At30[I].countLabel(Label::LS), At0[I].countLabel(Label::LS));
  }
}

TEST(Experiments, LabelSuiteSitsOnOneSuiteRankTable) {
  // labelSuite's datasets are buildDataset's instances, bit for bit, as
  // rows of one rank table over the whole suite's records.
  const std::vector<BenchmarkRun> &Suite = tinySuite();
  std::vector<Dataset> Labeled = Serial.labelSuite(Suite, 20.0);
  ASSERT_EQ(Labeled.size(), Suite.size());
  const std::shared_ptr<const RankTable> &Table = Labeled[0].rankTable();
  ASSERT_NE(Table, nullptr);
  size_t Records = 0;
  for (size_t B = 0; B != Suite.size(); ++B) {
    Records += Suite[B].Records.size();
    const Dataset &D = Labeled[B];
    EXPECT_EQ(D.rankTable(), Table);
    Dataset Plain = buildDataset(Suite[B].Records, 20.0, Suite[B].Name);
    ASSERT_EQ(D.size(), Plain.size());
    ASSERT_EQ(D.rowIds().size(), D.size());
    for (size_t I = 0; I != D.size(); ++I) {
      EXPECT_EQ(D[I].Y, Plain[I].Y);
      FeatureVector Row = Table->row(D.rowIds()[I]);
      for (unsigned F = 0; F != NumFeatures; ++F) {
        EXPECT_TRUE(sameBits(D[I].X[F], Plain[I].X[F]));
        EXPECT_TRUE(sameBits(Row[F], Plain[I].X[F]));
      }
    }
  }
  EXPECT_EQ(Table->rows(), Records);
}

TEST(Experiments, PooledSweepOnTheSharedTableMatchesSerial) {
  // Thresholds, folds and per-feature sweeps all read one rank table
  // from the pool's workers at once.
  ExperimentEngine Pooled(4);
  std::vector<double> Thresholds = {0.0, 25.0, 50.0};
  std::vector<ThresholdResult> A =
      Serial.runThresholdSweep(tinySuite(), Thresholds, ripperLearner());
  std::vector<ThresholdResult> B = Pooled.runThresholdSweep(
      tinySuite(), Thresholds, ripperLearner(Pooled.pool()));
  ASSERT_EQ(A.size(), B.size());
  for (size_t T = 0; T != A.size(); ++T) {
    EXPECT_EQ(A[T].ErrorPct, B[T].ErrorPct);
    EXPECT_EQ(A[T].AppRatioLN, B[T].AppRatioLN);
    ASSERT_EQ(A[T].Filters.size(), B[T].Filters.size());
    for (size_t F = 0; F != A[T].Filters.size(); ++F)
      EXPECT_TRUE(identicalRuleSets(A[T].Filters[F], B[T].Filters[F]))
          << "threshold " << Thresholds[T] << " fold " << F;
  }
}

TEST(Experiments, PaperThresholdGrid) {
  std::vector<double> T = paperThresholds();
  ASSERT_EQ(T.size(), 11u);
  EXPECT_EQ(T.front(), 0.0);
  EXPECT_EQ(T.back(), 50.0);
  for (size_t I = 1; I != T.size(); ++I)
    EXPECT_EQ(T[I] - T[I - 1], 5.0);
}

TEST(Experiments, RunThresholdFieldShapes) {
  ThresholdResult R = Serial.runThreshold(tinySuite(), 0.0, ripperLearner());
  EXPECT_EQ(R.Names.size(), 7u);
  EXPECT_EQ(R.ErrorPct.size(), 7u);
  EXPECT_EQ(R.PredictedTimePct.size(), 7u);
  EXPECT_EQ(R.EffortRatioWork.size(), 7u);
  EXPECT_EQ(R.AppRatioLN.size(), 7u);
  EXPECT_EQ(R.AppRatioLS.size(), 7u);
  EXPECT_EQ(R.Filters.size(), 7u);
  size_t Blocks = 0;
  for (const BenchmarkRun &Run : tinySuite())
    Blocks += Run.Records.size();
  EXPECT_EQ(R.RuntimeLS + R.RuntimeNS, Blocks);
}

TEST(Experiments, RunThresholdValueRanges) {
  ThresholdResult R = Serial.runThreshold(tinySuite(), 0.0, ripperLearner());
  for (size_t I = 0; I != R.Names.size(); ++I) {
    EXPECT_GE(R.ErrorPct[I], 0.0);
    EXPECT_LE(R.ErrorPct[I], 100.0);
    EXPECT_GT(R.PredictedTimePct[I], 0.0);
    EXPECT_LE(R.PredictedTimePct[I], 100.5);
    EXPECT_GE(R.EffortRatioWork[I], 0.0);
    EXPECT_LE(R.AppRatioLN[I], 1.001);
    EXPECT_LE(R.AppRatioLS[I], 1.001);
  }
}

TEST(Experiments, RunThresholdPricesEachRunUnderItsOwnModel) {
  // One suite traced on two targets: the filter that schedules every
  // block must reproduce each run's own LS report exactly, which holds
  // only when every run is recompiled under the model it was traced on.
  std::vector<BenchmarkSpec> Specs = shrinkSuite(specjvm98Suite(), 4);
  std::vector<BenchmarkRun> Suite =
      Serial.generateSuiteData(Specs, MachineModel::ppc7410());
  std::vector<BenchmarkRun> On970 =
      Serial.generateSuiteData(Specs, MachineModel::ppc970());
  for (BenchmarkRun &Run : On970)
    Suite.push_back(std::move(Run));

  LearnerFn AlwaysLS = [](const Dataset &) { return RuleSet(Label::LS); };
  ThresholdResult R = Serial.runThreshold(Suite, 0.0, AlwaysLS);
  ASSERT_EQ(R.AppRatioLN.size(), Suite.size());
  for (size_t B = 0; B != Suite.size(); ++B)
    EXPECT_EQ(R.AppRatioLN[B], R.AppRatioLS[B])
        << R.Names[B] << " on " << Suite[B].ModelName;
}

TEST(Experiments, SweepCoversAllThresholds) {
  std::vector<ThresholdResult> Sweep =
      Serial.runThresholdSweep(tinySuite(), {0.0, 25.0}, ripperLearner());
  ASSERT_EQ(Sweep.size(), 2u);
  EXPECT_EQ(Sweep[0].ThresholdPct, 0.0);
  EXPECT_EQ(Sweep[1].ThresholdPct, 25.0);
  // Higher threshold -> fewer LS training instances, fewer runtime LS.
  EXPECT_LE(Sweep[1].TrainLS, Sweep[0].TrainLS);
  EXPECT_LE(Sweep[1].RuntimeLS, Sweep[0].RuntimeLS);
}

TEST(TableRender, Table3RowsAndHeader) {
  std::vector<ThresholdResult> Sweep =
      Serial.runThresholdSweep(tinySuite(), {0.0, 20.0}, ripperLearner());
  std::ostringstream OS;
  renderTable3(Sweep, OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("Table 3"), std::string::npos);
  EXPECT_NE(Out.find("compress"), std::string::npos);
  EXPECT_NE(Out.find("Geo. mean"), std::string::npos);
  EXPECT_NE(Out.find("0%"), std::string::npos);
  EXPECT_NE(Out.find("20%"), std::string::npos);
  EXPECT_NE(Out.find("csv:"), std::string::npos);
}

TEST(TableRender, Table4PercentOfUnscheduled) {
  std::vector<ThresholdResult> Sweep =
      Serial.runThresholdSweep(tinySuite(), {0.0}, ripperLearner());
  std::ostringstream OS;
  renderTable4(Sweep, OS);
  EXPECT_NE(OS.str().find("percent of unscheduled"), std::string::npos);
}

TEST(TableRender, Table5And6RowLayout) {
  std::vector<ThresholdResult> Sweep =
      Serial.runThresholdSweep(tinySuite(), {0.0, 20.0}, ripperLearner());
  std::ostringstream OS5, OS6;
  renderTable5(Sweep, OS5);
  renderTable6(Sweep, OS6);
  EXPECT_NE(OS5.str().find("t=0"), std::string::npos);
  EXPECT_NE(OS5.str().find("t=20"), std::string::npos);
  EXPECT_NE(OS6.str().find("LS"), std::string::npos);
  EXPECT_NE(OS6.str().find("NS"), std::string::npos);
}

TEST(TableRender, FiguresAndHeadline) {
  std::vector<ThresholdResult> Sweep =
      Serial.runThresholdSweep(tinySuite(), {0.0}, ripperLearner());
  std::ostringstream OS;
  renderEffortFigure(Sweep, false, OS);
  renderEffortFigure(Sweep, true, OS);
  renderAppTimeFigure(Sweep, OS);
  renderHeadline(Sweep, false, OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("relative to LS"), std::string::npos);
  EXPECT_NE(Out.find("relative to NS"), std::string::npos);
  EXPECT_NE(Out.find("LS (always)"), std::string::npos);
  EXPECT_NE(Out.find("benefit retained"), std::string::npos);
  // The deterministic headline carries no wall-clock column; the wall
  // variant carries only that one.
  EXPECT_EQ(Out.find("(wall)"), std::string::npos);
  std::ostringstream Wall;
  renderHeadline(Sweep, true, Wall);
  EXPECT_NE(Wall.str().find("Effort vs LS (wall)"), std::string::npos);
  EXPECT_EQ(Wall.str().find("benefit retained"), std::string::npos);
}

TEST(TableRender, InducedFilterPrintout) {
  ThresholdResult R = Serial.runThreshold(tinySuite(), 0.0, ripperLearner());
  std::ostringstream OS;
  renderInducedFilter(R.Filters[0], OS);
  EXPECT_NE(OS.str().find("(default) orig"), std::string::npos);
}
