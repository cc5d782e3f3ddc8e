//===- harness/ParallelExperiments.cpp - Deterministic parallel engine ------===//

#include "harness/ParallelExperiments.h"

#include "ml/Metrics.h"
#include "runtime/MethodCompiler.h"
#include "sched/SchedContext.h"
#include "support/Statistics.h"
#include "workloads/WorkloadFamily.h"

#include <cassert>

using namespace schedfilter;

namespace {

/// The §2.2 instrumented-scheduler pass for one benchmark: fills
/// \p Run.Records and both fixed-policy reports from the
/// already-generated Run.Prog.  Each block is scheduled once and
/// simulated twice: the LS report accumulates during the trace, and the
/// NS report is the records' unscheduled costs folded in record order --
/// the fold compileProgram runs under the Never policy, so both reports
/// equal compileProgram's bit for bit (wall time aside).  All per-block
/// work reuses \p Ctx; a pure function of (Run.Prog, Model) -- safe at
/// any parallelism.
void traceBenchmark(BenchmarkRun &Run, const MachineModel &Model,
                    SchedContext &Ctx) {
  MethodCompiler MC(Model, Ctx);
  Run.AlwaysReport.Policy = SchedulingPolicy::Always;
  for (const Method &M : Run.Prog)
    MC.traceMethod(M, Run.Records, Run.AlwaysReport);

  Run.NeverReport.Policy = SchedulingPolicy::Never;
  for (const BlockRecord &Rec : Run.Records) {
    Run.NeverReport.SimulatedTime += static_cast<double>(Rec.ExecCount) *
                                     static_cast<double>(Rec.CostNoSched);
    ++Run.NeverReport.NumBlocks;
  }
}

/// Everything runThreshold measures for one held-out benchmark.
struct PerBenchmarkEval {
  double ErrorPct = 0.0;
  double PredictedTimePct = 0.0;
  size_t RuntimeLS = 0;
  size_t RuntimeNS = 0;
  double EffortRatioWork = 0.0;
  double EffortRatioWall = 0.0;
  double AppRatioLN = 0.0;
  double AppRatioLS = 0.0;
};

PerBenchmarkEval evaluateBenchmark(const BenchmarkRun &Run,
                                   const RuleSet &Filter,
                                   const Dataset &Labeled,
                                   const MachineModel &Model) {
  PerBenchmarkEval Out;

  // Table 3: classification error on the held-out benchmark's labeled
  // (threshold-filtered) instances.
  Out.ErrorPct = errorRatePercent(Filter, Labeled);

  // Table 4 + Table 6: apply the filter to every block of the held-out
  // benchmark (no instances are dropped at run time).
  double PredTime = 0.0, NoSchedTime = 0.0;
  for (const BlockRecord &Rec : Run.Records) {
    double W = static_cast<double>(Rec.ExecCount);
    bool SchedIt = Filter.predict(Rec.X) == Label::LS;
    if (SchedIt)
      ++Out.RuntimeLS;
    else
      ++Out.RuntimeNS;
    PredTime += W * static_cast<double>(SchedIt ? Rec.CostSched
                                                : Rec.CostNoSched);
    NoSchedTime += W * static_cast<double>(Rec.CostNoSched);
  }
  Out.PredictedTimePct = 100.0 * safeRatio(PredTime, NoSchedTime, 1.0);

  // Figures: recompile under the held-out filter and compare effort and
  // simulated application time against the fixed policies.
  ScheduleFilter Online(Filter);
  CompileReport LN =
      compileProgram(Run.Prog, Model, SchedulingPolicy::Filtered, &Online);
  Out.EffortRatioWork =
      safeRatio(static_cast<double>(LN.SchedulingWork),
                static_cast<double>(Run.AlwaysReport.SchedulingWork));
  Out.EffortRatioWall =
      safeRatio(LN.SchedulingSeconds, Run.AlwaysReport.SchedulingSeconds);
  Out.AppRatioLN =
      safeRatio(LN.SimulatedTime, Run.NeverReport.SimulatedTime, 1.0);
  Out.AppRatioLS = safeRatio(Run.AlwaysReport.SimulatedTime,
                             Run.NeverReport.SimulatedTime, 1.0);
  return Out;
}

/// Ranks every record of \p Suite once: the rows run through the suite's
/// records in order, benchmark by benchmark.
std::shared_ptr<const RankTable>
rankSuite(const std::vector<BenchmarkRun> &Suite, TaskPool &Pool) {
  size_t Rows = 0;
  for (const BenchmarkRun &Run : Suite)
    Rows += Run.Records.size();
  std::vector<double> Values(static_cast<size_t>(NumFeatures) * Rows);
  size_t Row = 0;
  for (const BenchmarkRun &Run : Suite)
    for (const BlockRecord &Rec : Run.Records) {
      for (unsigned F = 0; F != NumFeatures; ++F)
        Values[static_cast<size_t>(F) * Rows + Row] = Rec.X[F];
      ++Row;
    }
  return std::make_shared<const RankTable>(Rows, std::move(Values), &Pool);
}

/// labelSuite on \p Table, a rankSuite table of \p Suite: each dataset holds
/// exactly buildDataset's instances, as rows of the shared table.
std::vector<Dataset> labelOnTable(const std::vector<BenchmarkRun> &Suite,
                                  double ThresholdPct,
                                  const std::shared_ptr<const RankTable> &Table,
                                  TaskPool &Pool) {
  std::vector<size_t> First(Suite.size() + 1, 0);
  for (size_t B = 0; B != Suite.size(); ++B)
    First[B + 1] = First[B] + Suite[B].Records.size();
  std::vector<Dataset> Datasets(Suite.size());
  Pool.parallelFor(Suite.size(), [&](size_t B) {
    Dataset D(Suite[B].Name, Table);
    const std::vector<BlockRecord> &Records = Suite[B].Records;
    D.reserve(Records.size());
    for (size_t R = 0; R != Records.size(); ++R)
      if (std::optional<Label> L = labelWithThreshold(Records[R], ThresholdPct))
        D.addRow(static_cast<uint32_t>(First[B] + R), *L);
    Datasets[B] = std::move(D);
  });
  return Datasets;
}

} // namespace

std::vector<BenchmarkRun>
ExperimentEngine::generateSuiteData(const std::vector<BenchmarkSpec> &Suite,
                                    const MachineModel &Model) {
  std::vector<BenchmarkRun> Runs(Suite.size());
  Pool.parallelFor(Suite.size(), [&](size_t I) {
    const BenchmarkSpec &Spec = Suite[I];
    BenchmarkRun Run;
    Run.Name = Spec.Name;
    Run.ModelName = Model.getName();
    // The program is always regenerated (it is not cached; downstream
    // evaluation recompiles it under induced filters) -- and its block
    // count is handed to load() as an extra integrity check, so a stale
    // entry that somehow survived the versioned key is invalidated, not
    // believed.  The spec's registered family does the synthesis and
    // versions its half of the cache key.
    Run.Prog = generateWorkloadProgram(Spec);

    CorpusKey Key{Spec.Name,           Model.getName(),
                  workloadGeneratorVersion(Spec), TracePipelineVersion,
                  specFingerprint(Spec), Spec.Family};
    if (Cache) {
      if (std::optional<CachedRun> Hit =
              Cache->load(Key, Run.Prog.totalBlocks())) {
        Run.Records = std::move(Hit->Records);
        Run.NeverReport = Hit->NeverReport;
        Run.AlwaysReport = Hit->AlwaysReport;
        Runs[I] = std::move(Run);
        return;
      }
    }

    SchedContext Ctx;
    traceBenchmark(Run, Model, Ctx);
    TracedBlocks.fetch_add(Run.Records.size());
    if (Cache)
      Cache->store(Key, Run.Records, Run.NeverReport, Run.AlwaysReport);
    Runs[I] = std::move(Run);
  });
  return Runs;
}

std::vector<Dataset>
ExperimentEngine::labelSuite(const std::vector<BenchmarkRun> &Suite,
                             double ThresholdPct) {
  return labelOnTable(Suite, ThresholdPct, rankSuite(Suite, Pool), Pool);
}

ThresholdResult
ExperimentEngine::runThreshold(const std::vector<BenchmarkRun> &Suite,
                               double ThresholdPct, const LearnerFn &Learner) {
  return runThreshold(Suite, labelSuite(Suite, ThresholdPct), ThresholdPct,
                      Learner);
}

ThresholdResult
ExperimentEngine::runThreshold(const std::vector<BenchmarkRun> &Suite,
                               const std::vector<Dataset> &Labeled,
                               double ThresholdPct, const LearnerFn &Learner) {
  assert(Labeled.size() == Suite.size() && "one dataset per benchmark");
  ThresholdResult Result;
  Result.ThresholdPct = ThresholdPct;
  for (const Dataset &D : Labeled) {
    Result.TrainLS += D.countLabel(Label::LS);
    Result.TrainNS += D.countLabel(Label::NS);
  }

  std::vector<LoocvFold> Folds = leaveOneOut(Labeled, Learner, Pool);
  assert(Folds.size() == Suite.size() && "one fold per benchmark");

  // Recompile each benchmark under the target its fixed-policy reports
  // were priced on (generateSuiteData, or a mistune noise source, records
  // it); fall back to the paper's target for hand-assembled runs.
  std::vector<PerBenchmarkEval> Evals(Suite.size());
  Pool.parallelFor(Suite.size(), [&](size_t B) {
    MachineModel Model = MachineModel::ppc7410();
    if (std::optional<MachineModel> M =
            MachineModel::byName(Suite[B].ModelName))
      Model = *M;
    Evals[B] =
        evaluateBenchmark(Suite[B], Folds[B].Filter, Labeled[B], Model);
  });

  // Assemble in suite order (never completion order).
  for (size_t B = 0; B != Suite.size(); ++B) {
    Result.Names.push_back(Suite[B].Name);
    Result.Filters.push_back(std::move(Folds[B].Filter));
    Result.ErrorPct.push_back(Evals[B].ErrorPct);
    Result.PredictedTimePct.push_back(Evals[B].PredictedTimePct);
    Result.RuntimeLS += Evals[B].RuntimeLS;
    Result.RuntimeNS += Evals[B].RuntimeNS;
    Result.EffortRatioWork.push_back(Evals[B].EffortRatioWork);
    Result.EffortRatioWall.push_back(Evals[B].EffortRatioWall);
    Result.AppRatioLN.push_back(Evals[B].AppRatioLN);
    Result.AppRatioLS.push_back(Evals[B].AppRatioLS);
  }
  return Result;
}

std::vector<ThresholdResult>
ExperimentEngine::runThresholdSweep(const std::vector<BenchmarkRun> &Suite,
                                    const std::vector<double> &Thresholds,
                                    const LearnerFn &Learner) {
  std::shared_ptr<const RankTable> Table = rankSuite(Suite, Pool);
  std::vector<ThresholdResult> Results(Thresholds.size());
  Pool.parallelFor(Thresholds.size(), [&](size_t I) {
    Results[I] =
        runThreshold(Suite, labelOnTable(Suite, Thresholds[I], Table, Pool),
                     Thresholds[I], Learner);
  });
  return Results;
}
