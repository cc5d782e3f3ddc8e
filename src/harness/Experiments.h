//===- harness/Experiments.h - Paper experiment data types ------*- C++ -*-===//
///
/// \file
/// The vocabulary of the paper's evaluation: a traced benchmark (its
/// program, per-block raw records -- features + simulated cost with and
/// without list scheduling + profile weight -- and its two fixed-policy
/// compile reports), everything measured at one threshold t, the
/// paper's threshold grid and the default learner.  ExperimentEngine
/// (harness/ParallelExperiments.h) is the one entry that produces them;
/// sf-report prints Tables 3-6 and Figures 1-4 from its results.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_HARNESS_EXPERIMENTS_H
#define SCHEDFILTER_HARNESS_EXPERIMENTS_H

#include "filter/Pipeline.h"
#include "ml/CrossValidation.h"
#include "ml/Labeler.h"
#include "target/MachineModel.h"
#include "workloads/ProgramGenerator.h"

namespace schedfilter {

/// Version of the tracing pipeline *downstream* of the program
/// generator, the other half of the corpus-cache key
/// (io/CorpusCache.h).  A cached record is
/// f(program, ListScheduler, BlockSimulator, MachineModel tables), so
/// this MUST be bumped by any change that alters traced costs or
/// fixed-policy compile reports for some block -- scheduler priority or
/// tie-breaking tweaks, simulator scoreboard changes, latency/issue
/// table edits -- or warm caches will keep serving records computed by
/// the old code.  GeneratorVersion (workloads/ProgramGenerator.h)
/// covers the program-synthesis half.
constexpr uint32_t TracePipelineVersion = 1;

/// One benchmark, fully instrumented: its program, the raw per-block
/// records (the paper's trace file), and its two fixed-policy compile
/// reports.
struct BenchmarkRun {
  std::string Name;
  /// Name of the MachineModel the fixed-policy reports were priced under
  /// (set by ExperimentEngine::generateSuiteData, moved by a mistune noise
  /// source); runThreshold recompiles each run under its own model so
  /// cross-model experiments stay consistent.
  std::string ModelName;
  Program Prog;
  std::vector<BlockRecord> Records;
  CompileReport NeverReport;  ///< NS: baseline SIM time, zero effort.
  CompileReport AlwaysReport; ///< LS: full effort, best-effort SIM time.

  BenchmarkRun() : Prog("") {}
};

/// The runs of \p Suite as labelRecordSets input (ml/Labeler.h): each
/// run's name and records, borrowed, in suite order.
std::vector<RecordSet> recordSets(const std::vector<BenchmarkRun> &Suite);

/// Everything measured at one threshold value, per benchmark (parallel
/// arrays in suite order) plus suite-level aggregates.
struct ThresholdResult {
  double ThresholdPct = 0.0;
  std::vector<std::string> Names;

  /// Table 3: LOOCV classification error, percent.
  std::vector<double> ErrorPct;
  /// Table 4: predicted (simulated) execution time as a percent of
  /// unscheduled, using each benchmark's cross-validated filter.
  std::vector<double> PredictedTimePct;
  /// Table 5 aggregates: labeled training-set sizes summed over the suite.
  size_t TrainLS = 0;
  size_t TrainNS = 0;
  /// Table 6 aggregates: run-time classification of every block by the
  /// held-out benchmark's own filter, summed over the suite.
  size_t RuntimeLS = 0;
  size_t RuntimeNS = 0;

  /// Figures (a): scheduling effort of L/N relative to LS, per benchmark,
  /// in deterministic work units.
  std::vector<double> EffortRatioWork;
  /// Figures (b): application (simulated) running time relative to NS.
  std::vector<double> AppRatioLN; ///< L/N filter
  std::vector<double> AppRatioLS; ///< always-schedule, threshold-invariant

  /// The cross-validated filter per benchmark (for Figure 4 printing and
  /// the tests).
  std::vector<RuleSet> Filters;
};

/// The paper's threshold grid: {0, 5, ..., 50}.
std::vector<double> paperThresholds();

/// Default learner used throughout: RIPPER with its stock options.
LearnerFn ripperLearner();

/// Pooled default learner: RIPPER with its stock options, fanning the
/// per-feature candidate scans of each train() call across \p Pool.
/// Bit-identical to ripperLearner() at any job count, and safe to hand to
/// leaveOneOut on the same pool (nested parallelFor runs inline).
/// \p Pool must outlive the returned functor.
LearnerFn ripperLearner(TaskPool &Pool);

} // namespace schedfilter

#endif // SCHEDFILTER_HARNESS_EXPERIMENTS_H
