//===- harness/ParallelExperiments.h - Deterministic parallel engine -*- C++ -*-===//
///
/// \file
/// The experiment engine, the one harness entry: fans suite data
/// generation, threshold sweeps and LOOCV folds out across a fixed
/// TaskPool, with per-task SchedContext arenas and (for stochastic tasks)
/// per-task forked Rng streams.  A one-job engine is the serial harness;
/// sf-report, the bench binaries, the robustness frontier
/// (noise/Robustness.h), the tests and the examples all run through it.
///
/// The determinism contract: every method returns bit-for-bit the same
/// result at any job count.  Three properties deliver it:
///   1. every task is a pure function of its own inputs -- workloads are
///      generated from per-benchmark seeds, learners seed their own Rng,
///      and any task-level randomness comes from Rng::fork(taskIndex);
///   2. results are written into index-owned slots, so assembly order is
///      the input order, not completion order;
///   3. the only non-deterministic outputs anywhere are measured
///      wall-clock fields (CompileReport::SchedulingSeconds), which vary
///      run to run even serially and back no pinned number.
/// tests/determinism_test.cpp locks the contract in; EXPERIMENTS.md
/// documents it for the --jobs flag.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_HARNESS_PARALLELEXPERIMENTS_H
#define SCHEDFILTER_HARNESS_PARALLELEXPERIMENTS_H

#include "harness/Experiments.h"
#include "io/CorpusCache.h"
#include "support/TaskPool.h"

#include <atomic>

namespace schedfilter {

/// Experiment drivers over a fixed worker pool.  An engine is cheap to
/// construct (Jobs == 1 spawns no threads) and reusable across calls.
class ExperimentEngine {
public:
  explicit ExperimentEngine(unsigned Jobs = 1) : Pool(Jobs) {}

  unsigned jobs() const { return Pool.jobs(); }
  TaskPool &pool() { return Pool; }

  /// Attaches an on-disk corpus cache (not owned; may be null to detach).
  /// With a cache attached, generateSuiteData loads each benchmark's
  /// records and fixed-policy reports from disk when a valid entry exists
  /// -- bit-identical to retracing, including at any job count -- and
  /// populates the cache when one does not.  Tracing is a pure function
  /// of the cache key (benchmark, model, family, the family's generator
  /// version, TracePipelineVersion, spec fingerprint), which is what makes
  /// serving cached records sound -- provided the versions are bumped
  /// with the code they stand for (see their doc comments).
  void setCorpusCache(CorpusCache *C) { Cache = C; }
  CorpusCache *corpusCache() const { return Cache; }

  /// Blocks actually traced (scheduled + simulated) by this engine's
  /// generateSuiteData calls.  A warm-cache suite run adds zero -- the
  /// counter the cache tests pin this guarantee with.
  uint64_t tracedBlocks() const { return TracedBlocks.load(); }

  /// Traces every benchmark of \p Suite on \p Model, parallel by
  /// benchmark: generates its program and runs the §2.2
  /// instrumented-scheduler pass, which schedules each block once and
  /// yields the records plus the NS and LS fixed-policy reports.
  std::vector<BenchmarkRun>
  generateSuiteData(const std::vector<BenchmarkSpec> &Suite,
                    const MachineModel &Model);

  /// Labels every benchmark's records at threshold \p ThresholdPct
  /// (dropping the (0, t] noise band), one Dataset per benchmark, in
  /// suite order; parallel by benchmark.  The datasets hold buildDataset's
  /// instances as rows of one rank table over the suite's records, so
  /// every training set pooled from them trains without re-ranking.
  std::vector<Dataset> labelSuite(const std::vector<BenchmarkRun> &Suite,
                                  double ThresholdPct);

  /// Runs the full experiment at one threshold: label, LOOCV-train with
  /// \p Learner, evaluate, and recompile each program under its held-out
  /// filter and its own run's model.  LOOCV folds and the per-benchmark
  /// evaluation both fan out.
  ThresholdResult runThreshold(const std::vector<BenchmarkRun> &Suite,
                               double ThresholdPct, const LearnerFn &Learner);

  /// runThreshold over datasets the caller already labeled (one per run,
  /// in suite order) -- e.g. through a noise stack's label hooks.
  /// \p ThresholdPct is reported, not re-applied.  Each fold trains on
  /// the datasets' own instances (ranked per fold unless they sit on a
  /// shared rank table).
  ThresholdResult runThreshold(const std::vector<BenchmarkRun> &Suite,
                               const std::vector<Dataset> &Labeled,
                               double ThresholdPct, const LearnerFn &Learner);

  /// Sweeps thresholds (the paper uses paperThresholds()) and returns one
  /// ThresholdResult per value: thresholds fan out across the pool; each
  /// threshold's inner layers run inline on the worker that owns it
  /// (TaskPool nesting).  The suite is ranked once for the whole sweep:
  /// every threshold's folds train on views of one shared rank table.
  std::vector<ThresholdResult>
  runThresholdSweep(const std::vector<BenchmarkRun> &Suite,
                    const std::vector<double> &Thresholds,
                    const LearnerFn &Learner);

private:
  TaskPool Pool;
  CorpusCache *Cache = nullptr;
  std::atomic<uint64_t> TracedBlocks{0};
};

} // namespace schedfilter

#endif // SCHEDFILTER_HARNESS_PARALLELEXPERIMENTS_H
