//===- perfbench/Replay.h - Per-layer replay of L/N compiles -----*- C++ -*-===//
///
/// \file
/// The layers a compile runs through (features, filter, sched, sim) are
/// entered inside MethodCompiler::compileMethod, MultiAppService::run and
/// runThresholdSweep, where a span from outside cannot reach.  The replayer
/// feeds the exact methods a workload compiled under L/N, with the exact
/// filter version that compiled them, through each layer's public calls in
/// compileMethod's order, one span per layer per method.
///
/// Every replayed decision and order is also checked against an oracle the
/// compile path does not use: the decision against RuleSet::predict (the
/// interpreter), batch evaluation against scalar evaluation, and every
/// produced order against verifySchedule.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include "Bench.h"

#include "filter/FilterVersion.h"
#include "mir/Method.h"
#include "sched/SchedContext.h"

namespace perfbench {

/// Totals of one replay, comparable with ServiceStats / CompileReport.
struct ReplayTotals {
  uint64_t Blocks = 0;
  uint64_t Evaluated = 0; ///< blocks past the bbLen gate (features + rules)
  uint64_t Scheduled = 0; ///< LS decisions
  uint64_t Skipped = 0;   ///< NS decisions
  uint64_t Improved = 0;  ///< LS decisions whose schedule SIM says is faster
  uint64_t FilterWork = 0;
  uint64_t DagWork = 0;
  uint64_t ListWork = 0;
  uint64_t DagEdges = 0;
  uint64_t VerifyFailures = 0;

  /// Work units compileMethod charges: filter + DAG + list scheduler.
  uint64_t schedulingWork() const { return FilterWork + DagWork + ListWork; }
};

class Replayer {
public:
  Replayer(const schedfilter::MachineModel &Model, Tracer &T, Checks &C);

  /// Replays one L/N compile of \p M under \p Art; \p Request names the
  /// compile in the trace.
  void compile(const schedfilter::Method &M,
               const schedfilter::FilterArtifact &Art, uint64_t Request);

  const ReplayTotals &totals() const { return Totals; }

  /// Adds the totals to the tracer's per-layer counters.
  void publish() const;

private:
  const schedfilter::MachineModel &Model;
  Tracer &T;
  Checks &C;
  schedfilter::ListScheduler Scheduler;
  schedfilter::BlockSimulator Sim;
  schedfilter::SchedContext Ctx;
  ReplayTotals Totals;

  // Grow-only per-method scratch.
  std::vector<const schedfilter::BasicBlock *> Batch;
  std::vector<uint32_t> Rows;
  std::vector<schedfilter::FeatureVector> Xs;
  std::vector<schedfilter::CompiledFilter::Decision> Scalar;
  std::vector<unsigned char> IsLS;
  std::vector<uint64_t> RowWork;
  std::vector<char> Decide;
  std::vector<uint32_t> LSBlocks;
  std::vector<schedfilter::DependenceGraph> Dags;
  std::vector<std::vector<int>> Orders;
  std::vector<uint64_t> Cycles;
  schedfilter::FeatureMatrix Matrix;
  schedfilter::CompiledFilter::BatchScratch Pred;
};

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
