//===- sched/SchedContext.h - Reusable per-block scheduling arena -*- C++ -*-===//
///
/// \file
/// The scratch arena behind the repository's allocation-free hot path.
/// Scheduling one block used to heap-allocate a fresh dependence-graph
/// adjacency, ready queues, scoreboard maps and trace buffers; a
/// SchedContext owns all of that storage and is threaded through
/// DependenceGraph, ListScheduler, BlockSimulator, ScheduleFilter and the
/// compile Pipeline, so that after a short warm-up, scheduling and
/// simulating a block performs zero steady-state allocations.
///
/// Contexts are cheap to construct, model-agnostic (the same context can
/// serve blocks for different MachineModels), and deliberately not
/// thread-safe: one context per thread.  Reuse never changes results --
/// every context entry point produces bit-for-bit the output of its
/// one-shot counterpart, which tests/schedcontext_test.cpp locks in.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_SCHED_SCHEDCONTEXT_H
#define SCHEDFILTER_SCHED_SCHEDCONTEXT_H

#include "features/FeatureMatrix.h"
#include "sched/DependenceGraph.h"
#include "sched/ListScheduler.h"
#include "sim/BlockSimulator.h"

namespace schedfilter {

/// Scratch arena for the per-block schedule/simulate pipeline.
class SchedContext {
public:
  SchedContext() = default;
  SchedContext(const SchedContext &) = delete;
  SchedContext &operator=(const SchedContext &) = delete;

  /// The reusable dependence graph (adjacency storage persists across
  /// build() calls).  Valid until the next build on this context.
  DependenceGraph &dag() { return Dag; }
  const DependenceGraph &dag() const { return Dag; }

  /// Register bookkeeping scratch for DAG construction.
  DagBuildScratch &dagScratch() { return DagScratch; }

  /// Ready queues and scoreboards for the list scheduler.
  ListSchedulerScratch &schedulerScratch() { return SchedScratch; }

  /// Scoreboard scratch for the block simulator.
  SimScratch &simScratch() { return SimulatorScratch; }

  /// Reusable trace buffer for BlockSimulator::simulateWithTrace; valid
  /// until the next trace call on this context.
  SimTrace &trace() { return Trace; }

  /// Scratch for ScheduleFilter::shouldScheduleBatch: the SoA feature
  /// matrix, the non-gated block list with its original-index map, the
  /// compiled filter's predicate bit matrix, per-row results, and the
  /// per-batch decision buffer pipelines hand back to the filter.  All
  /// grow-only, like every other arena buffer.
  FeatureMatrix &featureMatrix() { return Features; }
  std::vector<const BasicBlock *> &batchBlocks() { return BatchBlocks; }
  std::vector<uint32_t> &batchRowIndex() { return BatchRowIndex; }
  std::vector<uint64_t> &predScratch() { return PredScratch; }
  std::vector<unsigned char> &batchIsLS() { return BatchIsLS; }
  std::vector<uint64_t> &batchWork() { return BatchWork; }
  std::vector<char> &batchDecisions() { return BatchDecisions; }

private:
  DependenceGraph Dag;
  DagBuildScratch DagScratch;
  ListSchedulerScratch SchedScratch;
  SimScratch SimulatorScratch;
  SimTrace Trace;
  FeatureMatrix Features;
  std::vector<const BasicBlock *> BatchBlocks;
  std::vector<uint32_t> BatchRowIndex;
  std::vector<uint64_t> PredScratch;
  std::vector<unsigned char> BatchIsLS;
  std::vector<uint64_t> BatchWork;
  std::vector<char> BatchDecisions;
};

} // namespace schedfilter

#endif // SCHEDFILTER_SCHED_SCHEDCONTEXT_H
