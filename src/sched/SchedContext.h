//===- sched/SchedContext.h - Reusable per-block scheduling arena -*- C++ -*-===//
///
/// \file
/// The scratch arena behind every block the repository builds, schedules,
/// simulates or verifies.  A SchedContext owns the dependence-graph
/// adjacency, ready queues and scoreboards, and is threaded through
/// DependenceGraph, ListScheduler, BlockSimulator and MethodCompiler, so
/// that after a short warm-up, scheduling and simulating a block performs
/// zero steady-state allocations.  Filter decisions need no arena:
/// ScheduleFilter extracts and evaluates one block at a time on the stack.
///
/// Contexts are cheap to construct, model-agnostic (the same context can
/// serve blocks for different MachineModels), and deliberately not
/// thread-safe: one context per thread.  Reuse never changes results --
/// a reused context gives bit-for-bit what a fresh one gives, which
/// tests/schedcontext_test.cpp locks in.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_SCHED_SCHEDCONTEXT_H
#define SCHEDFILTER_SCHED_SCHEDCONTEXT_H

#include "sched/DependenceGraph.h"
#include "sched/ListScheduler.h"
#include "sim/BlockSimulator.h"

namespace schedfilter {

/// Scratch arena for the per-block schedule/simulate pipeline.  Aligned
/// to a cache line: workers' contexts are often allocated back to back,
/// and the scratch headers they write per block must not share a line.
class alignas(64) SchedContext {
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

private:
  DependenceGraph Dag;
  DagBuildScratch DagScratch;
  ListSchedulerScratch SchedScratch;
  SimScratch SimulatorScratch;
};

} // namespace schedfilter

#endif // SCHEDFILTER_SCHED_SCHEDCONTEXT_H
