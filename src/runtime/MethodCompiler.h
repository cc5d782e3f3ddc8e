//===- runtime/MethodCompiler.h - Per-method tiered compile -----*- C++ -*-===//
///
/// \file
/// The one per-block compile fold: one method, compiled under one
/// scheduling policy -- the unit of work the serving engine's
/// recompilation queue retires.  compileProgram is this fold looped over
/// a program's methods, and the experiment engine's trace
/// (harness/ParallelExperiments.cpp) is traceMethod looped the same way.
/// Both run the same timed scheduling phase, so batch compilation,
/// tracing and serving share one recipe.  MethodCompiler depends only on
/// filter/ and the layers below it.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_RUNTIME_METHODCOMPILER_H
#define SCHEDFILTER_RUNTIME_METHODCOMPILER_H

#include "filter/Pipeline.h"
#include "filter/ScheduleFilter.h"
#include "mir/Program.h"
#include "ml/Labeler.h"
#include "sched/ListScheduler.h"
#include "sim/BlockSimulator.h"

namespace schedfilter {

class SchedContext;

/// Compiles methods one at a time under a scheduling policy, accumulating
/// into a running CompileReport.  Holds the scheduler/simulator pair and
/// borrows a SchedContext, so retiring method after method on the same
/// compiler performs zero steady-state allocations (one compiler per
/// worker thread; contexts are not thread-safe).
class MethodCompiler {
public:
  MethodCompiler(const MachineModel &Model, SchedContext &Ctx);

  /// Compiles \p M under \p Policy, accumulating counts, work units, wall
  /// time and simulated application time into \p Report.  \p Filter must
  /// be non-null iff Policy == Filtered; the work units of its decisions
  /// are charged to Report.FilterWork and Report.SchedulingWork, as the
  /// pipeline does, and the blocks it chose count in Report.NumScheduled.
  ///
  /// Accumulation is a flat per-block fold in block order: calling this
  /// for a sequence of methods yields the exact CompileReport (bit-for-bit
  /// SimulatedTime included) of compileProgram over a program holding the
  /// same methods in the same order.
  void compileMethod(const Method &M, SchedulingPolicy Policy,
                     const ScheduleFilter *Filter, CompileReport &Report);

  /// The §2.2 instrumented-scheduler pass over one method: appends one
  /// BlockRecord per block (features, simulated cost unscheduled and
  /// list-scheduled, profile weight) to \p Records, in block order, and
  /// returns the SchedulingWork of compileMethod(M, Always, ...).  The
  /// pass is the LS compile's scheduling phase plus two simulations per
  /// block; fixedPolicyReports (filter/Pipeline.h) prices both
  /// fixed-policy reports from the records and that work.  The
  /// experiment engine traces whole benchmarks with it, and the online
  /// serving loop traces exactly the methods its optimizing tier
  /// compiles.  A pure function of (method, model) -- safe at any
  /// parallelism when each worker appends into its own index-owned
  /// vector.
  uint64_t traceMethod(const Method &M, std::vector<BlockRecord> &Records);

private:
  ListScheduler Scheduler;
  BlockSimulator Sim;
  SchedContext &Ctx;
  /// One order slot per block of the method being compiled, so the timed
  /// scheduling phase runs before simulation.  The outer vector only
  /// grows and each slot keeps its capacity across methods.
  std::vector<std::vector<int>> Orders;

  /// The timed scheduling phase shared by compileMethod and traceMethod:
  /// asks the filter about each block of \p M in order, fills one order
  /// slot per block (empty for a block left unscheduled), and charges
  /// counts, work units and wall time to \p Report -- the one tally of
  /// the filter's decisions and their cost.
  void schedulePhase(const Method &M, SchedulingPolicy Policy,
                     const ScheduleFilter *Filter, CompileReport &Report);
};

/// Compiles \p P under \p Policy on \p Model: MethodCompiler::compileMethod
/// over the program's methods in order, with a fresh SchedContext.
/// \p Filter must be non-null iff Policy == Filtered.
CompileReport compileProgram(const Program &P, const MachineModel &Model,
                             SchedulingPolicy Policy,
                             const ScheduleFilter *Filter = nullptr);

} // namespace schedfilter

#endif // SCHEDFILTER_RUNTIME_METHODCOMPILER_H
