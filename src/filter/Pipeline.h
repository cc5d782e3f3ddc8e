//===- filter/Pipeline.h - JIT-style compile pass ----------------*- C++ -*-===//
///
/// \file
/// The experiment pipeline: "compile" a program block by block under a
/// scheduling policy, as the paper's JIT presents blocks to its scheduler.
///
/// Three policies, matching §4: NS (never schedule), LS (always run the
/// list scheduler), and L/N (consult the induced filter per block).  The
/// pipeline accounts scheduling effort two ways — measured wall-clock time
/// and deterministic work units — and computes the paper's SIM(P) metric,
/// the sum over blocks of (execution count x simulated cycles) under the
/// order the policy produced.  As in the paper, the cost of computing
/// features and evaluating the heuristic is charged to scheduling effort.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_FILTER_PIPELINE_H
#define SCHEDFILTER_FILTER_PIPELINE_H

#include "filter/ScheduleFilter.h"
#include "mir/Program.h"
#include "sched/ListScheduler.h"
#include "sim/BlockSimulator.h"

#include <optional>

namespace schedfilter {

/// Which blocks get scheduled.
enum class SchedulingPolicy {
  Never,    ///< NS: schedule nothing.
  Always,   ///< LS: schedule every block.
  Filtered, ///< L/N: schedule blocks the induced filter selects.
};

/// Returns "NS", "LS" or "L/N".
const char *getPolicyName(SchedulingPolicy P);

/// Everything measured while compiling one program under one policy.
struct CompileReport {
  SchedulingPolicy Policy = SchedulingPolicy::Never;
  uint64_t NumBlocks = 0;
  uint64_t NumScheduled = 0;

  /// Measured wall-clock scheduling phase time (DAG build + list
  /// scheduling + feature/filter evaluation), seconds.
  double SchedulingSeconds = 0.0;
  /// Deterministic counterpart of SchedulingSeconds (work units).
  uint64_t SchedulingWork = 0;
  /// Portion of SchedulingWork spent on features + rule evaluation.
  uint64_t FilterWork = 0;

  /// The paper's SIM(P): sum over blocks of exec-count x simulated cycles
  /// under the final (possibly rescheduled) order.
  double SimulatedTime = 0.0;
};

/// Compiles \p P under \p Policy on \p Model.  \p Filter must be non-null
/// iff Policy == Filtered.  The fold is MethodCompiler::compileMethod over
/// the program's methods in order (runtime/MethodCompiler.h).
CompileReport compileProgram(const Program &P, const MachineModel &Model,
                             SchedulingPolicy Policy,
                             ScheduleFilter *Filter = nullptr);

/// Context-reuse variant: identical report, but the per-block scratch
/// (DAG adjacency, ready queues, scoreboards) lives in \p Ctx, so
/// compiling block after block -- and program after program with the
/// same context -- performs zero steady-state allocations.
CompileReport compileProgram(const Program &P, const MachineModel &Model,
                             SchedulingPolicy Policy, ScheduleFilter *Filter,
                             SchedContext &Ctx);

// The adaptive (hot-method-only) variant of §3.1, compileProgramAdaptive,
// is declared beside MethodCompiler in runtime/MethodCompiler.h.

} // namespace schedfilter

#endif // SCHEDFILTER_FILTER_PIPELINE_H
