//===- filter/Pipeline.h - Policies and compile reports ---------*- C++ -*-===//
///
/// \file
/// The vocabulary of the experiment pipeline, which "compiles" a program
/// block by block under a scheduling policy, as the paper's JIT presents
/// blocks to its scheduler (runtime/MethodCompiler.h runs it).
///
/// Three policies, matching §4: NS (never schedule), LS (always run the
/// list scheduler), and L/N (consult the induced filter per block).  A
/// compile accounts scheduling effort two ways — measured wall-clock time
/// and deterministic work units — and computes the paper's SIM(P) metric,
/// the sum over blocks of (execution count x simulated cycles) under the
/// order the policy produced.  As in the paper, the cost of computing
/// features and evaluating the heuristic is charged to scheduling effort.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_FILTER_PIPELINE_H
#define SCHEDFILTER_FILTER_PIPELINE_H

#include <cstdint>
#include <vector>

namespace schedfilter {

struct BlockRecord;

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

/// The NS and LS compile reports of one traced program.
struct FixedPolicyReports {
  CompileReport Never;
  CompileReport Always;
};

/// Both fixed-policy reports of the program whose trace is \p Records,
/// given the LS compile's SchedulingWork: NS folds ExecCount x
/// CostNoSched and LS folds ExecCount x CostSched, each in record order --
/// the folds compileProgram runs under the Never and Always policies, so
/// both reports equal compileProgram's bit for bit (wall time aside,
/// which they leave at 0).
FixedPolicyReports fixedPolicyReports(const std::vector<BlockRecord> &Records,
                                      uint64_t AlwaysSchedulingWork);

} // namespace schedfilter

#endif // SCHEDFILTER_FILTER_PIPELINE_H
