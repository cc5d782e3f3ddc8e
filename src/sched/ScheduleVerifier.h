//===- sched/ScheduleVerifier.h - Semantic-equivalence check ----*- C++ -*-===//
///
/// \file
/// Verifies that a schedule is a semantically equivalent permutation of the
/// original block: per the paper, "permutations are semantically equivalent
/// if all pairs of dependent instructions occur in the same order in both
/// permutations."  Used heavily by the property tests.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_SCHED_SCHEDULEVERIFIER_H
#define SCHEDFILTER_SCHED_SCHEDULEVERIFIER_H

#include "sched/DependenceGraph.h"

#include <string>
#include <vector>

namespace schedfilter {

/// Outcome of schedule verification.
struct ScheduleVerifyResult {
  bool Ok = true;
  std::string Message;
};

/// Checks that \p Order is a permutation of [0, n) that respects every edge
/// of \p Dag -- typically the DAG ListScheduler::schedule just left in
/// its SchedContext.
ScheduleVerifyResult verifySchedule(const DependenceGraph &Dag,
                                    const std::vector<int> &Order);

} // namespace schedfilter

#endif // SCHEDFILTER_SCHED_SCHEDULEVERIFIER_H
