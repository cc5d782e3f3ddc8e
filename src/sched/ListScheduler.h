//===- sched/ListScheduler.h - Critical-path list scheduling ----*- C++ -*-===//
///
/// \file
/// The paper's list scheduler (§1.1): starting from an empty schedule,
/// repeatedly append a ready instruction; under the critical path
/// scheduling (CPS) model, prefer the ready instruction that can start
/// soonest, and break ties by the longest weighted critical path to the end
/// of the block.  Ties beyond that go to the instruction with the most
/// dependence successors, then to original program order, so the result
/// is deterministic.
///
/// The scheduler reports abstract work units (DAG build + priority-queue
/// traffic) so that "scheduling effort" can be measured both as wall time
/// and as a deterministic count.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_SCHED_LISTSCHEDULER_H
#define SCHEDFILTER_SCHED_LISTSCHEDULER_H

#include "sched/DependenceGraph.h"

#include <cstdint>
#include <vector>

namespace schedfilter {

class SchedContext;

/// Ready instruction that can start at the current clock; ordered by the
/// CPS key -- longest weighted critical path first -- then by most
/// dependence successors, then original program order.  The key is a
/// total order (indices are unique), so the pick sequence is fully
/// determined.
struct ReadyNowEntry {
  long Cp;
  long Fanout;
  int Index;
  bool operator<(const ReadyNowEntry &O) const {
    if (Cp != O.Cp)
      return Cp < O.Cp; // max-heap on the critical path
    if (Fanout != O.Fanout)
      return Fanout < O.Fanout;
    return Index > O.Index; // then min index
  }
};

/// Ready instruction whose operands are not available yet; ordered by
/// earliest start time ("the instruction that can start soonest").
struct ReadyFutureEntry {
  long EarliestStart;
  int Index;
  bool operator>(const ReadyFutureEntry &O) const {
    if (EarliestStart != O.EarliestStart)
      return EarliestStart > O.EarliestStart;
    return Index > O.Index;
  }
};

/// Per-block scheduling scratch: ready queues, the in-degree scoreboard
/// and the earliest-start table.  Owned by a SchedContext (capacities
/// persist across blocks).
struct ListSchedulerScratch {
  std::vector<long> EarliestStart;
  std::vector<int> Pending;
  std::vector<ReadyNowEntry> Now;       ///< max-heap via std::push_heap
  std::vector<ReadyFutureEntry> Future; ///< min-heap via std::greater
};

/// Critical-path list scheduler over basic blocks.
class ListScheduler {
public:
  explicit ListScheduler(const MachineModel &Model) : Model(Model) {}

  /// Schedules \p BB: builds its DAG into \p Ctx (left in Ctx.dag() for
  /// callers that verify or inspect it) and writes the chosen order into
  /// \p OrderOut (cleared first; its capacity is reused).  OrderOut[i] is
  /// the original index of the i-th instruction in the new schedule.
  /// Always legal: every dependence-graph edge is respected.  Returns the
  /// total work units, DAG build plus scheduling.
  uint64_t schedule(const BasicBlock &BB, SchedContext &Ctx,
                    std::vector<int> &OrderOut) const;

  /// Core loop over an already-built DAG with caller-owned scratch;
  /// returns the scheduling (not DAG) work units.
  uint64_t scheduleInto(const BasicBlock &BB, const DependenceGraph &Dag,
                        ListSchedulerScratch &Scratch,
                        std::vector<int> &OrderOut) const;

private:
  const MachineModel &Model;
};

} // namespace schedfilter

#endif // SCHEDFILTER_SCHED_LISTSCHEDULER_H
