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
/// The loop is cycle-driven: instructions whose operands are available
/// at the current clock wait in a ready-now heap ordered by that CPS key,
/// the rest in a future heap ordered by earliest start; when ready-now
/// runs dry the clock jumps to the soonest future start.  Each block packs
/// its keys into one uint64_t per instruction (ListSchedulerScratch), so a
/// heap step is an integer compare.  The packing bounds the block to 2^20
/// instructions and its critical path to 2^24 - 1 cycles; a block beyond
/// either aborts with both figures rather than being misordered.
///
/// The scheduler reports abstract work units (DAG build + priority-queue
/// traffic) so that "scheduling effort" can be measured both as wall time
/// and as a deterministic count.  The scheduling share is 3 per
/// instruction (a future-heap pop, a ready-now push and the ready-now pop
/// that picks it: the heap traffic of the classic two-queue formulation,
/// counted even when an instruction released at the current clock skips
/// the future heap), 1 per dependence edge released, and 1 per pick at
/// which no instruction was already waiting in ready-now -- the clock
/// check of that formulation, taken at the first pick too.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_SCHED_LISTSCHEDULER_H
#define SCHEDFILTER_SCHED_LISTSCHEDULER_H

#include "sched/DependenceGraph.h"

#include <cstdint>
#include <vector>

namespace schedfilter {

class SchedContext;

/// Per-block scheduling scratch.  Owned by a SchedContext: capacities
/// persist across blocks, and every array only grows (its size is at
/// least the largest block seen; only the block's prefix is live).
///
/// Node[i] holds instruction i's packed CPS key, its earliest start and
/// its count of unscheduled predecessors.  Both ready queues are binary
/// heaps of uint64_t keys, sifted in place with an explicit size:
///   - Now, a max-heap of Key = Cp << 2*IndexBits | Fanout << IndexBits
///     | (IndexMask - i): the CPS order -- longest weighted critical path,
///     then most dependence successors, then first in program order -- as
///     one integer compare.  Indices are unique, so the order is total.
///   - Future, a min-heap of EarliestStart << IndexBits | i: the
///     instruction that can start soonest, then program order.
/// The key is total only if the block has at most 2^IndexBits
/// instructions (fanout is below that too) and its critical path fits in
/// the 64 - 2*IndexBits bits above them; scheduleInto checks both once per
/// block and aborts otherwise.  EarliestStart never exceeds the largest
/// critical path, so the one check covers the Future keys as well.
struct ListSchedulerScratch {
  static constexpr unsigned IndexBits = 20;
  static constexpr uint64_t IndexMask = (uint64_t(1) << IndexBits) - 1;
  static constexpr uint64_t MaxInstructions = IndexMask + 1;
  static constexpr uint64_t MaxCriticalPath =
      (uint64_t(1) << (64 - 2 * IndexBits)) - 1;

  struct NodeState {
    uint64_t Key;
    long EarliestStart;
    int Pending;
  };
  std::vector<NodeState> Node;
  std::vector<uint64_t> Now;
  std::vector<uint64_t> Future;
};

/// Critical-path list scheduler over basic blocks.
class ListScheduler {
public:
  explicit ListScheduler(const MachineModel &Model) : Model(Model) {}

  /// Schedules \p BB: builds its DAG into \p Ctx (left in Ctx.dag() for
  /// callers that verify or inspect it) and writes the chosen order into
  /// \p OrderOut (resized to the block; its capacity is reused).  OrderOut[i] is
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
