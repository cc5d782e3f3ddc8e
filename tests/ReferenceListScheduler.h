//===- tests/ReferenceListScheduler.h - The old list scheduler -*- C++ -*-===//
//
// A faithful copy of the repository's original ListScheduler::scheduleInto
// (ready queues of {Cp, Fanout, Index} and {EarliestStart, Index} structs
// kept with std::push_heap/std::pop_heap, every released instruction
// routed through the future heap), kept as the reference the packed-key
// scheduler is pinned against.  tests/scheduler_test.cpp asserts that
// ListScheduler::scheduleInto returns this scheduler's order and work
// units on every block it throws at both.
//
// Do not "improve" this file: its value is being exactly the old
// algorithm, heap operation for heap operation.
//
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_TESTS_REFERENCELISTSCHEDULER_H
#define SCHEDFILTER_TESTS_REFERENCELISTSCHEDULER_H

#include "sched/DependenceGraph.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

namespace schedfilter {
namespace reference {

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
/// and the earliest-start table.
struct ListSchedulerScratch {
  std::vector<long> EarliestStart;
  std::vector<int> Pending;
  std::vector<ReadyNowEntry> Now;       ///< max-heap via std::push_heap
  std::vector<ReadyFutureEntry> Future; ///< min-heap via std::greater
};

/// Core loop over an already-built DAG; returns the scheduling (not DAG)
/// work units.
inline uint64_t scheduleInto(const BasicBlock &BB, const DependenceGraph &Dag,
                             ListSchedulerScratch &S,
                             std::vector<int> &OrderOut) {
  int N = static_cast<int>(BB.size());
  uint64_t WorkUnits = 0;
  OrderOut.clear();
  OrderOut.reserve(static_cast<size_t>(N));

  // Cycle-driven CPS: among instructions that can start at the current
  // clock, pick the one with the longest weighted critical path; when none
  // can, advance the clock to the next earliest start time.  This realizes
  // the paper's "can start soonest, ties by critical path" rule with
  // O(log n) per decision.
  S.EarliestStart.assign(static_cast<size_t>(N), 0);
  const std::vector<int> &InDeg = Dag.inDegrees();
  S.Pending.assign(InDeg.begin(), InDeg.end());
  std::vector<ReadyNowEntry> &Now = S.Now;
  std::vector<ReadyFutureEntry> &Future = S.Future;
  Now.clear();
  Future.clear();
  const std::greater<ReadyFutureEntry> FutureLess; // min-heap comparator

  for (int I = 0; I != N; ++I)
    if (S.Pending[static_cast<size_t>(I)] == 0) {
      Future.push_back({0, I});
      std::push_heap(Future.begin(), Future.end(), FutureLess);
    }

  long Clock = 0;
  while (!Now.empty() || !Future.empty()) {
    if (Now.empty()) {
      Clock = std::max(Clock, Future.front().EarliestStart);
      ++WorkUnits;
    }
    // Promote everything that can start at (or before) the clock.
    while (!Future.empty() && Future.front().EarliestStart <= Clock) {
      int Idx = Future.front().Index;
      std::pop_heap(Future.begin(), Future.end(), FutureLess);
      Future.pop_back();
      long Cp = Dag.criticalPath(Idx);
      long Fanout = static_cast<long>(Dag.succs(Idx).size());
      Now.push_back({Cp, Fanout, Idx});
      std::push_heap(Now.begin(), Now.end());
      WorkUnits += 2; // one pop + one push
    }
    if (Now.empty())
      continue; // clock advanced; promote again

    int Picked = Now.front().Index;
    std::pop_heap(Now.begin(), Now.end());
    Now.pop_back();
    ++WorkUnits;
    OrderOut.push_back(Picked);

    for (const DepEdge &E : Dag.succs(Picked)) {
      long Avail = Clock + static_cast<long>(E.Latency);
      size_t To = static_cast<size_t>(E.To);
      if (Avail > S.EarliestStart[To])
        S.EarliestStart[To] = Avail;
      ++WorkUnits;
      if (--S.Pending[To] == 0) {
        Future.push_back({S.EarliestStart[To], E.To});
        std::push_heap(Future.begin(), Future.end(), FutureLess);
      }
    }
  }

  assert(OrderOut.size() == static_cast<size_t>(N) &&
         "cycle in dependence graph: not all instructions were scheduled");
  return WorkUnits;
}

} // namespace reference
} // namespace schedfilter

#endif // SCHEDFILTER_TESTS_REFERENCELISTSCHEDULER_H
