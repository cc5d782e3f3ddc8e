//===- sched/ListScheduler.cpp - Critical-path list scheduling -------------===//

#include "sched/ListScheduler.h"

#include "sched/SchedContext.h"
#include "support/HotAlign.h"

#include <algorithm>
#include <cassert>
#include <functional>

using namespace schedfilter;

uint64_t ListScheduler::schedule(const BasicBlock &BB, SchedContext &Ctx,
                                 std::vector<int> &OrderOut) const {
  DependenceGraph &Dag = Ctx.dag();
  Dag.build(BB, Model, Ctx.dagScratch());
  return scheduleInto(BB, Dag, Ctx.schedulerScratch(), OrderOut) +
         Dag.workUnits();
}

SCHEDFILTER_HOT_ALIGN
uint64_t ListScheduler::scheduleInto(const BasicBlock &BB,
                                     const DependenceGraph &Dag,
                                     ListSchedulerScratch &S,
                                     std::vector<int> &OrderOut) const {
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
