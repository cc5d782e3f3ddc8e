//===- sched/ListScheduler.cpp - Critical-path list scheduling -------------===//

#include "sched/ListScheduler.h"

#include "sched/SchedContext.h"
#include "support/HotAlign.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace schedfilter;

namespace {

using Scratch = ListSchedulerScratch;

/// Prints the block's size and critical path against the key's bounds to
/// stderr and aborts.
[[noreturn]] void keyOverflow(size_t N, uint64_t MaxCp) {
  std::fprintf(stderr,
               "ListScheduler: block of %zu instructions with critical path "
               "%llu does not fit the packed key (at most %llu instructions "
               "and a critical path of %llu)\n",
               N, static_cast<unsigned long long>(MaxCp),
               static_cast<unsigned long long>(Scratch::MaxInstructions),
               static_cast<unsigned long long>(Scratch::MaxCriticalPath));
  std::abort();
}

/// Binary-heap push and pop over H[0, Size): Before(A, B) means A sits
/// nearer the root.  Hole-based sifts: one store per level.
template <typename BeforeFn>
inline void heapPush(std::vector<uint64_t> &H, size_t &Size, uint64_t K,
                     BeforeFn Before) {
  size_t Hole = Size++;
  while (Hole != 0) {
    size_t Parent = (Hole - 1) / 2;
    if (!Before(K, H[Parent]))
      break;
    H[Hole] = H[Parent];
    Hole = Parent;
  }
  H[Hole] = K;
}

template <typename BeforeFn>
inline uint64_t heapPop(std::vector<uint64_t> &H, size_t &Size,
                        BeforeFn Before) {
  uint64_t Top = H[0];
  uint64_t Last = H[--Size];
  size_t Hole = 0;
  for (;;) {
    size_t Child = 2 * Hole + 1;
    if (Child >= Size)
      break;
    if (Child + 1 < Size && Before(H[Child + 1], H[Child]))
      ++Child;
    if (!Before(H[Child], Last))
      break;
    H[Hole] = H[Child];
    Hole = Child;
  }
  H[Hole] = Last;
  return Top;
}

inline bool nowBefore(uint64_t A, uint64_t B) { return A > B; }
inline bool futureBefore(uint64_t A, uint64_t B) { return A < B; }

} // namespace

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
  const size_t N = BB.size();
  OrderOut.resize(N);
  if (N == 0)
    return 0;
  if (S.Node.size() < N) {
    S.Node.resize(N);
    S.Now.resize(N);
    S.Future.resize(N);
  }

  // One pass packs every key, tracks the largest critical path for the
  // bounds check, resets the scoreboard and seeds ready-now with the
  // roots (all start at clock 0).
  const std::vector<int> &InDeg = Dag.inDegrees();
  size_t NowSize = 0, FutureSize = 0;
  uint64_t MaxCp = 0;
  for (size_t I = 0; I != N; ++I) {
    int Node = static_cast<int>(I);
    uint64_t Cp = static_cast<uint64_t>(Dag.criticalPath(Node));
    MaxCp = Cp > MaxCp ? Cp : MaxCp;
    uint64_t Key = Cp << (2 * Scratch::IndexBits) |
                   static_cast<uint64_t>(Dag.succs(Node).size())
                       << Scratch::IndexBits |
                   (Scratch::IndexMask - I);
    S.Node[I] = {Key, 0, InDeg[I]};
    if (InDeg[I] == 0)
      heapPush(S.Now, NowSize, Key, nowBefore);
  }
  if (N > Scratch::MaxInstructions || MaxCp > Scratch::MaxCriticalPath)
    keyOverflow(N, MaxCp);

  // Heap traffic is 3 units per instruction and edge release 1 per edge
  // (see the file comment); the loop adds the clock checks.
  uint64_t WorkUnits = 3 * N + Dag.numEdges();
  long Clock = 0;
  size_t Waiting = 0; // ready-now entries left over from earlier picks
  size_t Pos = 0;
  while (NowSize != 0 || FutureSize != 0) {
    if (Waiting == 0)
      ++WorkUnits;
    if (NowSize == 0) {
      // Nothing can start at the clock: jump to the soonest start and
      // promote every instruction that can start then.
      Clock = static_cast<long>(S.Future[0] >> Scratch::IndexBits);
      do {
        size_t Idx = heapPop(S.Future, FutureSize, futureBefore) &
                     Scratch::IndexMask;
        heapPush(S.Now, NowSize, S.Node[Idx].Key, nowBefore);
      } while (FutureSize != 0 &&
               static_cast<long>(S.Future[0] >> Scratch::IndexBits) <= Clock);
    }

    int Picked = static_cast<int>(
        Scratch::IndexMask -
        (heapPop(S.Now, NowSize, nowBefore) & Scratch::IndexMask));
    OrderOut[Pos++] = Picked;
    Waiting = NowSize;

    for (const DepEdge &E : Dag.succs(Picked)) {
      size_t To = static_cast<size_t>(E.To);
      long Avail = Clock + static_cast<long>(E.Latency);
      Scratch::NodeState &T = S.Node[To];
      if (Avail > T.EarliestStart)
        T.EarliestStart = Avail;
      if (--T.Pending == 0) {
        long Start = T.EarliestStart;
        if (Start <= Clock)
          heapPush(S.Now, NowSize, T.Key, nowBefore);
        else
          heapPush(S.Future, FutureSize,
                   static_cast<uint64_t>(Start) << Scratch::IndexBits | To,
                   futureBefore);
      }
    }
  }

  assert(Pos == N &&
         "cycle in dependence graph: not all instructions were scheduled");
  return WorkUnits;
}
