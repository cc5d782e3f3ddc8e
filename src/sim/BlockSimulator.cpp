//===- sim/BlockSimulator.cpp - Simplified block timing model --------------===//

#include "sim/BlockSimulator.h"

#include "sched/SchedContext.h"
#include "support/HotAlign.h"

#include <algorithm>
#include <cassert>

using namespace schedfilter;

namespace {

/// Fills \p Identity with 0..N-1, reusing its capacity.
const std::vector<int> &identityOrder(std::vector<int> &Identity, size_t N) {
  Identity.resize(N);
  for (size_t I = 0; I != N; ++I)
    Identity[I] = static_cast<int>(I);
  return Identity;
}

} // namespace

uint64_t BlockSimulator::simulate(const BasicBlock &BB,
                                  SchedContext &Ctx) const {
  SimScratch &S = Ctx.simScratch();
  return run(BB, identityOrder(S.Identity, BB.size()), S);
}

uint64_t BlockSimulator::simulate(const BasicBlock &BB,
                                  const std::vector<int> &Order,
                                  SchedContext &Ctx) const {
  return run(BB, Order, Ctx.simScratch());
}

SCHEDFILTER_HOT_ALIGN
uint64_t BlockSimulator::run(const BasicBlock &BB,
                             const std::vector<int> &Order,
                             SimScratch &S) const {
  assert(Order.size() == BB.size() && "order must cover the block");

  // Scoreboard state.  One epoch per block invalidates every register's
  // ready cycle in O(1); the per-unit table is tiny and cleared directly.
  ++S.Epoch;
  S.UnitFree.assign(Model.getNumUnits(), 0);
  uint64_t LastStoreDone = 0;   // completion cycle of the latest store
  uint64_t SerializeUntil = 0;  // barrier: nothing may issue before this
  uint64_t MaxCompletion = 0;

  uint64_t Cycle = 0;
  unsigned IssuedNonBranch = 0;
  unsigned IssuedBranch = 0;

  size_t Pos = 0;
  while (Pos != Order.size()) {
    const Instruction &Inst = BB[static_cast<size_t>(Order[Pos])];
    const OpcodeInfo &Info = Inst.getInfo();
    unsigned Lat = Model.getLatency(Inst.getOpcode());
    bool IsBranchClass = Info.Unit == FuClass::Branch;

    // Earliest cycle the instruction could issue, independent of the
    // current cycle cursor: operands ready, memory ordered, barriers
    // drained, and a suitable functional unit free.
    uint64_t Earliest = SerializeUntil;
    for (Reg U : Inst.uses()) {
      if (static_cast<size_t>(U) < S.RegStamp.size() &&
          S.RegStamp[U] == S.Epoch)
        Earliest = std::max(Earliest, S.RegReady[U]);
    }
    if (Inst.readsMemory())
      Earliest = std::max(Earliest, LastStoreDone);

    const std::vector<unsigned> &Candidates = Model.unitsFor(Info.Unit);
    assert(!Candidates.empty() && "no functional unit for this class");
    unsigned BestUnit = Candidates.front();
    uint64_t BestFree = S.UnitFree[BestUnit];
    for (unsigned U : Candidates) {
      if (S.UnitFree[U] < BestFree) {
        BestFree = S.UnitFree[U];
        BestUnit = U;
      }
    }
    Earliest = std::max(Earliest, BestFree);

    // Advance the cycle cursor if this instruction must stall.  In-order
    // issue: later instructions cannot bypass it.
    if (Earliest > Cycle) {
      Cycle = Earliest;
      IssuedNonBranch = 0;
      IssuedBranch = 0;
    }

    // Enforce per-cycle issue limits.
    if (IsBranchClass ? IssuedBranch >= Model.getMaxIssueBranch()
                      : IssuedNonBranch >= Model.getMaxIssueNonBranch()) {
      ++Cycle;
      IssuedNonBranch = 0;
      IssuedBranch = 0;
      continue; // retry the same instruction in the new cycle
    }

    // Issue.
    uint64_t Done = Cycle + Lat;
    for (Reg D : Inst.defs()) {
      if (static_cast<size_t>(D) >= S.RegStamp.size()) {
        S.RegStamp.resize(static_cast<size_t>(D) + 1, 0);
        S.RegReady.resize(static_cast<size_t>(D) + 1, 0);
      }
      S.RegStamp[D] = S.Epoch;
      S.RegReady[D] = Done;
    }
    if (Inst.writesMemory())
      LastStoreDone = std::max(LastStoreDone, Done);
    S.UnitFree[BestUnit] =
        Model.isPipelined(Inst.getOpcode()) ? Cycle + 1 : Done;
    if (Inst.isBarrier())
      SerializeUntil = std::max(SerializeUntil, Done);
    MaxCompletion = std::max(MaxCompletion, Done);
    if (IsBranchClass)
      ++IssuedBranch;
    else
      ++IssuedNonBranch;
    ++Pos;
  }

  return MaxCompletion;
}
