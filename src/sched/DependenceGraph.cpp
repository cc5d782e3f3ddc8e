//===- sched/DependenceGraph.cpp - Block dependence DAG --------------------===//

#include "sched/DependenceGraph.h"
#include "support/HotAlign.h"

#include <algorithm>
#include <cassert>

using namespace schedfilter;

namespace {

/// Grows the per-register arrays of \p S to cover register \p R.  Fresh
/// entries carry stamp 0, which never equals a live epoch.
void growTo(DagBuildScratch &S, Reg R) {
  if (static_cast<size_t>(R) < S.DefStamp.size())
    return;
  size_t N = static_cast<size_t>(R) + 1;
  S.DefStamp.resize(N, 0);
  S.LastDef.resize(N, -1);
  S.ReaderStamp.resize(N, 0);
  S.Readers.resize(N);
}

/// Pointer to the last def of \p R this epoch, or nullptr.
const int *lastDef(const DagBuildScratch &S, Reg R) {
  if (static_cast<size_t>(R) >= S.DefStamp.size() ||
      S.DefStamp[R] != S.Epoch)
    return nullptr;
  return &S.LastDef[R];
}

/// The readers-since-def list of \p R, cleared lazily on first touch this
/// epoch (capacity is retained).
std::vector<int> &readersOf(DagBuildScratch &S, Reg R) {
  growTo(S, R);
  if (S.ReaderStamp[R] != S.Epoch) {
    S.ReaderStamp[R] = S.Epoch;
    S.Readers[R].clear();
  }
  return S.Readers[R];
}

} // namespace

void DependenceGraph::addEdge(int From, int To, unsigned Latency,
                              DepKind Kind) {
  assert(From < To && "dependence edges must point forward in program order");
  auto &List = Succs[static_cast<size_t>(From)];
  // Deduplicate, keeping the strongest (largest latency) constraint.  The
  // builder adds every edge into instruction To while visiting To, and
  // visits instructions in order, so a duplicate From -> To can only be
  // the last edge out of From: one compare replaces a scan.
  if (!List.empty() && List.back().To == To) {
    DepEdge &E = List.back();
    if (Latency > E.Latency) {
      E.Latency = Latency;
      E.Kind = Kind;
    }
    return;
  }
  List.push_back({To, Latency, Kind});
  ++InDegree[static_cast<size_t>(To)];
  ++EdgeCount;
  // An edge insert costs several elementary operations: the dedupe check,
  // the push, and the bookkeeping that led here (def/use lookups in the
  // builder).  Weight it so work units track wall time.
  Work += 4;
}

SCHEDFILTER_HOT_ALIGN
void DependenceGraph::build(const BasicBlock &BB, const MachineModel &Model,
                            DagBuildScratch &S) {
  size_t N = BB.size();
  // Reset reusing capacity: the outer Succs vector only grows, so the
  // inner edge lists (and their heap blocks) survive across blocks.
  if (Succs.size() < N)
    Succs.resize(N);
  for (size_t I = 0; I != N; ++I)
    Succs[I].clear();
  NodeCount = N;
  InDegree.assign(N, 0);
  Height.assign(N, 0);
  EdgeCount = 0;
  Work = 0;

  // One epoch per build invalidates all per-register state in O(1).
  ++S.Epoch;
  S.LoadsSinceStore.clear();
  S.SinceBarrier.clear();

  // Memory ordering state.
  int LastStore = -1;
  // Hazard ordering state.
  int LastPEI = -1;
  int LastBarrier = -1;

  for (int I = 0, E = static_cast<int>(N); I != E; ++I) {
    const Instruction &Inst = BB[static_cast<size_t>(I)];
    Work += 3; // per-instruction def/use bookkeeping

    // Register dependences.
    for (Reg U : Inst.uses()) {
      if (const int *Def = lastDef(S, U))
        addEdge(*Def, I,
                Model.getLatency(BB[static_cast<size_t>(*Def)].getOpcode()),
                DepKind::Data);
      readersOf(S, U).push_back(I);
    }
    for (Reg D : Inst.defs()) {
      if (const int *Def = lastDef(S, D))
        addEdge(*Def, I, 1, DepKind::Output);
      growTo(S, D);
      if (S.ReaderStamp[D] == S.Epoch) {
        for (int Reader : S.Readers[D])
          if (Reader != I)
            addEdge(Reader, I, 0, DepKind::Anti);
        S.Readers[D].clear();
      }
      S.DefStamp[D] = S.Epoch;
      S.LastDef[D] = I;
    }

    // Memory ordering: conservative aliasing.  Loads may reorder freely
    // among themselves; stores order against everything memory-related.
    if (Inst.readsMemory() && LastStore >= 0)
      addEdge(LastStore, I, 1, DepKind::Memory);
    if (Inst.writesMemory()) {
      if (LastStore >= 0)
        addEdge(LastStore, I, 1, DepKind::Memory);
      for (int L : S.LoadsSinceStore)
        if (L != I)
          addEdge(L, I, 0, DepKind::Memory);
      S.LoadsSinceStore.clear();
      LastStore = I;
    } else if (Inst.readsMemory()) {
      S.LoadsSinceStore.push_back(I);
    }

    // Hazards.  PEIs must stay ordered among themselves (exceptions are
    // precise and ordered) and with respect to stores in both directions
    // (memory must reflect exactly the pre-exception program prefix).
    bool IsPEI = Inst.isInCategory(CatPEI);
    if (IsPEI) {
      if (LastPEI >= 0)
        addEdge(LastPEI, I, 0, DepKind::Hazard);
      if (LastStore >= 0 && LastStore != I)
        addEdge(LastStore, I, 0, DepKind::Hazard);
      LastPEI = I;
    }
    if (Inst.writesMemory() && LastPEI >= 0 && LastPEI != I)
      addEdge(LastPEI, I, 0, DepKind::Hazard);

    // Full barriers: calls, GC safepoints, thread switches, yield points.
    // Nothing moves across them in either direction.
    if (LastBarrier >= 0)
      addEdge(LastBarrier, I, 0, DepKind::Hazard);
    if (Inst.isBarrier()) {
      for (int P : S.SinceBarrier)
        addEdge(P, I, 0, DepKind::Hazard);
      S.SinceBarrier.clear();
      LastBarrier = I;
    } else {
      S.SinceBarrier.push_back(I);
    }

    // Terminator: every earlier instruction must stay before it (no
    // downward motion across a branch).
    if (Inst.isTerminator())
      for (int P = 0; P != I; ++P)
        addEdge(P, I, 0, DepKind::Control);
  }

  computeHeights(BB, Model);
}

void DependenceGraph::computeHeights(const BasicBlock &BB,
                                     const MachineModel &Model) {
  // Nodes are numbered in program order and edges point forward, so a
  // reverse scan is a valid reverse-topological traversal.
  for (int I = static_cast<int>(numNodes()) - 1; I >= 0; --I) {
    long H = Model.getLatency(BB[static_cast<size_t>(I)].getOpcode());
    for (const DepEdge &E : Succs[static_cast<size_t>(I)]) {
      long Via = static_cast<long>(E.Latency) + Height[static_cast<size_t>(E.To)];
      H = std::max(H, Via);
      ++Work;
    }
    Height[static_cast<size_t>(I)] = H;
  }
}

bool DependenceGraph::hasEdge(int From, int To) const {
  for (const DepEdge &E : Succs[static_cast<size_t>(From)])
    if (E.To == To)
      return true;
  return false;
}
