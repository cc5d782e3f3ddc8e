//===- sched/DependenceGraph.h - Block dependence DAG -----------*- C++ -*-===//
///
/// \file
/// Builds the dependence DAG over one basic block.  Two instructions are
/// dependent (paper §1.1) if they access the same data and at least one
/// writes it, or if at least one is a branch; in addition, Java-specific
/// hazards constrain reordering: PEIs stay ordered with respect to each
/// other and to stores (exception state must be precise), and GC
/// safepoints, thread-switch points, yield points and calls are full
/// barriers ("possible but unusual branches, which disallow reordering").
///
/// Building the DAG is the expensive part of scheduling (the paper cites it
/// as sometimes dominating scheduling time), which is exactly why the
/// induced filter refuses to even build it for blocks predicted not to
/// benefit.  The builder counts abstract work units so effort can be
/// reported deterministically alongside wall-clock time.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_SCHED_DEPENDENCEGRAPH_H
#define SCHEDFILTER_SCHED_DEPENDENCEGRAPH_H

#include "mir/BasicBlock.h"
#include "target/MachineModel.h"

#include <vector>

namespace schedfilter {

/// Why an edge exists; used by tests and the dumper.
enum class DepKind : uint8_t {
  Data,    ///< True (read-after-write) register dependence.
  Anti,    ///< Write-after-read register dependence.
  Output,  ///< Write-after-write register dependence.
  Memory,  ///< Conservative memory ordering (store/load interplay).
  Control, ///< Order w.r.t. the block terminator.
  Hazard,  ///< PEI/store ordering or full-barrier ordering.
};

/// One dependence edge From -> To with a latency weight: To may not begin
/// until Latency cycles after From begins issuing (0 = same cycle is fine,
/// order only).
struct DepEdge {
  int To;
  unsigned Latency;
  DepKind Kind;
};

/// Register bookkeeping scratch used while building one DAG.  Owned by a
/// SchedContext: capacities persist across blocks, and entries are
/// invalidated in O(1) by bumping Epoch.  Indexed by virtual register
/// number; registers are small dense integers, so flat arrays serve.
struct DagBuildScratch {
  uint64_t Epoch = 0;
  /// LastDef[R] is valid iff DefStamp[R] == Epoch.
  std::vector<uint64_t> DefStamp;
  std::vector<int> LastDef;
  /// Readers[R] holds the readers of R since its last def; the list is
  /// logically empty (and physically cleared on first touch, keeping its
  /// capacity) when ReaderStamp[R] != Epoch.
  std::vector<uint64_t> ReaderStamp;
  std::vector<std::vector<int>> Readers;
  std::vector<int> LoadsSinceStore;
  std::vector<int> SinceBarrier;
};

/// Dependence DAG for one block.  Node i is instruction i of the block.
/// Default-construct once and build() repeatedly to reuse the adjacency
/// storage across blocks (zero steady-state allocations).
class DependenceGraph {
public:
  DependenceGraph() = default;

  /// (Re)builds the DAG for \p BB under \p Model, reusing this graph's
  /// adjacency storage and \p Scratch across calls.  The block is a
  /// basic block (the paper's local scheduler): every earlier instruction
  /// gets a control edge to a terminator.
  void build(const BasicBlock &BB, const MachineModel &Model,
             DagBuildScratch &Scratch);

  size_t numNodes() const { return NodeCount; }
  size_t numEdges() const { return EdgeCount; }

  const std::vector<DepEdge> &succs(int Node) const {
    return Succs[static_cast<size_t>(Node)];
  }

  /// Number of unscheduled predecessors; copied by the scheduler.
  const std::vector<int> &inDegrees() const { return InDegree; }

  /// Weighted critical-path height of node i: the longest latency-weighted
  /// dependent chain from i to the end of the block, including i's own
  /// latency.  This is the CPS tie-break key.
  long criticalPath(int Node) const {
    return Height[static_cast<size_t>(Node)];
  }

  /// True if there is an edge From -> To (any kind); O(out-degree).
  bool hasEdge(int From, int To) const;

  /// Abstract build cost: one unit per instruction scanned plus one per
  /// edge inserted.  Deterministic stand-in for DAG-build wall time.
  uint64_t workUnits() const { return Work; }

private:
  void addEdge(int From, int To, unsigned Latency, DepKind Kind);
  void computeHeights(const BasicBlock &BB, const MachineModel &Model);

  /// Outer vector never shrinks (inner edge lists keep their capacity
  /// across build() calls); NodeCount tracks the active prefix.
  std::vector<std::vector<DepEdge>> Succs;
  std::vector<int> InDegree;
  std::vector<long> Height;
  size_t NodeCount = 0;
  size_t EdgeCount = 0;
  uint64_t Work = 0;
};

} // namespace schedfilter

#endif // SCHEDFILTER_SCHED_DEPENDENCEGRAPH_H
