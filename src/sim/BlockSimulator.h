//===- sim/BlockSimulator.h - Simplified block timing model -----*- C++ -*-===//
///
/// \file
/// The simplified machine simulator the paper uses to label training
/// instances (§2.2): it estimates the cost in cycles of one basic block
/// under a given instruction order.  As in the paper, the simulator makes
/// simplifying assumptions — it models in-order issue with the 7410's issue
/// rules (one branch plus two non-branch per cycle), per-class functional
/// units with result latencies, and scoreboarded operand readiness; it does
/// not model caches, branch prediction, or machine state carried across
/// blocks.  "The exact cycle estimate is not crucial; rather, the estimate
/// needs only to give a good sense of the difference in timing between two
/// versions of the same block."
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_SIM_BLOCKSIMULATOR_H
#define SCHEDFILTER_SIM_BLOCKSIMULATOR_H

#include "mir/BasicBlock.h"
#include "target/MachineModel.h"

#include <cstdint>
#include <vector>

namespace schedfilter {

class SchedContext;

/// Scoreboard scratch for simulating one block: per-register result-ready
/// cycles (epoch-stamped flat array -- absent entries are invalidated in
/// O(1) per block) and per-unit busy cycles.  Owned by a SchedContext.
struct SimScratch {
  uint64_t Epoch = 0;
  /// RegReady[R] is valid iff RegStamp[R] == Epoch; an invalid entry means
  /// "ready at cycle 0" (value never written in this block).
  std::vector<uint64_t> RegStamp;
  std::vector<uint64_t> RegReady;
  std::vector<uint64_t> UnitFree;
  /// Reused identity permutation for the order-less simulate().
  std::vector<int> Identity;
};

/// Estimates block cost in cycles under a machine model.
class BlockSimulator {
public:
  explicit BlockSimulator(const MachineModel &Model) : Model(Model) {}

  /// Cycles to execute \p BB in its current instruction order, with the
  /// scoreboard in \p Ctx scratch.  Returns 0 for an empty block.
  uint64_t simulate(const BasicBlock &BB, SchedContext &Ctx) const;

  /// Cycles to execute \p BB with its instructions permuted by \p Order
  /// (Order[i] = original index of the i-th instruction executed).
  uint64_t simulate(const BasicBlock &BB, const std::vector<int> &Order,
                    SchedContext &Ctx) const;

private:
  uint64_t run(const BasicBlock &BB, const std::vector<int> &Order,
               SimScratch &S) const;

  const MachineModel &Model;
};

} // namespace schedfilter

#endif // SCHEDFILTER_SIM_BLOCKSIMULATOR_H
