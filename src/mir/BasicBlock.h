//===- mir/BasicBlock.h - Straight-line code block --------------*- C++ -*-===//
///
/// \file
/// A basic block: a single-entry single-exit sequence of instructions, the
/// unit over which the paper's filter makes its schedule / don't-schedule
/// decision.  Each block carries an execution count (profile weight) used
/// by the paper's SIM(P) weighted-simulated-time metric (§4.2).
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_MIR_BASICBLOCK_H
#define SCHEDFILTER_MIR_BASICBLOCK_H

#include "mir/Instruction.h"

#include <cstdint>
#include <string>
#include <vector>

namespace schedfilter {

/// A straight-line sequence of instructions with one entry and one exit.
class BasicBlock {
public:
  explicit BasicBlock(std::string Name = "bb", uint64_t ExecCount = 1)
      : Name(std::move(Name)), ExecCount(ExecCount) {}

  /// A block holding a copy of \p Insts in storage of exactly their size.
  BasicBlock(std::string Name, uint64_t ExecCount,
             const std::vector<Instruction> &Insts)
      : Name(std::move(Name)), ExecCount(ExecCount), Insts(Insts) {}

  const std::string &getName() const { return Name; }

  /// Number of times profiling says this block executes; weight in SIM(P).
  uint64_t getExecCount() const { return ExecCount; }
  void setExecCount(uint64_t N) { ExecCount = N; }

  /// Appends an instruction.  Callers must append any terminator last; the
  /// verifier checks this.
  void append(Instruction I) { Insts.push_back(std::move(I)); }

  size_t size() const { return Insts.size(); }
  bool empty() const { return Insts.empty(); }

  const Instruction &operator[](size_t I) const { return Insts[I]; }
  Instruction &operator[](size_t I) { return Insts[I]; }

  std::vector<Instruction>::const_iterator begin() const {
    return Insts.begin();
  }
  std::vector<Instruction>::const_iterator end() const { return Insts.end(); }

  const std::vector<Instruction> &instructions() const { return Insts; }

  /// Returns a copy of this block with its instructions permuted by
  /// \p Order, where Order[i] is the index (into this block) of the i-th
  /// instruction of the new block.  Order must be a permutation of
  /// [0, size()).
  BasicBlock reordered(const std::vector<int> &Order) const;

  /// Multi-line textual dump (one instruction per line).
  std::string toString() const;

private:
  std::string Name;
  uint64_t ExecCount;
  std::vector<Instruction> Insts;
};

} // namespace schedfilter

#endif // SCHEDFILTER_MIR_BASICBLOCK_H
