//===- mir/Instruction.h - Machine instruction -----------------*- C++ -*-===//
///
/// \file
/// A single machine instruction: an opcode plus register defs/uses and
/// per-instance hazard attributes.  Registers are virtual and identified by
/// small integers; memory operands are abstract (the dependence graph is
/// conservative about aliasing, like the paper's local scheduler).
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_MIR_INSTRUCTION_H
#define SCHEDFILTER_MIR_INSTRUCTION_H

#include "mir/Opcode.h"

#include <string>
#include <vector>

namespace schedfilter {

/// Virtual register number.
using Reg = uint16_t;

/// One machine instruction.
class Instruction {
public:
  Instruction(Opcode Op, std::vector<Reg> Defs, std::vector<Reg> Uses,
              uint16_t ExtraAttrs = 0)
      : Op(Op), Defs(std::move(Defs)), Uses(std::move(Uses)),
        Attrs(ExtraAttrs & AttrAllHazards) {}

  Opcode getOpcode() const { return Op; }
  const OpcodeInfo &getInfo() const { return getOpcodeInfo(Op); }

  const std::vector<Reg> &defs() const { return Defs; }
  const std::vector<Reg> &uses() const { return Uses; }

  /// All of the paper's category bits for this instruction: the opcode's
  /// intrinsic categories plus any per-instance hazard attributes.
  uint16_t categories() const { return getInfo().Categories | Attrs; }

  /// True if this instruction belongs to category \p Bit (a CategoryBits
  /// value), e.g. isInCategory(CatPEI).
  bool isInCategory(uint16_t Bit) const { return (categories() & Bit) != 0; }

  /// Adds hazard attributes (a mask of AttrBits).  Attributes can only be
  /// added, never removed: an instruction cannot become less hazardous.
  void addAttrs(uint16_t Mask) { Attrs |= (Mask & AttrAllHazards); }

  bool readsMemory() const { return getInfo().ReadsMemory; }
  bool writesMemory() const { return getInfo().WritesMemory; }
  bool isTerminator() const { return getInfo().IsTerminator; }
  bool isCall() const { return isInCategory(CatCall); }

  /// True for hazards that act as full scheduling barriers.  The paper
  /// treats GC safepoints, thread-switch points and yield points as
  /// "possible but unusual branches, which disallow reordering"; PEIs are
  /// weaker (they must stay ordered w.r.t. each other and stores, see
  /// DependenceGraph).
  bool isBarrier() const {
    return (categories() &
            (CatGCPoint | CatThreadSwitch | CatYieldPoint)) != 0 ||
           isCall();
  }

  /// Renders e.g. "fadd f3 = f1, f2 [pei]".
  std::string toString() const;

private:
  Opcode Op;
  std::vector<Reg> Defs;
  std::vector<Reg> Uses;
  uint16_t Attrs;
};

} // namespace schedfilter

#endif // SCHEDFILTER_MIR_INSTRUCTION_H
