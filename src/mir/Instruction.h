//===- mir/Instruction.h - Machine instruction -----------------*- C++ -*-===//
///
/// \file
/// A single machine instruction: an opcode plus register defs/uses and
/// per-instance hazard attributes.  Registers are virtual and identified by
/// small integers; memory operands are abstract (the dependence graph is
/// conservative about aliasing, like the paper's local scheduler).
///
/// Operands are stored inline: an Instruction is a fixed-size, trivially
/// copyable 14-byte record holding at most MaxOperands registers (defs
/// first, then uses) and owns no heap memory, so a block's instructions
/// are one contiguous array that every per-block layer walks.  Building an
/// instruction with more operands aborts with the opcode's name in every
/// build type.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_MIR_INSTRUCTION_H
#define SCHEDFILTER_MIR_INSTRUCTION_H

#include "mir/Opcode.h"

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace schedfilter {

/// Virtual register number.
using Reg = uint16_t;

/// Read-only view of a contiguous run of registers (an instruction's defs
/// or uses).
class RegRange {
public:
  RegRange(const Reg *Begin, size_t Size) : Begin(Begin), Size(Size) {}

  const Reg *begin() const { return Begin; }
  const Reg *end() const { return Begin + Size; }
  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  Reg operator[](size_t I) const { return Begin[I]; }

private:
  const Reg *Begin;
  size_t Size;
};

/// One machine instruction.
class Instruction {
public:
  /// Register operands an instruction can hold (defs plus uses).
  static constexpr size_t MaxOperands = 4;

  Instruction(Opcode Op, std::initializer_list<Reg> Defs,
              std::initializer_list<Reg> Uses, uint16_t ExtraAttrs = 0)
      : Op(Op), Attrs(ExtraAttrs & AttrAllHazards) {
    setOperands(Defs.begin(), Defs.size(), Uses.begin(), Uses.size());
  }

  Instruction(Opcode Op, const std::vector<Reg> &Defs,
              const std::vector<Reg> &Uses, uint16_t ExtraAttrs = 0)
      : Op(Op), Attrs(ExtraAttrs & AttrAllHazards) {
    setOperands(Defs.data(), Defs.size(), Uses.data(), Uses.size());
  }

  Opcode getOpcode() const { return Op; }
  const OpcodeInfo &getInfo() const { return getOpcodeInfo(Op); }

  RegRange defs() const { return {Regs, NumDefs}; }
  RegRange uses() const { return {Regs + NumDefs, NumUses}; }

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
  /// Copies \p ND defs then \p NU uses into Regs; aborts if they do not
  /// fit.
  void setOperands(const Reg *D, size_t ND, const Reg *U, size_t NU) {
    if (ND + NU > MaxOperands)
      tooManyOperands(Op, ND + NU);
    NumDefs = static_cast<uint8_t>(ND);
    NumUses = static_cast<uint8_t>(NU);
    for (size_t I = 0; I != ND; ++I)
      Regs[I] = D[I];
    for (size_t I = 0; I != NU; ++I)
      Regs[ND + I] = U[I];
  }

  /// Prints the opcode and operand count to stderr and aborts.
  [[noreturn]] static void tooManyOperands(Opcode Op, size_t N);

  Opcode Op;
  uint8_t NumDefs = 0;
  uint8_t NumUses = 0;
  uint16_t Attrs;
  Reg Regs[MaxOperands] = {};
};

} // namespace schedfilter

#endif // SCHEDFILTER_MIR_INSTRUCTION_H
