//===- mir/Opcode.h - Machine opcodes and category metadata ----*- C++ -*-===//
///
/// \file
/// Opcodes for the machine-level IR that the scheduler and the learned
/// filter operate on.  The set is PowerPC/Jikes-RVM flavoured: plain ALU and
/// floating point arithmetic, loads/stores, branches, calls, returns,
/// "system" instructions, and the JVM-specific pseudo-instructions that the
/// paper's Table 1 calls *hazards*: potentially-excepting instructions
/// (PEIs), garbage-collection safepoints, thread-switch points, and yield
/// points.
///
/// Each opcode carries static metadata (OpcodeInfo): which of the paper's
/// 12 possibly-overlapping categories it belongs to, which functional-unit
/// class it executes on, and its default hazard attributes.  A concrete
/// Instruction may extend (never shrink) the hazard attributes, e.g. a load
/// whose null check was not proven redundant is a PEI.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_MIR_OPCODE_H
#define SCHEDFILTER_MIR_OPCODE_H

#include <cassert>
#include <cstddef>
#include <cstdint>

namespace schedfilter {

/// All opcodes understood by the target model, the scheduler, and the block
/// simulator.
enum class Opcode : uint8_t {
  // Simple integer ALU (either integer unit).
  Add,
  Sub,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  Cmp,
  AddImm,
  LoadConst,
  Move,
  // Complex integer (second, "dissimilar" integer unit only).
  Mul,
  Div,
  // Floating point.
  FAdd,
  FSub,
  FMul,
  FDiv,
  FMAdd,
  FCmp,
  FNeg,
  FSqrt,
  FMove,
  // Memory.
  LoadInt,
  LoadFloat,
  LoadRef,
  StoreInt,
  StoreFloat,
  StoreRef,
  // Control.
  Br,
  BrCond,
  Call,
  CallVirtual,
  Ret,
  // System unit (special-purpose registers, barriers, traps).
  SysRegRead,
  SysRegWrite,
  MemBar,
  Trap,
  // JVM runtime pseudo-instructions (the paper's hazards).
  NullCheck,
  BoundsCheck,
  GcSafepoint,
  YieldPoint,
  ThreadSwitchPoint,
  NumOpcodes
};

/// The paper's 12 possibly-overlapping block categories (Table 1), as a
/// bitmask.  Op-kind bits and FU-use bits come from the opcode; hazard bits
/// come from the opcode's defaults OR'd with per-instruction attributes.
enum CategoryBits : uint16_t {
  CatBranch = 1u << 0,
  CatCall = 1u << 1,
  CatLoad = 1u << 2,
  CatStore = 1u << 3,
  CatReturn = 1u << 4,
  CatIntegerFU = 1u << 5,
  CatFloatFU = 1u << 6,
  CatSystemFU = 1u << 7,
  CatPEI = 1u << 8,
  CatGCPoint = 1u << 9,
  CatThreadSwitch = 1u << 10,
  CatYieldPoint = 1u << 11,
};

/// Hazard attribute bits carried per-instruction (a subset of CategoryBits).
enum AttrBits : uint16_t {
  AttrPEI = CatPEI,
  AttrGCPoint = CatGCPoint,
  AttrThreadSwitch = CatThreadSwitch,
  AttrYieldPoint = CatYieldPoint,
  AttrAllHazards = AttrPEI | AttrGCPoint | AttrThreadSwitch | AttrYieldPoint,
};

/// Which class of functional unit executes an opcode.  The MPC7410-like
/// model has two dissimilar integer units: IntSimple ops run on either,
/// IntComplex ops (mul/div) only on the second.
enum class FuClass : uint8_t {
  IntSimple,
  IntComplex,
  Float,
  LoadStore,
  Branch,
  System,
  NumClasses
};

/// Static per-opcode metadata.
struct OpcodeInfo {
  const char *Name;
  /// Paper categories this opcode always belongs to (op kind + FU use +
  /// intrinsic hazards).
  uint16_t Categories;
  FuClass Unit;
  /// True for instructions that read memory.
  bool ReadsMemory;
  /// True for instructions that write memory.
  bool WritesMemory;
  /// Expected number of register results (0 or 1 in this IR).
  uint8_t NumDefs;
  /// True for control-flow terminators (branches and returns).
  bool IsTerminator;
};

/// The metadata table, indexed by Opcode (defined in Opcode.cpp).
extern const OpcodeInfo OpcodeInfos[];

/// Returns the metadata record for \p Op.  Inline: the DAG builder, the
/// simulator and the feature pass query it per instruction.
inline const OpcodeInfo &getOpcodeInfo(Opcode Op) {
  assert(Op < Opcode::NumOpcodes && "invalid opcode");
  return OpcodeInfos[static_cast<size_t>(Op)];
}

/// Returns the mnemonic for \p Op, e.g. "fadd".
const char *getOpcodeName(Opcode Op);

/// Total number of opcodes (for iteration in tests).
constexpr unsigned getNumOpcodes() {
  return static_cast<unsigned>(Opcode::NumOpcodes);
}

} // namespace schedfilter

#endif // SCHEDFILTER_MIR_OPCODE_H
