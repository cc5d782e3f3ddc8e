//===- workloads/ProgramGenerator.cpp - Spec -> Program --------------------===//

#include "workloads/ProgramGenerator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace schedfilter;

namespace {

/// Live-in register windows.  Block-local temporaries allocate upward
/// from FirstTemp.
constexpr Reg FirstIntLiveIn = 0;
constexpr Reg NumIntLiveIns = 24;
constexpr Reg FirstFloatLiveIn = 32;
constexpr Reg NumFloatLiveIns = 16;
constexpr Reg FirstTemp = 64;

/// Per-block emission state over the generator's scratch: the emitted
/// instructions, available values per register class, the statement-kind
/// weights and a fresh-temporary counter.
struct BlockBuilder {
  const BenchmarkSpec &Spec;
  Rng &R;
  std::vector<Instruction> &Insts;
  std::vector<Reg> &IntVals;
  std::vector<Reg> &FloatVals;
  std::vector<double> &Weights;
  Reg NextTemp = FirstTemp;
  /// Root value of the most recent statement; the block's conditional
  /// branch tests it, as in "compute x; if (x < y) ..." source code.  This
  /// keeps the branch condition on the dependence chain instead of being
  /// freely hoistable.
  Reg LastIntVal = FirstIntLiveIn;
  Reg LastFloatVal = FirstFloatLiveIn;
  bool LastWasFloat = false;

  BlockBuilder(const BenchmarkSpec &Spec, Rng &R,
               std::vector<Instruction> &Insts, std::vector<Reg> &IntVals,
               std::vector<Reg> &FloatVals, std::vector<double> &Weights)
      : Spec(Spec), R(R), Insts(Insts), IntVals(IntVals),
        FloatVals(FloatVals), Weights(Weights) {
    Weights.assign({Spec.WIntExpr, Spec.WFloatExpr, Spec.WMemOp, Spec.WCall,
                    Spec.WSystem});
    Insts.clear();
    IntVals.clear();
    FloatVals.clear();
    for (Reg I = 0; I != NumIntLiveIns; ++I)
      IntVals.push_back(FirstIntLiveIn + I);
    for (Reg I = 0; I != NumFloatLiveIns; ++I)
      FloatVals.push_back(FirstFloatLiveIn + I);
  }

  Reg freshTemp() { return NextTemp++; }

  Reg pickInt() {
    return IntVals[R.below(static_cast<uint32_t>(IntVals.size()))];
  }
  Reg pickFloat() {
    return FloatVals[R.below(static_cast<uint32_t>(FloatVals.size()))];
  }

  void noteInt(Reg Rg) { IntVals.push_back(Rg); }
  void noteFloat(Reg Rg) { FloatVals.push_back(Rg); }

  /// Emits an integer leaf; returns the register holding its value.
  Reg emitIntLeaf() {
    if (R.chance(Spec.LeafLoadProb)) {
      Reg Addr = pickInt();
      Reg Dst = freshTemp();
      bool IsRef = R.chance(0.4);
      uint16_t Attrs = 0;
      if (IsRef && R.chance(Spec.PeiProb)) {
        if (R.chance(0.5))
          Insts.push_back(Instruction(Opcode::NullCheck, {}, {Addr}));
        else
          Attrs = AttrPEI; // un-proven null check folded into the load
      }
      Insts.push_back(Instruction(IsRef ? Opcode::LoadRef : Opcode::LoadInt,
                                  {Dst}, {Addr}, Attrs));
      noteInt(Dst);
      return Dst;
    }
    if (R.chance(0.25)) {
      Reg Dst = freshTemp();
      Insts.push_back(Instruction(Opcode::LoadConst, {Dst}, {}));
      noteInt(Dst);
      return Dst;
    }
    return pickInt(); // reuse an existing value: no instruction
  }

  /// Emits a floating-point leaf.
  Reg emitFloatLeaf() {
    if (R.chance(Spec.LeafLoadProb)) {
      Reg Addr = pickInt();
      Reg Dst = freshTemp();
      uint16_t Attrs = R.chance(Spec.PeiProb * 0.5) ? AttrPEI : 0;
      Insts.push_back(Instruction(Opcode::LoadFloat, {Dst}, {Addr}, Attrs));
      noteFloat(Dst);
      return Dst;
    }
    return pickFloat();
  }

  /// Emits an expression tree with approximately \p Ops internal
  /// operations, depth first (the JIT's naive order), and returns the
  /// register holding the root value.
  Reg emitIntExpr(int Ops) {
    if (Ops <= 0)
      return emitIntLeaf();
    int LeftOps = Ops > 1 ? R.range(0, Ops - 1) : 0;
    Reg A = emitIntExpr(LeftOps);
    Reg B = emitIntExpr(Ops - 1 - LeftOps);
    static const Opcode Binops[] = {Opcode::Add, Opcode::Sub, Opcode::And,
                                    Opcode::Or,  Opcode::Xor, Opcode::Shl,
                                    Opcode::Shr, Opcode::Add, Opcode::Add};
    Opcode Op = R.chance(0.06)
                    ? Opcode::Mul
                    : Binops[R.below(sizeof(Binops) / sizeof(Binops[0]))];
    if (Op == Opcode::Mul && R.chance(0.12))
      Op = Opcode::Div;
    Reg Dst = freshTemp();
    Insts.push_back(Instruction(Op, {Dst}, {A, B}));
    noteInt(Dst);
    return Dst;
  }

  Reg emitFloatExpr(int Ops) {
    if (Ops <= 0)
      return emitFloatLeaf();
    int LeftOps = Ops > 1 ? R.range(0, Ops - 1) : 0;
    Reg A = emitFloatExpr(LeftOps);
    Reg B = emitFloatExpr(Ops - 1 - LeftOps);
    Reg Dst = freshTemp();
    if (R.chance(Spec.FloatDivProb)) {
      Insts.push_back(Instruction(
          R.chance(0.3) ? Opcode::FSqrt : Opcode::FDiv, {Dst}, {A, B}));
    } else if (R.chance(0.25)) {
      Reg C = emitFloatLeaf();
      Insts.push_back(Instruction(Opcode::FMAdd, {Dst}, {A, B, C}));
    } else {
      static const Opcode FOps[] = {Opcode::FAdd, Opcode::FSub, Opcode::FMul,
                                    Opcode::FMul};
      Insts.push_back(
          Instruction(FOps[R.below(sizeof(FOps) / sizeof(FOps[0]))], {Dst},
                      {A, B}));
    }
    noteFloat(Dst);
    return Dst;
  }

  /// Samples the per-statement operation budget.
  int sampleExprOps() {
    double P = 1.0 / std::max(1.2, Spec.MeanExprOps);
    return std::min(Spec.MaxExprOps, R.geometric(P));
  }

  void emitIntStatement() {
    Reg V = emitIntExpr(sampleExprOps());
    LastIntVal = V;
    LastWasFloat = false;
    if (R.chance(0.45)) {
      Reg Addr = pickInt();
      bool IsRef = R.chance(0.25);
      uint16_t Attrs = R.chance(Spec.PeiProb * 0.3) ? AttrPEI : 0;
      Insts.push_back(Instruction(IsRef ? Opcode::StoreRef : Opcode::StoreInt,
                                  {}, {V, Addr}, Attrs));
    }
  }

  void emitFloatStatement() {
    Reg V = emitFloatExpr(sampleExprOps());
    LastFloatVal = V;
    LastWasFloat = true;
    // FP kernels keep intermediates in registers and store less often than
    // pointer code; fewer stores also means fewer cross-statement memory
    // serializations, which is what makes these blocks schedulable.
    if (R.chance(0.28)) {
      Reg Addr = pickInt();
      Insts.push_back(Instruction(Opcode::StoreFloat, {}, {V, Addr}));
    }
  }

  /// Load/modify/store: the pointer-update shape of db-like code.
  void emitMemStatement() {
    Reg Addr = pickInt();
    Reg T = freshTemp();
    uint16_t Attrs = R.chance(Spec.PeiProb) ? AttrPEI : 0;
    bool IsRef = R.chance(0.5);
    Insts.push_back(Instruction(IsRef ? Opcode::LoadRef : Opcode::LoadInt,
                                {T}, {Addr}, Attrs));
    noteInt(T);
    Reg U = T;
    if (R.chance(0.7)) {
      U = freshTemp();
      Insts.push_back(Instruction(Opcode::AddImm, {U}, {T}));
      noteInt(U);
    }
    Insts.push_back(Instruction(IsRef ? Opcode::StoreRef : Opcode::StoreInt,
                                {}, {U, pickInt()}));
    LastIntVal = U;
    LastWasFloat = false;
  }

  void emitCallStatement() {
    // Argument setup, then the (barrier) call.
    int NumArgs = R.range(0, 2);
    for (int A = 0; A != NumArgs; ++A)
      (void)emitIntExpr(R.range(0, 1));
    Reg Ret = freshTemp();
    bool Virtual = R.chance(0.5);
    Insts.push_back(Instruction(
        Virtual ? Opcode::CallVirtual : Opcode::Call, {Ret}, {pickInt()}));
    noteInt(Ret);
    LastIntVal = Ret;
    LastWasFloat = false;
  }

  void emitSystemStatement() {
    double U = R.uniform();
    if (U < 0.4) {
      Reg Dst = freshTemp();
      Insts.push_back(Instruction(Opcode::SysRegRead, {Dst}, {}));
      noteInt(Dst);
    } else if (U < 0.8) {
      Insts.push_back(Instruction(Opcode::SysRegWrite, {}, {pickInt()}));
    } else {
      Insts.push_back(Instruction(Opcode::MemBar, {}, {}));
    }
  }

  void emitStatement() {
    switch (R.pickWeighted(Weights)) {
    case 0:
      emitIntStatement();
      break;
    case 1:
      emitFloatStatement();
      break;
    case 2:
      emitMemStatement();
      break;
    case 3:
      emitCallStatement();
      break;
    default:
      emitSystemStatement();
      break;
    }
  }
};

} // namespace

BasicBlock ProgramGenerator::generateBlock(Rng &R, int NumStatements,
                                           bool EndWithTerminator) {
  BlockBuilder Builder(Spec, R, Insts, IntVals, FloatVals, Weights);

  if (R.chance(Spec.YieldProb))
    Insts.push_back(Instruction(Opcode::YieldPoint, {}, {}));

  // Trivial blocks carry at most one leftover move before the terminator.
  if (NumStatements == 0 && R.chance(0.5)) {
    Reg Dst = Builder.freshTemp();
    Insts.push_back(Instruction(Opcode::Move, {Dst}, {Builder.pickInt()}));
    Builder.noteInt(Dst);
    Builder.LastIntVal = Dst;
  }

  for (int S = 0; S != NumStatements; ++S) {
    Builder.emitStatement();
    if (R.chance(Spec.SafepointProb)) {
      if (R.chance(0.3))
        Insts.push_back(Instruction(Opcode::ThreadSwitchPoint, {}, {}));
      else
        Insts.push_back(Instruction(Opcode::GcSafepoint, {}, {}));
    }
  }

  if (EndWithTerminator) {
    double U = R.uniform();
    if (U < 0.62) {
      // Conditional branch testing the block's most recent result: the
      // comparison is chained onto the computation, not freely hoistable.
      Reg Cond = Builder.freshTemp();
      if (Builder.LastWasFloat)
        Insts.push_back(Instruction(
            Opcode::FCmp, {Cond}, {Builder.LastFloatVal, Builder.pickFloat()}));
      else
        Insts.push_back(Instruction(Opcode::Cmp, {Cond},
                                    {Builder.LastIntVal, Builder.pickInt()}));
      Insts.push_back(Instruction(Opcode::BrCond, {}, {Cond}));
    } else if (U < 0.82) {
      Insts.push_back(Instruction(Opcode::Br, {}, {}));
    } else {
      Insts.push_back(Instruction(Opcode::Ret, {}, {}));
    }
  }
  return BasicBlock("bb", 1, Insts);
}

Program ProgramGenerator::generate() {
  Rng Master(Spec.Seed);
  Program P(Spec.Name);

  for (int M = 0; M != Spec.NumMethods; ++M) {
    Rng MethodRng = Master.split();
    Method Meth(Spec.Name + "::m" + std::to_string(M));
    int NumBlocks =
        MethodRng.range(Spec.MinBlocksPerMethod, Spec.MaxBlocksPerMethod);
    Meth.blocks().reserve(static_cast<size_t>(NumBlocks));

    for (int B = 0; B != NumBlocks; ++B) {
      int NumStatements =
          MethodRng.chance(Spec.TrivialBlockProb)
              ? 0
              : std::min(Spec.MaxStatements,
                         MethodRng.geometric(Spec.StatementGeoP));
      BasicBlock BB =
          generateBlock(MethodRng, NumStatements, /*EndWithTerminator=*/true);

      // Hotness: a few blocks soak up most of the execution counts, and
      // hot blocks skew toward the statement-rich ones -- hot inner loops
      // are the unrolled/inlined compute kernels, which is also why the
      // paper finds scheduling worth preserving on a minority of blocks.
      double U = MethodRng.uniform();
      uint64_t Exec =
          1 + static_cast<uint64_t>(std::pow(U, Spec.HotnessSkew) *
                                    static_cast<double>(Spec.MaxExec));
      if (NumStatements >= 5)
        Exec *= 32;
      else if (NumStatements >= 3)
        Exec *= 6;
      else if (NumStatements == 2)
        Exec *= 2;
      BB.setExecCount(Exec);
      Meth.addBlock(std::move(BB));
    }
    P.addMethod(std::move(Meth));
  }
  return P;
}

std::vector<Program>
schedfilter::generateSuite(const std::vector<BenchmarkSpec> &Suite) {
  std::vector<Program> Programs;
  Programs.reserve(Suite.size());
  for (const BenchmarkSpec &S : Suite)
    Programs.push_back(ProgramGenerator(S).generate());
  return Programs;
}
