//===- workloads/PtrChaseFamily.cpp - Irregular pointer-chasing family -----===//
//
// The "ptrchase" workload family: list walks, tree descents and hash
// probes whose blocks are single serial dependence chains -- each load's
// address is the previous load's result, so there is nothing for a list
// scheduler to overlap no matter how long the block gets.  Long blocks
// are exactly where block length alone would say "schedule"; this family
// exists to punish that heuristic and reward the dependence-height
// features, the population-level opposite of fpkernel.
//
// Chains are hand-emitted (not ProgramGenerator statements): the
// serial-by-construction shape is the family's whole point, so the
// emission controls every def-use edge directly.
//
//===----------------------------------------------------------------------===//

#include "workloads/WorkloadFamily.h"

#include <algorithm>
#include <cmath>

using namespace schedfilter;

namespace {

/// Bump on any change to this family's suite parameters or the chain
/// emission below; invalidates ptrchase corpus-cache entries only.
constexpr uint32_t PtrChaseVersion = 1;

/// Same register windows as the ProgramGenerator: integer live-ins in
/// [0, 24), block-local temporaries upward from 64.
constexpr Reg FirstIntLiveIn = 0;
constexpr Reg NumIntLiveIns = 24;
constexpr Reg FirstTemp = 64;

BenchmarkSpec chaseSpec(const char *Name, const char *Desc, uint64_t Seed) {
  BenchmarkSpec S;
  S.Name = Name;
  S.Description = Desc;
  S.Family = "ptrchase";
  S.Seed = Seed;
  // Reused by the chain emitter: StatementGeoP/MaxStatements shape the
  // chain-length distribution, PeiProb the null-check density, YieldProb
  // the back-edge yield points.  The expression-mix weights are unused.
  S.MinBlocksPerMethod = 2;
  S.MaxBlocksPerMethod = 10;
  S.StatementGeoP = 0.35;
  S.MaxStatements = 14;
  S.TrivialBlockProb = 0.25;
  S.PeiProb = 0.50;
  S.YieldProb = 0.25;
  S.HotnessSkew = 7.0;
  return S;
}

/// Emits one block holding a single serial pointer chain of \p ChainLen
/// loads.  Every load uses the previous link's value as its address, so
/// the block's critical path equals its instruction count.  The chain is
/// built in \p Insts, scratch reused across blocks, and the block gets
/// one exact-size copy of it.
BasicBlock chaseBlock(const BenchmarkSpec &Spec, Rng &R, int ChainLen,
                      std::vector<Instruction> &Insts) {
  Insts.clear();
  if (R.chance(Spec.YieldProb))
    Insts.push_back(Instruction(Opcode::YieldPoint, {}, {}));

  Reg Addr = FirstIntLiveIn + static_cast<Reg>(R.below(NumIntLiveIns));
  Reg NextTemp = FirstTemp;
  for (int I = 0; I != ChainLen; ++I) {
    uint16_t Attrs = 0;
    if (R.chance(Spec.PeiProb)) {
      if (R.chance(0.5))
        Insts.push_back(Instruction(Opcode::NullCheck, {}, {Addr}));
      else
        Attrs = AttrPEI; // un-proven null check folded into the load
    }
    Reg Link = NextTemp++;
    Insts.push_back(Instruction(Opcode::LoadRef, {Link}, {Addr}, Attrs));
    if (R.chance(0.35)) {
      // Field offset / bucket step: still on the chain.
      Reg Stepped = NextTemp++;
      Insts.push_back(Instruction(Opcode::AddImm, {Stepped}, {Link}));
      Addr = Stepped;
    } else {
      Addr = Link;
    }
  }

  // Terminator tests the chain's tail (found the key / hit the null),
  // keeping even the comparison serial.
  double U = R.uniform();
  if (U < 0.80) {
    Reg Cond = NextTemp++;
    Insts.push_back(Instruction(
        Opcode::Cmp, {Cond},
        {Addr, static_cast<Reg>(FirstIntLiveIn + R.below(NumIntLiveIns))}));
    Insts.push_back(Instruction(Opcode::BrCond, {}, {Cond}));
  } else {
    Insts.push_back(Instruction(Opcode::Ret, {}, {}));
  }
  return BasicBlock("bb", 1, Insts);
}

class PtrChaseFamily : public WorkloadFamily {
public:
  const char *name() const override { return "ptrchase"; }
  const char *description() const override {
    return "irregular pointer chasing: serial load chains scheduling "
           "cannot improve";
  }
  uint32_t version() const override { return PtrChaseVersion; }

  std::vector<BenchmarkSpec> makeBenchmarkSuite() const override {
    std::vector<BenchmarkSpec> Suite;

    // listwalk: long uniform chains, the purest serial case.
    {
      BenchmarkSpec S = chaseSpec(
          "listwalk", "Linked-list traversals with long uniform chains",
          0x9C0701);
      S.StatementGeoP = 0.28;
      Suite.push_back(S);
    }

    // treewalk: shorter chains (log-depth descents), more branches.
    {
      BenchmarkSpec S = chaseSpec(
          "treewalk", "Binary-tree descents: short chains, branch-dense",
          0x9C0702);
      S.StatementGeoP = 0.50;
      S.MaxBlocksPerMethod = 14;
      Suite.push_back(S);
    }

    // hashprobe: mid-length chains with heavy null/bounds checking.
    {
      BenchmarkSpec S = chaseSpec(
          "hashprobe", "Hash-table probe sequences with collision chains",
          0x9C0703);
      S.StatementGeoP = 0.42;
      S.PeiProb = 0.65;
      Suite.push_back(S);
    }

    return Suite;
  }

  Program load(const BenchmarkSpec &Spec) const override {
    Rng Master(Spec.Seed);
    Program P(Spec.Name);
    std::vector<Instruction> Insts;

    for (int M = 0; M != Spec.NumMethods; ++M) {
      Rng MethodRng = Master.split();
      Method Meth(Spec.Name + "::walk" + std::to_string(M));
      int NumBlocks = MethodRng.range(Spec.MinBlocksPerMethod,
                                      Spec.MaxBlocksPerMethod);
      Meth.blocks().reserve(static_cast<size_t>(NumBlocks));

      for (int B = 0; B != NumBlocks; ++B) {
        int ChainLen =
            MethodRng.chance(Spec.TrivialBlockProb)
                ? 1
                : std::min(Spec.MaxStatements,
                           MethodRng.geometric(Spec.StatementGeoP));
        BasicBlock BB = chaseBlock(Spec, MethodRng, ChainLen, Insts);

        // Hotness mirrors the generator's skew, with the *long* chains
        // hottest -- the inner walk loops -- so a length-only filter
        // pays maximal scheduling cost here for zero improvement.
        double U = MethodRng.uniform();
        uint64_t Exec =
            1 + static_cast<uint64_t>(std::pow(U, Spec.HotnessSkew) *
                                      static_cast<double>(Spec.MaxExec));
        if (ChainLen >= 8)
          Exec *= 32;
        else if (ChainLen >= 4)
          Exec *= 6;
        BB.setExecCount(Exec);
        Meth.addBlock(std::move(BB));
      }
      P.addMethod(std::move(Meth));
    }
    return P;
  }
};

} // namespace

std::unique_ptr<WorkloadFamily> schedfilter::makePtrChaseFamily() {
  return std::make_unique<PtrChaseFamily>();
}
