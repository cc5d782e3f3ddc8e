//===- workloads/FpKernelFamily.cpp - FP loop-nest/superblock family -------===//
//
// The "fpkernel" workload family: unrolled floating-point loop nests in
// the shape SNIPPETS.md Snippets 1-2 (the VLIW LoopCompiler) compile --
// a cold prologue, one or more long superblocks holding the unrolled
// loop body, and a cold epilogue.  Unrolling concatenates U copies of an
// independent body, so the kernel blocks carry exactly the cross-
// statement ILP a list scheduler converts into overlapped FP latencies:
// this family is the filter's "schedule" pole, the opposite extreme from
// ptrchase, and the transfer target EXPERIMENTS.md's per-family section
// measures the SPECjvm98-trained filter against.
//
// Statement emission reuses ProgramGenerator::generateBlock with the
// statement count forced to body x unroll -- the family controls block
// length and hotness directly instead of sampling the geometric.
//
//===----------------------------------------------------------------------===//

#include "workloads/ProgramGenerator.h"
#include "workloads/WorkloadFamily.h"

#include <algorithm>
#include <cmath>

using namespace schedfilter;

namespace {

/// Bump on any change to this family's suite parameters or the unroll
/// structure below; invalidates fpkernel corpus-cache entries only.
constexpr uint32_t FpKernelVersion = 1;

BenchmarkSpec kernelSpec(const char *Name, const char *Desc, uint64_t Seed) {
  BenchmarkSpec S;
  S.Name = Name;
  S.Description = Desc;
  S.Family = "fpkernel";
  S.Seed = Seed;
  // Dense-kernel population: almost all FP, long expressions over array
  // loads, few calls, few hazards beyond the back-edge yield point.
  S.MinBlocksPerMethod = 3; // prologue + >= 1 kernel + epilogue
  S.MaxBlocksPerMethod = 6;
  S.MeanExprOps = 3.6;
  S.MaxExprOps = 12;
  S.WIntExpr = 0.3;
  S.WFloatExpr = 2.2;
  S.WMemOp = 0.6;
  S.WCall = 0.02;
  S.WSystem = 0.01;
  S.LeafLoadProb = 0.58;
  S.PeiProb = 0.12;
  S.YieldProb = 0.15;
  S.SafepointProb = 0.02;
  S.HotnessSkew = 10.0;
  return S;
}

class FpKernelFamily : public WorkloadFamily {
public:
  const char *name() const override { return "fpkernel"; }
  const char *description() const override {
    return "unrolled FP loop-nest superblocks (cold prologue/epilogue, "
           "hot wide kernels)";
  }
  uint32_t version() const override { return FpKernelVersion; }

  std::vector<BenchmarkSpec> makeBenchmarkSuite() const override {
    std::vector<BenchmarkSpec> Suite;

    // saxpy-unroll: the canonical streaming kernel; maximal load share.
    {
      BenchmarkSpec S = kernelSpec(
          "saxpy-unroll", "Unrolled saxpy/daxpy streaming FP kernels",
          0xFB0601);
      S.LeafLoadProb = 0.62;
      Suite.push_back(S);
    }

    // stencil9: 9-point stencil sweeps; wider expressions, some divides
    // at the boundary normalization.
    {
      BenchmarkSpec S = kernelSpec(
          "stencil9", "9-point stencil sweeps over a 2-D grid", 0xFB0602);
      S.MeanExprOps = 4.0;
      S.FloatDivProb = 0.10;
      Suite.push_back(S);
    }

    // dotprod-sb: reduction kernels; fewer stores, FMAdd-rich bodies.
    {
      BenchmarkSpec S = kernelSpec(
          "dotprod-sb", "Dot-product reduction superblocks", 0xFB0603);
      S.WMemOp = 0.4;
      Suite.push_back(S);
    }

    return Suite;
  }

  Program load(const BenchmarkSpec &Spec) const override {
    ProgramGenerator Gen(Spec);
    Rng Master(Spec.Seed);
    Program P(Spec.Name);

    for (int M = 0; M != Spec.NumMethods; ++M) {
      Rng MethodRng = Master.split();
      Method Meth(Spec.Name + "::kern" + std::to_string(M));
      int NumBlocks = std::max(3, MethodRng.range(Spec.MinBlocksPerMethod,
                                                  Spec.MaxBlocksPerMethod));
      Meth.blocks().reserve(static_cast<size_t>(NumBlocks));

      // Prologue: loop setup and trip-count checks, executed once per
      // call of the method.
      {
        BasicBlock BB = Gen.generateBlock(MethodRng, MethodRng.range(1, 2),
                                          /*EndWithTerminator=*/true);
        BB.setExecCount(1 + MethodRng.below(32));
        Meth.addBlock(std::move(BB));
      }

      // Kernel superblocks: each is one unrolled loop body -- U copies
      // of a short independent body concatenated into a single long
      // block, soaking up nearly all of the method's execution count.
      for (int B = 1; B + 1 < NumBlocks; ++B) {
        int Unroll = MethodRng.range(2, 8);
        int Body = MethodRng.range(2, 4);
        BasicBlock BB = Gen.generateBlock(MethodRng, Unroll * Body,
                                          /*EndWithTerminator=*/true);
        double U = MethodRng.uniform();
        uint64_t Trips =
            1 + static_cast<uint64_t>(std::pow(U, Spec.HotnessSkew / 2.0) *
                                      static_cast<double>(Spec.MaxExec));
        // An unrolled block executes trip/U times but the nest around it
        // still dominates the method -- scale like the generator's
        // statement-rich multiplier so kernels dwarf their prologues.
        BB.setExecCount(Trips * 32);
        Meth.addBlock(std::move(BB));
      }

      // Epilogue: remainder iterations and the reduction tail; cool.
      {
        BasicBlock BB = Gen.generateBlock(MethodRng, MethodRng.range(0, 2),
                                          /*EndWithTerminator=*/true);
        BB.setExecCount(1 + MethodRng.below(32));
        Meth.addBlock(std::move(BB));
      }
      P.addMethod(std::move(Meth));
    }
    return P;
  }
};

} // namespace

std::unique_ptr<WorkloadFamily> schedfilter::makeFpKernelFamily() {
  return std::make_unique<FpKernelFamily>();
}
