//===- workloads/ServerLoopFamily.cpp - Server request-loop family ---------===//
//
// The "serverloop" workload family: long-running request loops of the
// kind a JIT actually hosts in a server process -- a tiny, very hot
// accept/dispatch block at every method entry feeding call- and
// memory-heavy handler blocks.  Compared with the SPECjvm98 stand-ins
// the population is flatter and smaller-blocked: most blocks are
// argument marshalling, hash probes and virtual dispatch, where the
// paper's filter should say "don't schedule" almost everywhere except
// the occasional batched-response loop.
//
// Statement emission reuses ProgramGenerator::generateBlock (the family
// differs in *population structure* -- block roles and hotness -- not in
// statement synthesis), so the family stays Verifier-clean by
// construction.
//
//===----------------------------------------------------------------------===//

#include "workloads/ProgramGenerator.h"
#include "workloads/WorkloadFamily.h"

#include <algorithm>
#include <cmath>

using namespace schedfilter;

namespace {

/// Bump on any change to this family's suite parameters or to the
/// program structure below; invalidates serverloop corpus-cache entries
/// and nobody else's.
constexpr uint32_t ServerLoopVersion = 1;

BenchmarkSpec serverSpec(const char *Name, const char *Desc, uint64_t Seed) {
  BenchmarkSpec S;
  S.Name = Name;
  S.Description = Desc;
  S.Family = "serverloop";
  S.Seed = Seed;
  // Server-code population defaults: small branchy blocks, many calls,
  // plenty of exception checks, yield points on every loop back edge.
  S.StatementGeoP = 0.60;
  S.MeanExprOps = 1.9;
  S.TrivialBlockProb = 0.40;
  S.WIntExpr = 0.9;
  S.WFloatExpr = 0.02;
  S.WMemOp = 1.2;
  S.WCall = 0.70;
  S.WSystem = 0.08;
  S.LeafLoadProb = 0.40;
  S.PeiProb = 0.50;
  S.YieldProb = 0.30;
  S.HotnessSkew = 7.0;
  return S;
}

class ServerLoopFamily : public WorkloadFamily {
public:
  const char *name() const override { return "serverloop"; }
  const char *description() const override {
    return "server-style request loops: hot dispatch blocks feeding "
           "call/memory-heavy handlers";
  }
  uint32_t version() const override { return ServerLoopVersion; }

  std::vector<BenchmarkSpec> makeBenchmarkSuite() const override {
    std::vector<BenchmarkSpec> Suite;

    // httpd: request parse + route dispatch; the most call-bound member.
    {
      BenchmarkSpec S = serverSpec(
          "httpd", "HTTP server request parsing and handler dispatch",
          0x5E0501);
      S.WCall = 0.85;
      S.TrivialBlockProb = 0.44;
      Suite.push_back(S);
    }

    // memkv: in-memory key-value store; hash probes and bucket updates
    // dominate, so loads/stores outweigh calls.
    {
      BenchmarkSpec S = serverSpec(
          "memkv", "In-memory key-value store serving get/put requests",
          0x5E0502);
      S.WMemOp = 1.8;
      S.WCall = 0.40;
      S.LeafLoadProb = 0.50;
      S.PeiProb = 0.55;
      Suite.push_back(S);
    }

    // rpcgw: RPC gateway; marshalling arithmetic plus system-unit work
    // (checksums, special registers) on every hop.
    {
      BenchmarkSpec S = serverSpec(
          "rpcgw", "RPC gateway marshalling requests between services",
          0x5E0503);
      S.WIntExpr = 1.2;
      S.WSystem = 0.16;
      S.MeanExprOps = 2.2;
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
      Method Meth(Spec.Name + "::svc" + std::to_string(M));
      int NumBlocks = MethodRng.range(Spec.MinBlocksPerMethod,
                                      Spec.MaxBlocksPerMethod);
      Meth.blocks().reserve(static_cast<size_t>(NumBlocks));

      // Block 0 is the accept/dispatch loop head: one or two statements
      // (poll the queue, test the opcode), executed once per request --
      // the hottest block of the method by an order of magnitude, and
      // far too small for scheduling to pay.
      {
        BasicBlock BB = Gen.generateBlock(MethodRng, MethodRng.range(1, 2),
                                          /*EndWithTerminator=*/true);
        uint64_t Requests =
            Spec.MaxExec * (4 + static_cast<uint64_t>(MethodRng.below(13)));
        BB.setExecCount(Requests);
        Meth.addBlock(std::move(BB));
      }

      // Handler blocks: each serves some fraction of the requests (the
      // route distribution), with the same skewed-but-flatter hotness
      // shape as the generator's -- no handler outruns its dispatcher.
      for (int B = 1; B < NumBlocks; ++B) {
        int NumStatements =
            MethodRng.chance(Spec.TrivialBlockProb)
                ? 0
                : std::min(Spec.MaxStatements,
                           MethodRng.geometric(Spec.StatementGeoP));
        BasicBlock BB = Gen.generateBlock(MethodRng, NumStatements,
                                          /*EndWithTerminator=*/true);
        double U = MethodRng.uniform();
        uint64_t Exec =
            1 + static_cast<uint64_t>(std::pow(U, Spec.HotnessSkew) *
                                      static_cast<double>(Spec.MaxExec));
        // A rare batched-response loop: the one handler shape that is
        // both statement-rich and hot enough for scheduling to matter.
        if (NumStatements >= 5)
          Exec *= 8;
        BB.setExecCount(Exec);
        Meth.addBlock(std::move(BB));
      }
      P.addMethod(std::move(Meth));
    }
    return P;
  }
};

} // namespace

const WorkloadFamily &schedfilter::serverLoopFamily() {
  static const ServerLoopFamily F;
  return F;
}
