//===- tests/depgraph_test.cpp - sched/DependenceGraph unit tests -----------===//

#include "sched/DependenceGraph.h"

#include "TestHelpers.h"
#include "io/TraceStore.h"
#include "sched/SchedContext.h"
#include "workloads/ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace schedfilter;
using namespace schedfilter::test;

namespace {

MachineModel model() { return MachineModel::ppc7410(); }

/// Finds the edge From->To, or nullptr.
const DepEdge *findEdge(const DependenceGraph &G, int From, int To) {
  for (const DepEdge &E : G.succs(From))
    if (E.To == To)
      return &E;
  return nullptr;
}

} // namespace

TEST(DependenceGraph, RawDependenceCarriesProducerLatency) {
  MachineModel M = model();
  BasicBlock BB("raw");
  BB.append(Instruction(Opcode::LoadInt, {100}, {0}));
  BB.append(Instruction(Opcode::Add, {101}, {100, 1}));
  DependenceGraph G = buildDag(BB, M);
  const DepEdge *E = findEdge(G, 0, 1);
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->Kind, DepKind::Data);
  EXPECT_EQ(E->Latency, M.getLatency(Opcode::LoadInt));
}

TEST(DependenceGraph, AntiDependence) {
  BasicBlock BB("war");
  BB.append(Instruction(Opcode::Add, {100}, {1, 2}));  // reads r1
  BB.append(Instruction(Opcode::Add, {1}, {3, 4}));    // writes r1
  DependenceGraph G = buildDag(BB, model());
  const DepEdge *E = findEdge(G, 0, 1);
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->Kind, DepKind::Anti);
  EXPECT_EQ(E->Latency, 0u);
}

TEST(DependenceGraph, OutputDependence) {
  BasicBlock BB("waw");
  BB.append(Instruction(Opcode::Add, {100}, {1, 2}));
  BB.append(Instruction(Opcode::Sub, {100}, {3, 4}));
  DependenceGraph G = buildDag(BB, model());
  const DepEdge *E = findEdge(G, 0, 1);
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->Kind, DepKind::Output);
}

TEST(DependenceGraph, IndependentInstructionsHaveNoEdge) {
  BasicBlock BB("indep");
  BB.append(Instruction(Opcode::Add, {100}, {1, 2}));
  BB.append(Instruction(Opcode::Add, {101}, {3, 4}));
  DependenceGraph G = buildDag(BB, model());
  EXPECT_FALSE(G.hasEdge(0, 1));
}

TEST(DependenceGraph, StoreThenLoadOrdered) {
  BasicBlock BB("st-ld");
  BB.append(Instruction(Opcode::StoreInt, {}, {1, 2}));
  BB.append(Instruction(Opcode::LoadInt, {100}, {3}));
  DependenceGraph G = buildDag(BB, model());
  EXPECT_TRUE(G.hasEdge(0, 1));
}

TEST(DependenceGraph, LoadThenStoreOrdered) {
  BasicBlock BB("ld-st");
  BB.append(Instruction(Opcode::LoadInt, {100}, {3}));
  BB.append(Instruction(Opcode::StoreInt, {}, {1, 2}));
  DependenceGraph G = buildDag(BB, model());
  EXPECT_TRUE(G.hasEdge(0, 1));
}

TEST(DependenceGraph, StoreStoreOrdered) {
  BasicBlock BB("st-st");
  BB.append(Instruction(Opcode::StoreInt, {}, {1, 2}));
  BB.append(Instruction(Opcode::StoreInt, {}, {3, 4}));
  DependenceGraph G = buildDag(BB, model());
  EXPECT_TRUE(G.hasEdge(0, 1));
}

TEST(DependenceGraph, LoadsMayReorderFreely) {
  BasicBlock BB("ld-ld");
  BB.append(Instruction(Opcode::LoadInt, {100}, {1}));
  BB.append(Instruction(Opcode::LoadInt, {101}, {2}));
  DependenceGraph G = buildDag(BB, model());
  EXPECT_FALSE(G.hasEdge(0, 1));
}

TEST(DependenceGraph, PeisStayOrdered) {
  BasicBlock BB("pei-pei");
  BB.append(Instruction(Opcode::NullCheck, {}, {1}));
  BB.append(Instruction(Opcode::BoundsCheck, {}, {2}));
  DependenceGraph G = buildDag(BB, model());
  EXPECT_TRUE(G.hasEdge(0, 1));
}

TEST(DependenceGraph, PeiAndStoreMutuallyOrdered) {
  BasicBlock BB("pei-st");
  BB.append(Instruction(Opcode::NullCheck, {}, {1}));
  BB.append(Instruction(Opcode::StoreInt, {}, {2, 3}));
  BB.append(Instruction(Opcode::BoundsCheck, {}, {4}));
  DependenceGraph G = buildDag(BB, model());
  EXPECT_TRUE(G.hasEdge(0, 1)); // PEI before store stays before
  EXPECT_TRUE(G.hasEdge(1, 2)); // store before PEI stays before
}

TEST(DependenceGraph, CallIsFullBarrier) {
  BasicBlock BB("call");
  BB.append(Instruction(Opcode::Add, {100}, {1, 2}));
  BB.append(Instruction(Opcode::Call, {101}, {3}));
  BB.append(Instruction(Opcode::Add, {102}, {4, 5}));
  DependenceGraph G = buildDag(BB, model());
  EXPECT_TRUE(G.hasEdge(0, 1)); // nothing moves below the call...
  EXPECT_TRUE(G.hasEdge(1, 2)); // ...or above it
}

TEST(DependenceGraph, YieldPointIsFullBarrier) {
  BasicBlock BB("yield");
  BB.append(Instruction(Opcode::Add, {100}, {1, 2}));
  BB.append(Instruction(Opcode::YieldPoint, {}, {}));
  BB.append(Instruction(Opcode::Add, {101}, {3, 4}));
  DependenceGraph G = buildDag(BB, model());
  EXPECT_TRUE(G.hasEdge(0, 1));
  EXPECT_TRUE(G.hasEdge(1, 2));
}

TEST(DependenceGraph, EverythingBeforeTerminator) {
  BasicBlock BB("term");
  BB.append(Instruction(Opcode::Add, {100}, {1, 2}));
  BB.append(Instruction(Opcode::Add, {101}, {3, 4}));
  BB.append(Instruction(Opcode::Br, {}, {}));
  DependenceGraph G = buildDag(BB, model());
  EXPECT_TRUE(G.hasEdge(0, 2));
  EXPECT_TRUE(G.hasEdge(1, 2));
}

TEST(DependenceGraph, EdgesDeduplicatedKeepingStrongest) {
  MachineModel M = model();
  BasicBlock BB("dup");
  // r100 feeds both operands: a single Data edge must remain.
  BB.append(Instruction(Opcode::LoadInt, {100}, {0}));
  BB.append(Instruction(Opcode::Add, {101}, {100, 100}));
  DependenceGraph G = buildDag(BB, M);
  EXPECT_EQ(G.succs(0).size(), 1u);
  EXPECT_EQ(G.succs(0)[0].Latency, M.getLatency(Opcode::LoadInt));
}

TEST(DependenceGraph, DuplicateEdgeWeakerSecondKeepsFirst) {
  MachineModel M = model();
  BasicBlock BB("strong-first");
  // The store reads the load's result (Data, load latency) and must also
  // stay after the load (Memory, latency 0): the Data edge survives.
  BB.append(Instruction(Opcode::LoadInt, {100}, {0}));
  BB.append(Instruction(Opcode::StoreInt, {}, {100, 1}));
  DependenceGraph G = buildDag(BB, M);
  ASSERT_EQ(G.succs(0).size(), 1u);
  EXPECT_EQ(G.numEdges(), 1u);
  EXPECT_EQ(G.inDegrees()[1], 1);
  EXPECT_EQ(G.succs(0)[0].Kind, DepKind::Data);
  EXPECT_EQ(G.succs(0)[0].Latency, M.getLatency(Opcode::LoadInt));
}

TEST(DependenceGraph, DuplicateEdgeStrongerSecondReplacesFirst) {
  BasicBlock BB("strong-second");
  // The load overwrites a register the store read (Anti, latency 0) and
  // must follow the store (Memory, latency 1): the Memory edge survives.
  BB.append(Instruction(Opcode::StoreInt, {}, {5, 1}));
  BB.append(Instruction(Opcode::LoadInt, {5}, {2}));
  DependenceGraph G = buildDag(BB, model());
  ASSERT_EQ(G.succs(0).size(), 1u);
  EXPECT_EQ(G.numEdges(), 1u);
  EXPECT_EQ(G.inDegrees()[1], 1);
  EXPECT_EQ(G.succs(0)[0].Kind, DepKind::Memory);
  EXPECT_EQ(G.succs(0)[0].Latency, 1u);
}

TEST(DependenceGraph, CriticalPathOfChain) {
  MachineModel M = model();
  BasicBlock BB = makeChainBlock();
  DependenceGraph G = buildDag(BB, M);
  // Height of the first instruction covers the whole chain:
  // lwz(3) -> add(1) -> add(1) -> stw(1).
  long Expected = static_cast<long>(M.getLatency(Opcode::LoadInt)) + 1 + 1 +
                  static_cast<long>(M.getLatency(Opcode::StoreInt));
  EXPECT_EQ(G.criticalPath(0), Expected);
  // Heights shrink along the chain.
  EXPECT_GT(G.criticalPath(0), G.criticalPath(1));
  EXPECT_GT(G.criticalPath(1), G.criticalPath(2));
}

TEST(DependenceGraph, CriticalPathAtLeastOwnLatency) {
  MachineModel M = model();
  BasicBlock BB = makeIlpFloatBlock();
  DependenceGraph G = buildDag(BB, M);
  for (int I = 0; I != static_cast<int>(BB.size()); ++I)
    EXPECT_GE(G.criticalPath(I),
              static_cast<long>(
                  M.getLatency(BB[static_cast<size_t>(I)].getOpcode())));
}

TEST(DependenceGraph, WorkUnitsPositiveAndGrowWithSize) {
  MachineModel M = model();
  DependenceGraph Small = buildDag(makeTrivialBlock(), M);
  DependenceGraph Large = buildDag(makeIlpFloatBlock(), M);
  EXPECT_GT(Small.workUnits(), 0u);
  EXPECT_GT(Large.workUnits(), Small.workUnits());
}

TEST(DependenceGraph, EmptyBlock) {
  BasicBlock BB("empty");
  DependenceGraph G = buildDag(BB, model());
  EXPECT_EQ(G.numNodes(), 0u);
  EXPECT_EQ(G.numEdges(), 0u);
}

TEST(DependenceGraph, SuiteDigestPinned) {
  // Bit-exact guard on the DAG and the CPS order over every SPECjvm98
  // block under ppc7410.  Each block contributes its successor lists in
  // order (To, Latency, Kind), its critical-path heights, the DAG's work
  // units and the list scheduler's order and total work; the stream is
  // hashed with the repository's FNV-1a.  Any rewrite of the builder or
  // the scheduler must keep the edge set, the kind that survives each
  // dedupe, successor order, every work unit and every pick.
  MachineModel M = model();
  ListScheduler Scheduler(M);
  SchedContext Ctx;
  std::vector<int> Order;
  std::string Bytes;
  uint64_t Blocks = 0, Edges = 0;
  for (const BenchmarkSpec &Spec : specjvm98Suite()) {
    Program P = ProgramGenerator(Spec).generate();
    P.forEachBlock([&](const BasicBlock &BB) {
      uint64_t Work = Scheduler.schedule(BB, Ctx, Order);
      const DependenceGraph &G = Ctx.dag();
      wire::putU32(Bytes, static_cast<uint32_t>(G.numNodes()));
      for (int I = 0; I != static_cast<int>(G.numNodes()); ++I) {
        wire::putU32(Bytes, static_cast<uint32_t>(G.succs(I).size()));
        for (const DepEdge &E : G.succs(I)) {
          wire::putU32(Bytes, static_cast<uint32_t>(E.To));
          wire::putU32(Bytes, E.Latency);
          Bytes.push_back(static_cast<char>(E.Kind));
        }
        wire::putU64(Bytes, static_cast<uint64_t>(G.criticalPath(I)));
      }
      wire::putU64(Bytes, G.workUnits());
      for (int Idx : Order)
        wire::putU32(Bytes, static_cast<uint32_t>(Idx));
      wire::putU64(Bytes, Work);
      ++Blocks;
      Edges += G.numEdges();
    });
  }
  EXPECT_EQ(Blocks, 8827u); // Golden.SuitePopulation
  EXPECT_EQ(Edges, 101592u);
  EXPECT_EQ(wire::fnv1a(Bytes.data(), Bytes.size()), 0xb25b6dc445ac4674ULL);
}

// Property sweep: on generated blocks, all edges point forward and
// in-degrees are consistent with successor lists.
class DepGraphProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DepGraphProperty, EdgesForwardAndDegreesConsistent) {
  MachineModel M = model();
  const BenchmarkSpec *Spec = findBenchmarkSpec("raytrace");
  ASSERT_NE(Spec, nullptr);
  Rng R(GetParam());
  for (int Trial = 0; Trial != 20; ++Trial) {
    BasicBlock BB = ProgramGenerator(*Spec).generateBlock(
        R, R.range(0, 8), /*EndWithTerminator=*/true);
    DependenceGraph G = buildDag(BB, M);
    std::vector<int> InDeg(G.numNodes(), 0);
    for (size_t I = 0; I != G.numNodes(); ++I)
      for (const DepEdge &E : G.succs(static_cast<int>(I))) {
        EXPECT_GT(E.To, static_cast<int>(I));
        EXPECT_LT(E.To, static_cast<int>(G.numNodes()));
        ++InDeg[static_cast<size_t>(E.To)];
      }
    EXPECT_EQ(InDeg, G.inDegrees());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DepGraphProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));
