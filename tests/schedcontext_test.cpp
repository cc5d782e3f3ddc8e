//===- tests/schedcontext_test.cpp - context-reuse equivalence --------------===//
//
// The SchedContext contract: one context reused across many blocks of
// different shapes, sizes and register populations -- and across machine
// models -- builds, schedules and simulates each block bit-for-bit as a
// fresh context would.  Stale scratch from a previous block must never
// leak into the next.
//
//===----------------------------------------------------------------------===//

#include "sched/SchedContext.h"
#include "workloads/ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace schedfilter;

namespace {

/// A diverse block population: several sizes from two different benchmark
/// profiles (integer-heavy and FP-heavy), exercising loads/stores, PEIs,
/// calls and long-latency ops.
std::vector<BasicBlock> testBlocks() {
  std::vector<BasicBlock> Blocks;
  for (const char *Name : {"compress", "mpegaudio", "linpack"}) {
    const BenchmarkSpec *Spec = findBenchmarkSpec(Name);
    Rng R(0x5EED ^ Blocks.size());
    for (int Statements = 0; Statements <= 8; ++Statements)
      Blocks.push_back(ProgramGenerator(*Spec).generateBlock(
          R, Statements, /*EndWithTerminator=*/true));
  }
  return Blocks;
}

} // namespace

TEST(SchedContext, DagBuildMatchesFreshContext) {
  MachineModel Model = MachineModel::ppc7410();
  SchedContext Ctx;
  for (const BasicBlock &BB : testBlocks()) {
    SchedContext Fresh;
    const DependenceGraph &Expected = Fresh.dag();
    Fresh.dag().build(BB, Model, Fresh.dagScratch());
    DependenceGraph &Reused = Ctx.dag();
    Reused.build(BB, Model, Ctx.dagScratch());

    ASSERT_EQ(Reused.numNodes(), Expected.numNodes());
    EXPECT_EQ(Reused.numEdges(), Expected.numEdges());
    EXPECT_EQ(Reused.workUnits(), Expected.workUnits());
    EXPECT_EQ(Reused.inDegrees(), Expected.inDegrees());
    for (int I = 0; I != static_cast<int>(Expected.numNodes()); ++I) {
      EXPECT_EQ(Reused.criticalPath(I), Expected.criticalPath(I));
      const std::vector<DepEdge> &A = Reused.succs(I);
      const std::vector<DepEdge> &B = Expected.succs(I);
      ASSERT_EQ(A.size(), B.size());
      for (size_t E = 0; E != A.size(); ++E) {
        EXPECT_EQ(A[E].To, B[E].To);
        EXPECT_EQ(A[E].Latency, B[E].Latency);
        EXPECT_EQ(A[E].Kind, B[E].Kind);
      }
    }
  }
}

TEST(SchedContext, ScheduleMatchesFreshContext) {
  MachineModel Model = MachineModel::ppc7410();
  ListScheduler Scheduler(Model);
  SchedContext Ctx;
  std::vector<int> Order, Expected;
  for (const BasicBlock &BB : testBlocks()) {
    SchedContext Fresh;
    uint64_t ExpectedWork = Scheduler.schedule(BB, Fresh, Expected);
    uint64_t Work = Scheduler.schedule(BB, Ctx, Order);
    EXPECT_EQ(Order, Expected);
    EXPECT_EQ(Work, ExpectedWork);
  }
}

TEST(SchedContext, SimulateMatchesFreshContext) {
  MachineModel Model = MachineModel::ppc7410();
  ListScheduler Scheduler(Model);
  BlockSimulator Sim(Model);
  SchedContext Ctx;
  std::vector<int> Order;
  for (const BasicBlock &BB : testBlocks()) {
    Scheduler.schedule(BB, Ctx, Order);
    SchedContext Fresh;
    EXPECT_EQ(Sim.simulate(BB, Ctx), Sim.simulate(BB, Fresh));
    SchedContext FreshOrdered;
    EXPECT_EQ(Sim.simulate(BB, Order, Ctx),
              Sim.simulate(BB, Order, FreshOrdered));
  }
}

TEST(SchedContext, ModelSwitchMatchesFreshContext) {
  // A context is model-agnostic: reusing one across machine models must
  // not leak per-model scoreboard state.
  SchedContext Ctx;
  std::vector<int> Order, Expected;
  for (const MachineModel &Model :
       {MachineModel::ppc7410(), MachineModel::ppc970(),
        MachineModel::simpleScalar()}) {
    ListScheduler Scheduler(Model);
    BlockSimulator Sim(Model);
    for (const BasicBlock &BB : testBlocks()) {
      SchedContext Fresh;
      uint64_t ExpectedWork = Scheduler.schedule(BB, Fresh, Expected);
      uint64_t Work = Scheduler.schedule(BB, Ctx, Order);
      EXPECT_EQ(Order, Expected);
      EXPECT_EQ(Work, ExpectedWork);
      EXPECT_EQ(Sim.simulate(BB, Order, Ctx),
                Sim.simulate(BB, Expected, Fresh));
    }
  }
}
