//===- tests/schedcontext_test.cpp - context-reuse equivalence --------------===//
//
// The SchedContext contract: the allocation-free context-reuse entry
// points of DependenceGraph, ListScheduler, BlockSimulator and the
// compile Pipeline produce bit-for-bit the results of their one-shot
// counterparts -- including when one context is reused across many blocks
// of different shapes, sizes and register populations (stale scratch from
// a previous block must never leak into the next).
//
//===----------------------------------------------------------------------===//

#include "filter/Pipeline.h"
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

TEST(SchedContext, DagBuildMatchesOneShot) {
  MachineModel Model = MachineModel::ppc7410();
  SchedContext Ctx;
  for (const BasicBlock &BB : testBlocks()) {
    DependenceGraph OneShot(BB, Model);
    DependenceGraph &Reused = Ctx.dag();
    Reused.build(BB, Model, Ctx.dagScratch());

    ASSERT_EQ(Reused.numNodes(), OneShot.numNodes());
    EXPECT_EQ(Reused.numEdges(), OneShot.numEdges());
    EXPECT_EQ(Reused.workUnits(), OneShot.workUnits());
    EXPECT_EQ(Reused.inDegrees(), OneShot.inDegrees());
    for (int I = 0; I != static_cast<int>(OneShot.numNodes()); ++I) {
      EXPECT_EQ(Reused.criticalPath(I), OneShot.criticalPath(I));
      const std::vector<DepEdge> &A = Reused.succs(I);
      const std::vector<DepEdge> &B = OneShot.succs(I);
      ASSERT_EQ(A.size(), B.size());
      for (size_t E = 0; E != A.size(); ++E) {
        EXPECT_EQ(A[E].To, B[E].To);
        EXPECT_EQ(A[E].Latency, B[E].Latency);
        EXPECT_EQ(A[E].Kind, B[E].Kind);
      }
    }
  }
}

TEST(SchedContext, ScheduleMatchesOneShot) {
  MachineModel Model = MachineModel::ppc7410();
  ListScheduler Scheduler(Model);
  SchedContext Ctx;
  std::vector<int> Order;
  for (const BasicBlock &BB : testBlocks()) {
    ScheduleResult OneShot = Scheduler.schedule(BB);
    uint64_t Work = Scheduler.schedule(BB, Ctx, Order);
    EXPECT_EQ(Order, OneShot.Order);
    EXPECT_EQ(Work, OneShot.WorkUnits);
  }
}

TEST(SchedContext, SimulateMatchesOneShot) {
  MachineModel Model = MachineModel::ppc7410();
  ListScheduler Scheduler(Model);
  BlockSimulator Sim(Model);
  SchedContext Ctx;
  std::vector<int> Order;
  for (const BasicBlock &BB : testBlocks()) {
    EXPECT_EQ(Sim.simulate(BB, Ctx), Sim.simulate(BB));
    Scheduler.schedule(BB, Ctx, Order);
    EXPECT_EQ(Sim.simulate(BB, Order, Ctx), Sim.simulate(BB, Order));
  }
}

TEST(SchedContext, ContextSurvivesModelSwitch) {
  // A context is model-agnostic: reusing one across machine models must
  // not leak per-model scoreboard state.
  SchedContext Ctx;
  std::vector<int> Order;
  for (const MachineModel &Model :
       {MachineModel::ppc7410(), MachineModel::ppc970(),
        MachineModel::simpleScalar()}) {
    ListScheduler Scheduler(Model);
    BlockSimulator Sim(Model);
    for (const BasicBlock &BB : testBlocks()) {
      ScheduleResult OneShot = Scheduler.schedule(BB);
      uint64_t Work = Scheduler.schedule(BB, Ctx, Order);
      EXPECT_EQ(Order, OneShot.Order);
      EXPECT_EQ(Work, OneShot.WorkUnits);
      EXPECT_EQ(Sim.simulate(BB, Order, Ctx), Sim.simulate(BB, OneShot.Order));
    }
  }
}

TEST(SchedContext, CompileProgramMatchesOneShot) {
  MachineModel Model = MachineModel::ppc7410();
  const BenchmarkSpec *Spec = findBenchmarkSpec("db");
  ASSERT_NE(Spec, nullptr);
  BenchmarkSpec Small = *Spec;
  Small.NumMethods = 10;
  Program P = ProgramGenerator(Small).generate();

  SchedContext Ctx;
  for (SchedulingPolicy Policy :
       {SchedulingPolicy::Never, SchedulingPolicy::Always}) {
    CompileReport OneShot = compileProgram(P, Model, Policy);
    CompileReport Reused = compileProgram(P, Model, Policy, nullptr, Ctx);
    EXPECT_EQ(Reused.NumBlocks, OneShot.NumBlocks);
    EXPECT_EQ(Reused.NumScheduled, OneShot.NumScheduled);
    EXPECT_EQ(Reused.SchedulingWork, OneShot.SchedulingWork);
    EXPECT_DOUBLE_EQ(Reused.SimulatedTime, OneShot.SimulatedTime);
  }
}
