//===- tests/simtrace_test.cpp - SimTrace tests ---------------------------===//

#include "sim/BlockSimulator.h"

#include "TestHelpers.h"
#include "sched/ListScheduler.h"
#include "workloads/ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace schedfilter;
using namespace schedfilter::test;

TEST(SimTrace, TotalMatchesScalarSimulate) {
  MachineModel M = MachineModel::ppc7410();
  BlockSimulator Sim(M);
  const BenchmarkSpec *Spec = findBenchmarkSpec("bh");
  Rng R(61);
  for (int Trial = 0; Trial != 20; ++Trial) {
    BasicBlock BB = ProgramGenerator(*Spec).generateBlock(
        R, R.range(0, 6), /*EndWithTerminator=*/true);
    std::vector<int> Id(BB.size());
    for (size_t I = 0; I != BB.size(); ++I)
      Id[I] = static_cast<int>(I);
    SimTrace T = Sim.simulateWithTrace(BB, Id);
    EXPECT_EQ(T.TotalCycles, Sim.simulate(BB));
    EXPECT_EQ(T.Events.size(), BB.size());
  }
}

TEST(SimTrace, EventsWellFormed) {
  MachineModel M = MachineModel::ppc7410();
  BlockSimulator Sim(M);
  BasicBlock BB = makeIlpFloatBlock();
  std::vector<int> Id = ListScheduler::identity(BB).Order;
  SimTrace T = Sim.simulateWithTrace(BB, Id);
  uint64_t PrevIssue = 0;
  for (const IssueEvent &E : T.Events) {
    // In-order issue: cycles never go backwards.
    EXPECT_GE(E.IssueCycle, PrevIssue);
    PrevIssue = E.IssueCycle;
    // Completion is issue + latency.
    unsigned Lat = M.getLatency(
        BB[static_cast<size_t>(E.OriginalIndex)].getOpcode());
    EXPECT_EQ(E.CompleteCycle, E.IssueCycle + Lat);
    // The executing unit accepts the instruction's class.
    EXPECT_TRUE(M.units()[E.Unit].accepts(
        BB[static_cast<size_t>(E.OriginalIndex)].getInfo().Unit));
    EXPECT_LE(E.CompleteCycle, T.TotalCycles);
  }
}

TEST(SimTrace, DataDependenceVisibleInTrace) {
  MachineModel M = MachineModel::ppc7410();
  BlockSimulator Sim(M);
  BasicBlock BB("dep");
  BB.append(Instruction(Opcode::LoadFloat, {100}, {0}));
  BB.append(Instruction(Opcode::FAdd, {101}, {100, 32}));
  SimTrace T = Sim.simulateWithTrace(BB, {0, 1});
  ASSERT_EQ(T.Events.size(), 2u);
  EXPECT_GE(T.Events[1].IssueCycle, T.Events[0].CompleteCycle);
}

TEST(SimTrace, ToStringRendersEveryInstruction) {
  MachineModel M = MachineModel::ppc7410();
  BlockSimulator Sim(M);
  BasicBlock BB = makeChainBlock();
  SimTrace T = Sim.simulateWithTrace(BB, ListScheduler::identity(BB).Order);
  std::string S = T.toString(BB, M);
  EXPECT_NE(S.find("lwz"), std::string::npos);
  EXPECT_NE(S.find("stw"), std::string::npos);
  EXPECT_NE(S.find("total: " + std::to_string(T.TotalCycles)),
            std::string::npos);
}
