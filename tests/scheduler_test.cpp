//===- tests/scheduler_test.cpp - sched/ListScheduler unit tests ------------===//

#include "sched/ListScheduler.h"

#include "TestHelpers.h"
#include "sched/SchedContext.h"
#include "sched/ScheduleVerifier.h"
#include "workloads/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace schedfilter;
using namespace schedfilter::test;

namespace {

bool isPermutation(const std::vector<int> &Order, size_t N) {
  if (Order.size() != N)
    return false;
  std::vector<int> Sorted = Order;
  std::sort(Sorted.begin(), Sorted.end());
  for (size_t I = 0; I != N; ++I)
    if (Sorted[I] != static_cast<int>(I))
      return false;
  return true;
}

} // namespace

TEST(ListScheduler, EmptyBlock) {
  MachineModel M = MachineModel::ppc7410();
  BasicBlock BB("empty");
  EXPECT_TRUE(scheduleBlock(BB, M).empty());
}

TEST(ListScheduler, ChainStaysInOrder) {
  MachineModel M = MachineModel::ppc7410();
  BasicBlock BB = makeChainBlock();
  EXPECT_EQ(scheduleBlock(BB, M), (std::vector<int>{0, 1, 2, 3}));
}

TEST(ListScheduler, HoistsIndependentLoadIntoStallSlot) {
  MachineModel M = MachineModel::ppc7410();
  BasicBlock BB = makeIlpFloatBlock();
  std::vector<int> Order = scheduleBlock(BB, M);
  // The naive order is ld,fmul,ld,fmul,fadd,st; CPS should start both
  // loads before the first multiply.
  std::vector<int> Pos(BB.size());
  for (size_t P = 0; P != Order.size(); ++P)
    Pos[static_cast<size_t>(Order[P])] = static_cast<int>(P);
  EXPECT_LT(Pos[2], Pos[1]) << "second load should hoist above first fmul";
}

TEST(ListScheduler, ScheduledNeverSlowerOnIlpBlock) {
  MachineModel M = MachineModel::ppc7410();
  ListScheduler S(M);
  BlockSimulator Sim(M);
  SchedContext Ctx;
  std::vector<int> Order;
  BasicBlock BB = makeIlpFloatBlock();
  S.schedule(BB, Ctx, Order);
  uint64_t Before = Sim.simulate(BB, Ctx);
  uint64_t After = Sim.simulate(BB, Order, Ctx);
  EXPECT_LT(After, Before);
}

TEST(ListScheduler, DeterministicAcrossCalls) {
  MachineModel M = MachineModel::ppc7410();
  ListScheduler S(M);
  SchedContext Ctx;
  std::vector<int> First, Second;
  const BenchmarkSpec *Spec = findBenchmarkSpec("mpegaudio");
  Rng R(99);
  for (int Trial = 0; Trial != 10; ++Trial) {
    BasicBlock BB = ProgramGenerator(*Spec).generateBlock(R, 4, true);
    S.schedule(BB, Ctx, First);
    S.schedule(BB, Ctx, Second);
    EXPECT_EQ(First, Second);
  }
}

TEST(ListScheduler, WorkUnitsIncludeDagWhenSelfBuilt) {
  MachineModel M = MachineModel::ppc7410();
  ListScheduler S(M);
  BasicBlock BB = makeIlpFloatBlock();
  SchedContext Ctx;
  std::vector<int> Order, LoopOrder;
  uint64_t Total = S.schedule(BB, Ctx, Order);
  ListSchedulerScratch Scratch;
  uint64_t Loop = S.scheduleInto(BB, Ctx.dag(), Scratch, LoopOrder);
  EXPECT_EQ(Total, Loop + Ctx.dag().workUnits());
  EXPECT_EQ(LoopOrder, Order);
}

TEST(ListScheduler, PrefersLongerCriticalPathOnTies) {
  MachineModel M = MachineModel::ppc7410();
  // Two ready-at-zero chains; the fdiv chain is much longer and should be
  // started first even though it appears later in program order.
  BasicBlock BB("ties");
  BB.append(Instruction(Opcode::Add, {100}, {0, 1}));
  BB.append(Instruction(Opcode::FDiv, {101}, {32, 33}));
  BB.append(Instruction(Opcode::FAdd, {102}, {101, 34}));
  EXPECT_EQ(scheduleBlock(BB, M).front(), 1)
      << "long fdiv chain should start first";
}

TEST(ListScheduler, TerminatorAlwaysLast) {
  MachineModel M = MachineModel::ppc7410();
  const BenchmarkSpec *Spec = findBenchmarkSpec("javac");
  Rng R(123);
  for (int Trial = 0; Trial != 20; ++Trial) {
    BasicBlock BB = ProgramGenerator(*Spec).generateBlock(
        R, R.range(0, 6), /*EndWithTerminator=*/true);
    if (BB.empty() || !BB[BB.size() - 1].isTerminator())
      continue;
    EXPECT_EQ(scheduleBlock(BB, M).back(), static_cast<int>(BB.size()) - 1);
  }
}

TEST(ScheduleVerifier, AcceptsLegalAndRejectsIllegal) {
  MachineModel M = MachineModel::ppc7410();
  DependenceGraph Dag = buildDag(makeChainBlock(), M);
  EXPECT_TRUE(verifySchedule(Dag, {0, 1, 2, 3}).Ok);
  EXPECT_FALSE(verifySchedule(Dag, {1, 0, 2, 3}).Ok); // violates RAW
  EXPECT_FALSE(verifySchedule(Dag, {0, 1, 2}).Ok);    // wrong size
  EXPECT_FALSE(verifySchedule(Dag, {0, 0, 2, 3}).Ok); // duplicate
  EXPECT_FALSE(verifySchedule(Dag, {0, 1, 2, 7}).Ok); // out of range
}

// The core safety property, swept over every benchmark profile and many
// seeds: the scheduler always emits a legal permutation (all dependent
// pairs keep their order -- the paper's definition of semantic
// equivalence).
class SchedulerLegality
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(SchedulerLegality, AlwaysLegalPermutation) {
  MachineModel M = MachineModel::ppc7410();
  ListScheduler S(M);
  SchedContext Ctx;
  std::vector<int> Order;
  const BenchmarkSpec *Spec =
      findBenchmarkSpec(std::get<0>(GetParam()));
  ASSERT_NE(Spec, nullptr);
  Rng R(std::get<1>(GetParam()));
  for (int Trial = 0; Trial != 25; ++Trial) {
    BasicBlock BB = ProgramGenerator(*Spec).generateBlock(
        R, R.range(0, 9), /*EndWithTerminator=*/R.chance(0.8));
    S.schedule(BB, Ctx, Order);
    EXPECT_TRUE(isPermutation(Order, BB.size()));
    ScheduleVerifyResult V = verifySchedule(Ctx.dag(), Order);
    EXPECT_TRUE(V.Ok) << V.Message;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, SchedulerLegality,
    ::testing::Combine(::testing::Values("compress", "jess", "db", "javac",
                                         "mpegaudio", "raytrace", "jack",
                                         "linpack", "aes", "voronoi"),
                       ::testing::Values(7u, 77u)));
