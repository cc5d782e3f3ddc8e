//===- tests/scheduler_test.cpp - sched/ListScheduler unit tests ------------===//

#include "sched/ListScheduler.h"

#include "ReferenceListScheduler.h"
#include "TestHelpers.h"
#include "sched/SchedContext.h"
#include "sched/ScheduleVerifier.h"
#include "workloads/ProgramGenerator.h"
#include "workloads/WorkloadFamily.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

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

/// Schedules each block with ListScheduler::scheduleInto and with the
/// reference scheduler over the same DAG, and compares the two orders and
/// work units.
class ReferenceOracle {
public:
  explicit ReferenceOracle(const MachineModel &M) : Model(M), Scheduler(M) {}

  ::testing::AssertionResult check(const BasicBlock &BB) {
    Ctx.dag().build(BB, Model, Ctx.dagScratch());
    uint64_t Work = Scheduler.scheduleInto(BB, Ctx.dag(),
                                           Ctx.schedulerScratch(), Order);
    uint64_t RefWork =
        reference::scheduleInto(BB, Ctx.dag(), RefScratch, RefOrder);
    ++Blocks;
    if (Order != RefOrder)
      return ::testing::AssertionFailure()
             << "block " << BB.getName() << " (" << BB.size()
             << " instructions): order differs from the reference";
    if (Work != RefWork)
      return ::testing::AssertionFailure()
             << "block " << BB.getName() << ": " << Work
             << " work units, the reference counts " << RefWork;
    return ::testing::AssertionSuccess();
  }

  const std::vector<int> &order() const { return Order; }
  uint64_t blocks() const { return Blocks; }

private:
  MachineModel Model;
  ListScheduler Scheduler;
  SchedContext Ctx;
  reference::ListSchedulerScratch RefScratch;
  std::vector<int> Order, RefOrder;
  uint64_t Blocks = 0;
};

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

TEST(ListScheduler, MatchesReferenceOnEveryFamilyAndModel) {
  // Every block of the five stock family suites, under every model: the
  // packed-key scheduler must pick exactly the reference's order and
  // count exactly its work units.  DependenceGraph.SuiteDigestPinned
  // pins SPECjvm98 on ppc7410 only.
  std::vector<Program> Programs;
  for (const BenchmarkSpec &Spec : WorkloadRegistry::instance().benchmarks())
    Programs.push_back(generateWorkloadProgram(Spec));
  ASSERT_EQ(WorkloadRegistry::instance().families().size(), 5u);
  for (const char *Name : {"ppc7410", "ppc970", "simple-scalar"}) {
    std::optional<MachineModel> M = MachineModel::byName(Name);
    ASSERT_TRUE(M.has_value()) << Name;
    ReferenceOracle Oracle(*M);
    uint64_t Mismatches = 0;
    for (const Program &P : Programs)
      P.forEachBlock([&](const BasicBlock &BB) {
        ::testing::AssertionResult R = Oracle.check(BB);
        if (!R && Mismatches++ == 0)
          ADD_FAILURE() << Name << ", " << P.getName() << ": "
                        << R.message();
      });
    EXPECT_EQ(Mismatches, 0u) << Name;
    EXPECT_GT(Oracle.blocks(), 8827u) << Name; // more than SPECjvm98 alone
  }
}

TEST(ListScheduler, MatchesReferenceOnHandBuiltBlocks) {
  MachineModel M = MachineModel::ppc7410();
  ReferenceOracle Oracle(M);

  EXPECT_TRUE(Oracle.check(BasicBlock("empty")));
  EXPECT_TRUE(Oracle.order().empty());

  BasicBlock One("one");
  One.append(Instruction(Opcode::FDiv, {100}, {1, 2}));
  EXPECT_TRUE(Oracle.check(One));
  EXPECT_EQ(Oracle.order(), std::vector<int>{0});

  // Equal critical paths and no fanout: program order decides.
  BasicBlock Loads("independent-loads");
  for (int I = 0; I != 300; ++I)
    Loads.append(Instruction(Opcode::LoadInt, {static_cast<Reg>(1000 + I)}, {1}));
  EXPECT_TRUE(Oracle.check(Loads));
  for (int I = 0; I != 300; ++I)
    ASSERT_EQ(Oracle.order()[static_cast<size_t>(I)], I);

  // One legal order, each pick after a clock jump.
  BasicBlock Chain("chain");
  for (int I = 0; I != 300; ++I)
    Chain.append(Instruction(Opcode::Add, {static_cast<Reg>(I + 1)},
                             {static_cast<Reg>(I), 1000}));
  EXPECT_TRUE(Oracle.check(Chain));
  for (int I = 0; I != 300; ++I)
    ASSERT_EQ(Oracle.order()[static_cast<size_t>(I)], I);

  // Three adds with equal critical paths: the one with two consumers
  // (index 1) goes first on fanout, then 0 before 2 on program order.
  BasicBlock Ties("ties");
  Ties.append(Instruction(Opcode::Add, {100}, {1, 2}));
  Ties.append(Instruction(Opcode::Add, {101}, {1, 2}));
  Ties.append(Instruction(Opcode::Add, {102}, {1, 2}));
  Ties.append(Instruction(Opcode::Add, {103}, {100, 3}));
  Ties.append(Instruction(Opcode::Add, {104}, {101, 3}));
  Ties.append(Instruction(Opcode::Add, {105}, {101, 4}));
  Ties.append(Instruction(Opcode::Add, {106}, {102, 3}));
  EXPECT_TRUE(Oracle.check(Ties));
  EXPECT_EQ(std::vector<int>(Oracle.order().begin(),
                             Oracle.order().begin() + 3),
            (std::vector<int>{1, 0, 2}));

  // Zero-latency edges release an instruction at the clock of its last
  // predecessor's pick: anti (2 after 0, 5 after 1), PEI hazard (4 after
  // 3) and control (6 after everything), mixed with a load's latency
  // that forces clock jumps.
  BasicBlock ZeroLat("zero-latency");
  ZeroLat.append(Instruction(Opcode::LoadInt, {20}, {1}));
  ZeroLat.append(Instruction(Opcode::Add, {21}, {20, 2}));
  ZeroLat.append(Instruction(Opcode::Add, {1}, {3, 4}));
  ZeroLat.append(Instruction(Opcode::NullCheck, {}, {21}));
  ZeroLat.append(Instruction(Opcode::NullCheck, {}, {5}));
  ZeroLat.append(Instruction(Opcode::Add, {20}, {6, 7}));
  ZeroLat.append(Instruction(Opcode::BrCond, {}, {21}));
  DependenceGraph G = buildDag(ZeroLat, M);
  for (DepKind Kind : {DepKind::Anti, DepKind::Hazard, DepKind::Control}) {
    bool Found = false;
    for (int I = 0; I != static_cast<int>(G.numNodes()); ++I)
      for (const DepEdge &E : G.succs(I))
        Found |= E.Kind == Kind && E.Latency == 0;
    EXPECT_TRUE(Found) << "no zero-latency edge of kind "
                       << static_cast<int>(Kind);
  }
  EXPECT_TRUE(Oracle.check(ZeroLat));
}

TEST(ListSchedulerDeathTest, AbortsWhenCriticalPathOverflowsTheKey) {
  // One fdiv of 2^24 cycles feeding an fadd: the block's critical path
  // no longer fits the key's 24-bit field, and the scheduler must say so
  // rather than misorder.
  MachineModel M = MachineModel::ppc7410();
  M.setLatency(Opcode::FDiv, 1u << 24);
  BasicBlock BB("too-long");
  BB.append(Instruction(Opcode::FDiv, {101}, {32, 33}));
  BB.append(Instruction(Opcode::FAdd, {102}, {101, 34}));
  long Cp = buildDag(BB, M).criticalPath(0);
  ASSERT_GT(static_cast<uint64_t>(Cp), ListSchedulerScratch::MaxCriticalPath);
  SchedContext Ctx;
  std::vector<int> Order;
  EXPECT_DEATH(ListScheduler(M).schedule(BB, Ctx, Order),
               "block of 2 instructions with critical path " +
                   std::to_string(Cp) + " does not fit the packed key");
}
