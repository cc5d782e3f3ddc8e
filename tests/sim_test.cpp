//===- tests/sim_test.cpp - sim/BlockSimulator unit tests -------------------===//

#include "sim/BlockSimulator.h"

#include "TestHelpers.h"
#include "sched/SchedContext.h"
#include "workloads/ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace schedfilter;
using namespace schedfilter::test;

namespace {

MachineModel model() { return MachineModel::ppc7410(); }

} // namespace

TEST(BlockSimulator, EmptyBlockIsZero) {
  MachineModel M = model();
  BlockSimulator Sim(M);
  SchedContext Ctx;
  BasicBlock BB("empty");
  EXPECT_EQ(Sim.simulate(BB, Ctx), 0u);
}

TEST(BlockSimulator, SingleInstructionCostsItsLatency) {
  MachineModel M = model();
  BlockSimulator Sim(M);
  SchedContext Ctx;
  BasicBlock BB("one");
  BB.append(Instruction(Opcode::LoadInt, {100}, {0}));
  EXPECT_EQ(Sim.simulate(BB, Ctx), M.getLatency(Opcode::LoadInt));
}

TEST(BlockSimulator, DependentChainSumsLatencies) {
  MachineModel M = model();
  BlockSimulator Sim(M);
  SchedContext Ctx;
  BasicBlock BB("chain2");
  BB.append(Instruction(Opcode::LoadInt, {100}, {0}));
  BB.append(Instruction(Opcode::Add, {101}, {100, 1}));
  EXPECT_EQ(Sim.simulate(BB, Ctx),
            M.getLatency(Opcode::LoadInt) + M.getLatency(Opcode::Add));
}

TEST(BlockSimulator, DualIssueOfIndependentIntOps) {
  MachineModel M = model();
  BlockSimulator Sim(M);
  SchedContext Ctx;
  // Two independent adds on the two integer units: both issue in cycle 0.
  BasicBlock BB("dual");
  BB.append(Instruction(Opcode::Add, {100}, {0, 1}));
  BB.append(Instruction(Opcode::Add, {101}, {2, 3}));
  EXPECT_EQ(Sim.simulate(BB, Ctx), 1u);
}

TEST(BlockSimulator, IssueWidthLimitsThirdOp) {
  MachineModel M = model();
  BlockSimulator Sim(M);
  SchedContext Ctx;
  // Three independent adds: only two non-branch issues per cycle (and only
  // two integer units), so the third lands in cycle 1.
  BasicBlock BB("triple");
  BB.append(Instruction(Opcode::Add, {100}, {0, 1}));
  BB.append(Instruction(Opcode::Add, {101}, {2, 3}));
  BB.append(Instruction(Opcode::Add, {102}, {4, 5}));
  EXPECT_EQ(Sim.simulate(BB, Ctx), 2u);
}

TEST(BlockSimulator, BranchUsesItsOwnIssueSlot) {
  MachineModel M = model();
  BlockSimulator Sim(M);
  SchedContext Ctx;
  // Two adds + a branch can all go in cycle 0 (1 branch + 2 non-branch).
  BasicBlock BB("br-slot");
  BB.append(Instruction(Opcode::Add, {100}, {0, 1}));
  BB.append(Instruction(Opcode::Add, {101}, {2, 3}));
  BB.append(Instruction(Opcode::Br, {}, {}));
  EXPECT_EQ(Sim.simulate(BB, Ctx), 1u);
}

TEST(BlockSimulator, FunctionalUnitContention) {
  MachineModel M = model();
  BlockSimulator Sim(M);
  SchedContext Ctx;
  // Two independent loads share the single LSU: second issues a cycle
  // later (pipelined), finishing one cycle after the first.
  BasicBlock BB("lsu");
  BB.append(Instruction(Opcode::LoadInt, {100}, {0}));
  BB.append(Instruction(Opcode::LoadInt, {101}, {1}));
  EXPECT_EQ(Sim.simulate(BB, Ctx), M.getLatency(Opcode::LoadInt) + 1);
}

TEST(BlockSimulator, NonPipelinedDivBlocksUnit) {
  MachineModel M = model();
  BlockSimulator Sim(M);
  SchedContext Ctx;
  // Two independent fdivs on one non-pipelined FPU: serialized.
  BasicBlock BB("fdiv2");
  BB.append(Instruction(Opcode::FDiv, {100}, {32, 33}));
  BB.append(Instruction(Opcode::FDiv, {101}, {34, 35}));
  EXPECT_EQ(Sim.simulate(BB, Ctx), 2 * M.getLatency(Opcode::FDiv));
}

TEST(BlockSimulator, LoadWaitsForPriorStore) {
  MachineModel M = model();
  BlockSimulator Sim(M);
  SchedContext Ctx;
  BasicBlock BB("st-ld");
  BB.append(Instruction(Opcode::StoreInt, {}, {0, 1}));
  BB.append(Instruction(Opcode::LoadInt, {100}, {2}));
  // Load issues only after the store completes (conservative memory
  // model): 1 (store) + 3 (load).
  EXPECT_EQ(Sim.simulate(BB, Ctx),
            M.getLatency(Opcode::StoreInt) + M.getLatency(Opcode::LoadInt));
}

TEST(BlockSimulator, CallSerializesFollowingWork) {
  MachineModel M = model();
  BlockSimulator Sim(M);
  SchedContext Ctx;
  BasicBlock BB("call");
  BB.append(Instruction(Opcode::Call, {100}, {0}));
  BB.append(Instruction(Opcode::Add, {101}, {1, 2}));
  EXPECT_EQ(Sim.simulate(BB, Ctx),
            M.getLatency(Opcode::Call) + M.getLatency(Opcode::Add));
}

TEST(BlockSimulator, IdentityOrderMatchesImplicitOrder) {
  MachineModel M = model();
  BlockSimulator Sim(M);
  SchedContext Ctx;
  BasicBlock BB = makeIlpFloatBlock();
  std::vector<int> Identity = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(Sim.simulate(BB, Ctx), Sim.simulate(BB, Identity, Ctx));
}

TEST(BlockSimulator, ReorderingChangesCost) {
  MachineModel M = model();
  BlockSimulator Sim(M);
  SchedContext Ctx;
  BasicBlock BB = makeIlpFloatBlock();
  // Interleaved order hides load latency: strictly cheaper.
  std::vector<int> Interleaved = {0, 2, 1, 3, 4, 5};
  EXPECT_LT(Sim.simulate(BB, Interleaved, Ctx), Sim.simulate(BB, Ctx));
}

TEST(BlockSimulator, SimpleScalarSlowerThanSuperscalar) {
  MachineModel Wide = model();
  MachineModel Narrow = MachineModel::simpleScalar();
  BlockSimulator SimW(Wide), SimN(Narrow);
  SchedContext Ctx;
  BasicBlock BB = makeIlpFloatBlock();
  EXPECT_GE(SimN.simulate(BB, Ctx), SimW.simulate(BB, Ctx));
}

TEST(BlockSimulator, DeterministicAcrossCalls) {
  MachineModel M = model();
  BlockSimulator Sim(M);
  SchedContext Ctx;
  BasicBlock BB = makeIlpFloatBlock();
  EXPECT_EQ(Sim.simulate(BB, Ctx), Sim.simulate(BB, Ctx));
}

// Property sweep over generated blocks: appending an instruction never
// reduces block cost, and every legal schedule's cost is at least the
// dependence-graph critical path of the first instruction... (we assert
// the weaker, always-true form: cost >= max single latency).
class SimProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimProperty, MonotoneUnderAppend) {
  MachineModel M = model();
  BlockSimulator Sim(M);
  SchedContext Ctx;
  const BenchmarkSpec *Spec = findBenchmarkSpec("bh");
  Rng R(GetParam());
  for (int Trial = 0; Trial != 10; ++Trial) {
    BasicBlock BB = ProgramGenerator(*Spec).generateBlock(
        R, R.range(0, 5), /*EndWithTerminator=*/false);
    uint64_t Cost = Sim.simulate(BB, Ctx);
    BB.append(Instruction(Opcode::Add, {999}, {0, 1}));
    EXPECT_GE(Sim.simulate(BB, Ctx), Cost);
  }
}

TEST_P(SimProperty, CostAtLeastLongestSingleLatency) {
  MachineModel M = model();
  BlockSimulator Sim(M);
  SchedContext Ctx;
  const BenchmarkSpec *Spec = findBenchmarkSpec("power");
  Rng R(GetParam() * 31 + 1);
  for (int Trial = 0; Trial != 10; ++Trial) {
    BasicBlock BB = ProgramGenerator(*Spec).generateBlock(
        R, R.range(1, 6), /*EndWithTerminator=*/true);
    uint64_t MaxLat = 0;
    for (const Instruction &I : BB)
      MaxLat = std::max<uint64_t>(MaxLat, M.getLatency(I.getOpcode()));
    EXPECT_GE(Sim.simulate(BB, Ctx), MaxLat);
    EXPECT_GE(Sim.simulate(BB, Ctx), BB.size() / 3); // issue-width bound
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));
