//===- tests/opcode_coverage_test.cpp - every opcode through every layer ------===//
//
// Parameterized sweep over all opcodes: each one must flow through the
// whole stack -- verifier, feature extraction, dependence graph, list
// scheduler, and simulator -- without violating any invariant.  Guards
// against adding an opcode and forgetting a table somewhere.
//
//===----------------------------------------------------------------------===//

#include "features/Features.h"
#include "mir/Verifier.h"
#include "sched/SchedContext.h"
#include "sched/ScheduleVerifier.h"
#include "sim/BlockSimulator.h"

#include <gtest/gtest.h>

using namespace schedfilter;

namespace {

/// Builds a minimal well-formed block exercising \p Op: operands come
/// from live-in registers, and non-terminators are followed by a little
/// extra work so the DAG has somewhere to go.
BasicBlock makeBlockFor(Opcode Op) {
  const OpcodeInfo &Info = getOpcodeInfo(Op);
  BasicBlock BB(std::string("op-") + Info.Name);

  std::vector<Reg> Defs;
  if (Info.NumDefs == 1)
    Defs.push_back(100);
  // Give everything two register uses; extra uses are harmless in this IR
  // and exercise the dependence builder.
  std::vector<Reg> Uses = {1, 2};

  if (Info.IsTerminator) {
    BB.append(Instruction(Opcode::Add, {101}, {1, 2}));
    BB.append(Instruction(Op, Defs, Op == Opcode::Br ? std::vector<Reg>{}
                                                     : std::vector<Reg>{101}));
  } else {
    BB.append(Instruction(Op, Defs, Uses));
    // Consume the result (if any) so there is a RAW edge.
    BB.append(Instruction(Opcode::Add, {102},
                          Info.NumDefs == 1 ? std::vector<Reg>{100, 3}
                                            : std::vector<Reg>{1, 3}));
    BB.append(Instruction(Opcode::StoreInt, {}, {102, 4}));
  }
  return BB;
}

} // namespace

class OpcodeCoverage : public ::testing::TestWithParam<unsigned> {};

TEST_P(OpcodeCoverage, FlowsThroughEntireStack) {
  Opcode Op = static_cast<Opcode>(GetParam());
  BasicBlock BB = makeBlockFor(Op);

  // Verifier accepts the construction.
  VerifyResult VR = verifyBlock(BB);
  ASSERT_TRUE(VR.Ok) << VR.Message;

  // Features are in range and count this opcode's categories.
  FeatureVector X = extractFeatures(BB);
  EXPECT_EQ(X[FeatBBLen], static_cast<double>(BB.size()));
  for (unsigned F = FeatBranch; F != NumFeatures; ++F) {
    EXPECT_GE(X[F], 0.0);
    EXPECT_LE(X[F], 1.0);
  }

  for (const MachineModel &M :
       {MachineModel::ppc7410(), MachineModel::ppc970(),
        MachineModel::simpleScalar()}) {
    // Scheduler emits a legal order over a DAG whose heights are positive.
    SchedContext Ctx;
    std::vector<int> Order;
    ListScheduler(M).schedule(BB, Ctx, Order);
    for (int I = 0; I != static_cast<int>(BB.size()); ++I)
      EXPECT_GE(Ctx.dag().criticalPath(I), 1);
    ScheduleVerifyResult SV = verifySchedule(Ctx.dag(), Order);
    EXPECT_TRUE(SV.Ok) << getOpcodeName(Op) << " on " << M.getName() << ": "
                       << SV.Message;

    // Simulator prices both orders sanely.
    BlockSimulator Sim(M);
    uint64_t Before = Sim.simulate(BB, Ctx);
    uint64_t After = Sim.simulate(BB, Order, Ctx);
    EXPECT_GE(Before, M.getLatency(Op));
    EXPECT_GT(After, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, OpcodeCoverage,
    ::testing::Range(0u, getNumOpcodes()),
    [](const ::testing::TestParamInfo<unsigned> &Info) {
      std::string Name = getOpcodeName(static_cast<Opcode>(Info.param));
      return Name; // opcode mnemonics are valid test-name characters
    });
