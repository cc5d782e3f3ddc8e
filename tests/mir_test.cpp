//===- tests/mir_test.cpp - mir/ unit tests ----------------------------------===//

#include "mir/Opcode.h"
#include "mir/Program.h"
#include "mir/Verifier.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <set>
#include <type_traits>
#include <vector>

using namespace schedfilter;
using namespace schedfilter::test;

TEST(Opcode, EveryOpcodeHasInfo) {
  for (unsigned I = 0; I != getNumOpcodes(); ++I) {
    const OpcodeInfo &Info = getOpcodeInfo(static_cast<Opcode>(I));
    EXPECT_NE(Info.Name, nullptr);
    EXPECT_GT(std::string(Info.Name).size(), 0u);
  }
}

TEST(Opcode, NamesAreUnique) {
  std::set<std::string> Names;
  for (unsigned I = 0; I != getNumOpcodes(); ++I)
    Names.insert(getOpcodeName(static_cast<Opcode>(I)));
  EXPECT_EQ(Names.size(), getNumOpcodes());
}

TEST(Opcode, CategoryAssignments) {
  EXPECT_TRUE(getOpcodeInfo(Opcode::Add).Categories & CatIntegerFU);
  EXPECT_TRUE(getOpcodeInfo(Opcode::FAdd).Categories & CatFloatFU);
  EXPECT_TRUE(getOpcodeInfo(Opcode::LoadInt).Categories & CatLoad);
  EXPECT_TRUE(getOpcodeInfo(Opcode::StoreInt).Categories & CatStore);
  EXPECT_TRUE(getOpcodeInfo(Opcode::Br).Categories & CatBranch);
  EXPECT_TRUE(getOpcodeInfo(Opcode::Ret).Categories & CatReturn);
  EXPECT_TRUE(getOpcodeInfo(Opcode::MemBar).Categories & CatSystemFU);
}

TEST(Opcode, CallsOverlapCategories) {
  // The paper's categories are "possibly overlapping": a call is a call,
  // a PEI, and a GC point all at once.
  uint16_t C = getOpcodeInfo(Opcode::Call).Categories;
  EXPECT_TRUE(C & CatCall);
  EXPECT_TRUE(C & CatPEI);
  EXPECT_TRUE(C & CatGCPoint);
}

TEST(Opcode, TerminatorsMarked) {
  EXPECT_TRUE(getOpcodeInfo(Opcode::Br).IsTerminator);
  EXPECT_TRUE(getOpcodeInfo(Opcode::BrCond).IsTerminator);
  EXPECT_TRUE(getOpcodeInfo(Opcode::Ret).IsTerminator);
  EXPECT_FALSE(getOpcodeInfo(Opcode::Call).IsTerminator);
}

TEST(Opcode, MemoryEffects) {
  EXPECT_TRUE(getOpcodeInfo(Opcode::LoadFloat).ReadsMemory);
  EXPECT_FALSE(getOpcodeInfo(Opcode::LoadFloat).WritesMemory);
  EXPECT_TRUE(getOpcodeInfo(Opcode::StoreRef).WritesMemory);
  // Calls conservatively read and write memory.
  EXPECT_TRUE(getOpcodeInfo(Opcode::Call).ReadsMemory);
  EXPECT_TRUE(getOpcodeInfo(Opcode::Call).WritesMemory);
}

TEST(Instruction, DefsAndUses) {
  Instruction I(Opcode::Add, {5}, {1, 2});
  EXPECT_EQ(I.defs().size(), 1u);
  EXPECT_EQ(I.defs()[0], 5);
  EXPECT_EQ(I.uses().size(), 2u);
}

// Operands live inline: a block's instructions are one flat array with no
// per-instruction heap blocks.
static_assert(sizeof(Instruction) <= 16, "Instruction must stay compact");
static_assert(std::is_trivially_copyable_v<Instruction>,
              "Instruction must own no heap memory");

TEST(Instruction, VectorAndListConstructorsAgree) {
  const std::vector<Reg> Defs = {7};
  const std::vector<Reg> Uses = {1, 2, 3};
  Instruction FromVec(Opcode::FMAdd, Defs, Uses, AttrPEI);
  Instruction FromList(Opcode::FMAdd, {7}, {1, 2, 3}, AttrPEI);
  auto AsVector = [](RegRange R) {
    return std::vector<Reg>(R.begin(), R.end());
  };
  EXPECT_EQ(AsVector(FromVec.defs()), Defs);
  EXPECT_EQ(AsVector(FromVec.uses()), Uses);
  EXPECT_EQ(AsVector(FromList.defs()), Defs);
  EXPECT_EQ(AsVector(FromList.uses()), Uses);
  EXPECT_EQ(FromVec.toString(), FromList.toString());
  EXPECT_EQ(FromList.toString(), "fmadd r7 = r1, r2, r3 [pei]");
}

TEST(InstructionDeathTest, FiveOperandsAbortNamingOpcode) {
  EXPECT_DEATH(Instruction(Opcode::FMAdd, {7}, {1, 2, 3, 4}),
               "Instruction fmadd: 5 register operands");
  EXPECT_DEATH(Instruction(Opcode::Add, std::vector<Reg>{7},
                           std::vector<Reg>{1, 2, 3, 4}),
               "Instruction add: 5 register operands");
}

TEST(Instruction, ExtraAttrsExtendCategories) {
  Instruction Plain(Opcode::LoadInt, {5}, {1});
  EXPECT_FALSE(Plain.isInCategory(CatPEI));
  Instruction Pei(Opcode::LoadInt, {5}, {1}, AttrPEI);
  EXPECT_TRUE(Pei.isInCategory(CatPEI));
  EXPECT_TRUE(Pei.isInCategory(CatLoad)); // opcode category kept
}

TEST(Instruction, AddAttrsOnlyAdds) {
  Instruction I(Opcode::Add, {5}, {1, 2});
  I.addAttrs(AttrGCPoint);
  EXPECT_TRUE(I.isInCategory(CatGCPoint));
  // Non-hazard bits are masked out of attributes.
  Instruction J(Opcode::Add, {5}, {1, 2}, CatLoad);
  EXPECT_FALSE(J.isInCategory(CatLoad));
}

TEST(Instruction, BarrierClassification) {
  EXPECT_TRUE(Instruction(Opcode::Call, {5}, {1}).isBarrier());
  EXPECT_TRUE(Instruction(Opcode::GcSafepoint, {}, {}).isBarrier());
  EXPECT_TRUE(Instruction(Opcode::YieldPoint, {}, {}).isBarrier());
  EXPECT_TRUE(Instruction(Opcode::ThreadSwitchPoint, {}, {}).isBarrier());
  // A PEI alone is not a full barrier.
  EXPECT_FALSE(Instruction(Opcode::NullCheck, {}, {1}).isBarrier());
  EXPECT_FALSE(Instruction(Opcode::Add, {5}, {1, 2}).isBarrier());
}

TEST(Instruction, ToStringMentionsOpcodeAndTags) {
  Instruction I(Opcode::LoadRef, {7}, {3}, AttrPEI);
  std::string S = I.toString();
  EXPECT_NE(S.find("lref"), std::string::npos);
  EXPECT_NE(S.find("pei"), std::string::npos);
  EXPECT_NE(S.find("r7"), std::string::npos);
}

TEST(BasicBlock, AppendAndIterate) {
  BasicBlock BB = makeChainBlock();
  EXPECT_EQ(BB.size(), 4u);
  EXPECT_FALSE(BB.empty());
  size_t N = 0;
  for (const Instruction &I : BB) {
    (void)I;
    ++N;
  }
  EXPECT_EQ(N, 4u);
}

TEST(BasicBlock, ExecCount) {
  BasicBlock BB("b", 42);
  EXPECT_EQ(BB.getExecCount(), 42u);
  BB.setExecCount(7);
  EXPECT_EQ(BB.getExecCount(), 7u);
}

TEST(BasicBlock, ReorderedPermutes) {
  BasicBlock BB = makeIlpFloatBlock();
  std::vector<int> Order = {2, 0, 3, 1, 4, 5};
  BasicBlock R = BB.reordered(Order);
  EXPECT_EQ(R.size(), BB.size());
  EXPECT_EQ(R[0].getOpcode(), BB[2].getOpcode());
  EXPECT_EQ(R[1].getOpcode(), BB[0].getOpcode());
  EXPECT_EQ(R.getExecCount(), BB.getExecCount());
}

TEST(Method, TotalInstructions) {
  Method M("m");
  M.addBlock(makeChainBlock());
  M.addBlock(makeTrivialBlock());
  EXPECT_EQ(M.size(), 2u);
  EXPECT_EQ(M.totalInstructions(), 6u);
}

TEST(Program, CountsAndIteration) {
  Program P("p");
  Method M1("m1");
  M1.addBlock(makeChainBlock());
  Method M2("m2");
  M2.addBlock(makeTrivialBlock());
  M2.addBlock(makeIlpFloatBlock());
  P.addMethod(std::move(M1));
  P.addMethod(std::move(M2));
  EXPECT_EQ(P.size(), 2u);
  EXPECT_EQ(P.totalBlocks(), 3u);
  EXPECT_EQ(P.totalInstructions(), 4u + 2u + 6u);

  size_t Visited = 0;
  P.forEachBlock([&](const BasicBlock &) { ++Visited; });
  EXPECT_EQ(Visited, 3u);
}

TEST(Verifier, AcceptsWellFormedBlocks) {
  EXPECT_TRUE(verifyBlock(makeChainBlock()).Ok);
  EXPECT_TRUE(verifyBlock(makeIlpFloatBlock()).Ok);
  EXPECT_TRUE(verifyBlock(makeTrivialBlock()).Ok);
}

TEST(Verifier, RejectsMisplacedTerminator) {
  BasicBlock BB("bad");
  BB.append(Instruction(Opcode::Br, {}, {}));
  BB.append(Instruction(Opcode::Add, {100}, {0, 1}));
  VerifyResult R = verifyBlock(BB);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Message.find("terminator"), std::string::npos);
}

TEST(Verifier, RejectsWrongDefCount) {
  BasicBlock BB("bad-defs");
  BB.append(Instruction(Opcode::Add, {}, {0, 1})); // add must define a reg
  EXPECT_FALSE(verifyBlock(BB).Ok);
}

TEST(Verifier, MethodAndProgramPropagateFailure) {
  Program P("p");
  Method M("m");
  BasicBlock Bad("bad");
  Bad.append(Instruction(Opcode::StoreInt, {100}, {0, 1})); // store defs=0
  M.addBlock(std::move(Bad));
  P.addMethod(std::move(M));
  VerifyResult R = verifyProgram(P);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Message.find("p.m"), std::string::npos);
}

TEST(Verifier, EmptyBlockIsFine) {
  BasicBlock BB("empty");
  EXPECT_TRUE(verifyBlock(BB).Ok);
}
