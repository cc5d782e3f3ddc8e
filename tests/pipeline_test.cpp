//===- tests/pipeline_test.cpp - compileProgram unit tests ----------------===//

#include "runtime/MethodCompiler.h"

#include "TestHelpers.h"
#include "workloads/ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace schedfilter;
using namespace schedfilter::test;

namespace {

Program smallProgram() {
  const BenchmarkSpec *Spec = findBenchmarkSpec("raytrace");
  BenchmarkSpec S = *Spec;
  S.NumMethods = 8;
  return ProgramGenerator(S).generate();
}

} // namespace

TEST(Pipeline, PolicyNames) {
  EXPECT_STREQ(getPolicyName(SchedulingPolicy::Never), "NS");
  EXPECT_STREQ(getPolicyName(SchedulingPolicy::Always), "LS");
  EXPECT_STREQ(getPolicyName(SchedulingPolicy::Filtered), "L/N");
}

TEST(Pipeline, NeverSchedulesNothing) {
  MachineModel M = MachineModel::ppc7410();
  Program P = smallProgram();
  CompileReport R = compileProgram(P, M, SchedulingPolicy::Never);
  EXPECT_EQ(R.NumBlocks, P.totalBlocks());
  EXPECT_EQ(R.NumScheduled, 0u);
  EXPECT_EQ(R.SchedulingWork, 0u);
  EXPECT_GT(R.SimulatedTime, 0.0);
}

TEST(Pipeline, AlwaysSchedulesEverything) {
  MachineModel M = MachineModel::ppc7410();
  Program P = smallProgram();
  CompileReport R = compileProgram(P, M, SchedulingPolicy::Always);
  EXPECT_EQ(R.NumScheduled, P.totalBlocks());
  EXPECT_GT(R.SchedulingWork, 0u);
}

TEST(Pipeline, AlwaysAtLeastAsFastAsNeverOnSimTime) {
  MachineModel M = MachineModel::ppc7410();
  Program P = smallProgram();
  CompileReport NS = compileProgram(P, M, SchedulingPolicy::Never);
  CompileReport LS = compileProgram(P, M, SchedulingPolicy::Always);
  // CPS list scheduling may occasionally lose a cycle on a block, but
  // program-wide it must win on this ILP-bearing profile.
  EXPECT_LT(LS.SimulatedTime, NS.SimulatedTime);
}

TEST(Pipeline, FilteredCountsMatchFilterDecisions) {
  MachineModel M = MachineModel::ppc7410();
  Program P = smallProgram();

  RuleSet RS(Label::NS);
  Rule R;
  R.Conclusion = Label::LS;
  R.Conditions.push_back({FeatBBLen, false, 7.0});
  RS.addRule(std::move(R));

  const ScheduleFilter F(RS);
  CompileReport Rep =
      compileProgram(P, M, SchedulingPolicy::Filtered, &F);
  uint64_t Blocks = 0, LS = 0, Work = 0;
  P.forEachBlock([&](const BasicBlock &BB) {
    CompiledFilter::Decision D = F.decide(BB);
    ++Blocks;
    LS += D.ScheduleLS;
    Work += D.Work;
  });
  EXPECT_EQ(Rep.NumBlocks, Blocks);
  EXPECT_EQ(Rep.NumScheduled, LS);
  EXPECT_EQ(Rep.FilterWork, Work);
  EXPECT_GE(Rep.SchedulingWork, Rep.FilterWork);
}

TEST(Pipeline, FilteredSimBetweenNeverAndAlwaysTypically) {
  MachineModel M = MachineModel::ppc7410();
  Program P = smallProgram();

  RuleSet RS(Label::NS);
  Rule R;
  R.Conclusion = Label::LS;
  R.Conditions.push_back({FeatBBLen, false, 6.0});
  RS.addRule(std::move(R));
  ScheduleFilter F(RS);

  CompileReport NS = compileProgram(P, M, SchedulingPolicy::Never);
  CompileReport LS = compileProgram(P, M, SchedulingPolicy::Always);
  CompileReport LN = compileProgram(P, M, SchedulingPolicy::Filtered, &F);
  EXPECT_LE(LN.SimulatedTime, NS.SimulatedTime);
  EXPECT_GE(LN.SimulatedTime, LS.SimulatedTime * 0.999);
}

TEST(Pipeline, FilteredWithAlwaysFilterMatchesAlways) {
  MachineModel M = MachineModel::ppc7410();
  Program P = smallProgram();

  // A filter that says LS for everything reproduces the Always policy's
  // simulated time (effort additionally pays the filter).
  RuleSet RS(Label::NS);
  Rule R;
  R.Conclusion = Label::LS;
  RS.addRule(std::move(R)); // empty antecedent
  ScheduleFilter F(RS);

  CompileReport LS = compileProgram(P, M, SchedulingPolicy::Always);
  CompileReport LN = compileProgram(P, M, SchedulingPolicy::Filtered, &F);
  EXPECT_EQ(LN.NumScheduled, LS.NumScheduled);
  EXPECT_DOUBLE_EQ(LN.SimulatedTime, LS.SimulatedTime);
  EXPECT_GT(LN.SchedulingWork, LS.SchedulingWork); // filter overhead
}

TEST(Pipeline, FilteredWithNeverFilterMatchesNever) {
  MachineModel M = MachineModel::ppc7410();
  Program P = smallProgram();
  ScheduleFilter F((RuleSet(Label::NS)));
  CompileReport NS = compileProgram(P, M, SchedulingPolicy::Never);
  CompileReport LN = compileProgram(P, M, SchedulingPolicy::Filtered, &F);
  EXPECT_EQ(LN.NumScheduled, 0u);
  EXPECT_DOUBLE_EQ(LN.SimulatedTime, NS.SimulatedTime);
}

TEST(Pipeline, SimulatedTimeWeightsByExecCount) {
  MachineModel M = MachineModel::ppc7410();
  Program P("weights");
  Method Meth("m");
  Meth.addBlock(makeChainBlock(/*ExecCount=*/10));
  P.addMethod(std::move(Meth));
  CompileReport R1 = compileProgram(P, M, SchedulingPolicy::Never);

  Program P2("weights2");
  Method Meth2("m");
  Meth2.addBlock(makeChainBlock(/*ExecCount=*/20));
  P2.addMethod(std::move(Meth2));
  CompileReport R2 = compileProgram(P2, M, SchedulingPolicy::Never);

  EXPECT_DOUBLE_EQ(R2.SimulatedTime, 2.0 * R1.SimulatedTime);
}

TEST(Pipeline, DeterministicWorkAccounting) {
  MachineModel M = MachineModel::ppc7410();
  Program P = smallProgram();
  CompileReport A = compileProgram(P, M, SchedulingPolicy::Always);
  CompileReport B = compileProgram(P, M, SchedulingPolicy::Always);
  EXPECT_EQ(A.SchedulingWork, B.SchedulingWork);
  EXPECT_DOUBLE_EQ(A.SimulatedTime, B.SimulatedTime);
}
