//===- tests/adaptive_test.cpp - adaptive pipeline & ppc970 tests -------------===//

#include "runtime/MethodCompiler.h"
#include "target/MachineModel.h"

#include "TestHelpers.h"
#include "workloads/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace schedfilter;
using namespace schedfilter::test;

namespace {

Program testProgram() {
  BenchmarkSpec S = *findBenchmarkSpec("mpegaudio");
  S.NumMethods = 12;
  return ProgramGenerator(S).generate();
}

} // namespace

TEST(AdaptiveJit, ZeroFractionSchedulesNothing) {
  MachineModel M = MachineModel::ppc7410();
  Program P = testProgram();
  CompileReport R = compileProgramAdaptive(P, M, SchedulingPolicy::Always,
                                           nullptr, 0.0);
  EXPECT_EQ(R.NumScheduled, 0u);
  CompileReport NS = compileProgram(P, M, SchedulingPolicy::Never);
  EXPECT_DOUBLE_EQ(R.SimulatedTime, NS.SimulatedTime);
}

TEST(AdaptiveJit, FullFractionMatchesPlainPipeline) {
  MachineModel M = MachineModel::ppc7410();
  Program P = testProgram();
  CompileReport Adaptive = compileProgramAdaptive(
      P, M, SchedulingPolicy::Always, nullptr, 1.0);
  CompileReport Plain = compileProgram(P, M, SchedulingPolicy::Always);
  EXPECT_EQ(Adaptive.NumScheduled, Plain.NumScheduled);
  EXPECT_DOUBLE_EQ(Adaptive.SimulatedTime, Plain.SimulatedTime);
  EXPECT_EQ(Adaptive.SchedulingWork, Plain.SchedulingWork);
}

TEST(AdaptiveJit, HalfFractionBetweenExtremes) {
  MachineModel M = MachineModel::ppc7410();
  Program P = testProgram();
  CompileReport NS = compileProgram(P, M, SchedulingPolicy::Never);
  CompileReport LS = compileProgram(P, M, SchedulingPolicy::Always);
  CompileReport Half = compileProgramAdaptive(
      P, M, SchedulingPolicy::Always, nullptr, 0.5);
  EXPECT_GT(Half.NumScheduled, 0u);
  EXPECT_LT(Half.NumScheduled, LS.NumScheduled);
  EXPECT_LE(Half.SimulatedTime, NS.SimulatedTime);
  EXPECT_GE(Half.SimulatedTime, LS.SimulatedTime * 0.999);
  EXPECT_LT(Half.SchedulingWork, LS.SchedulingWork);
}

TEST(AdaptiveJit, HotSelectionCapturesMostBenefit) {
  // The point of hot-method JITs: optimizing the top half of methods by
  // weight should capture well over half of the available benefit.
  MachineModel M = MachineModel::ppc7410();
  Program P = testProgram();
  CompileReport NS = compileProgram(P, M, SchedulingPolicy::Never);
  CompileReport LS = compileProgram(P, M, SchedulingPolicy::Always);
  CompileReport Half = compileProgramAdaptive(
      P, M, SchedulingPolicy::Always, nullptr, 0.5);
  double FullBenefit = NS.SimulatedTime - LS.SimulatedTime;
  double HalfBenefit = NS.SimulatedTime - Half.SimulatedTime;
  ASSERT_GT(FullBenefit, 0.0);
  EXPECT_GT(HalfBenefit / FullBenefit, 0.5);
}

TEST(AdaptiveJit, FilteredPolicyComposes) {
  MachineModel M = MachineModel::ppc7410();
  Program P = testProgram();
  RuleSet RS(Label::NS);
  Rule R;
  R.Conclusion = Label::LS;
  R.Conditions.push_back({FeatBBLen, false, 7.0});
  RS.addRule(std::move(R));
  ScheduleFilter F(RS);
  CompileReport Rep = compileProgramAdaptive(
      P, M, SchedulingPolicy::Filtered, &F, 0.5);
  EXPECT_EQ(Rep.NumScheduled, F.numScheduleDecisions());
  // Filter only consulted for hot methods' blocks.
  EXPECT_LT(F.numScheduleDecisions() + F.numSkipDecisions(),
            P.totalBlocks());
}

TEST(AdaptiveJit, MatchesPartitionedPipelineBitForBit) {
  // compileProgramAdaptive moved from filter/Pipeline onto the runtime's
  // MethodCompiler; its historical algorithm -- partition into hot/cold
  // programs, compileProgram each, merge -- must be reproduced bit for
  // bit, the SimulatedTime floating-point fold included.  This test IS
  // that old algorithm, inlined.
  MachineModel M = MachineModel::ppc7410();
  Program P = testProgram();
  RuleSet RS(Label::NS);
  Rule Rl;
  Rl.Conclusion = Label::LS;
  Rl.Conditions.push_back({FeatBBLen, false, 7.0});
  RS.addRule(std::move(Rl));

  for (double Hot : {0.0, 0.25, 0.5, 1.0}) {
    for (SchedulingPolicy Policy :
         {SchedulingPolicy::Always, SchedulingPolicy::Filtered}) {
      ScheduleFilter NewF(RS);
      ScheduleFilter OldF(RS);
      ScheduleFilter *NewFilter =
          Policy == SchedulingPolicy::Filtered ? &NewF : nullptr;
      ScheduleFilter *OldFilter =
          Policy == SchedulingPolicy::Filtered ? &OldF : nullptr;

      CompileReport New =
          compileProgramAdaptive(P, M, Policy, NewFilter, Hot);

      // The pre-runtime implementation, verbatim.
      std::vector<std::pair<double, size_t>> Ranked;
      for (size_t MI = 0; MI != P.size(); ++MI) {
        double Weight = 0.0;
        for (const BasicBlock &BB : P[MI])
          Weight += static_cast<double>(BB.getExecCount());
        Ranked.push_back({Weight, MI});
      }
      std::sort(Ranked.begin(), Ranked.end(),
                [](const auto &A, const auto &B) {
                  if (A.first != B.first)
                    return A.first > B.first;
                  return A.second < B.second;
                });
      size_t NumHot = static_cast<size_t>(
          Hot * static_cast<double>(P.size()) + 0.5);
      std::vector<bool> IsHot(P.size(), false);
      for (size_t I = 0; I != NumHot && I != Ranked.size(); ++I)
        IsHot[Ranked[I].second] = true;
      Program HotProg("hot"), ColdProg("cold");
      for (size_t MI = 0; MI != P.size(); ++MI)
        (IsHot[MI] ? HotProg : ColdProg).addMethod(P[MI]);
      CompileReport HotReport =
          compileProgram(HotProg, M, Policy, OldFilter);
      CompileReport ColdReport =
          compileProgram(ColdProg, M, SchedulingPolicy::Never, nullptr);

      EXPECT_EQ(New.NumBlocks, HotReport.NumBlocks + ColdReport.NumBlocks);
      EXPECT_EQ(New.NumScheduled, HotReport.NumScheduled);
      EXPECT_EQ(New.SchedulingWork, HotReport.SchedulingWork);
      EXPECT_EQ(New.FilterWork, HotReport.FilterWork);
      // Exact double equality: the fold order/grouping must match, not
      // merely the value to within rounding.
      EXPECT_EQ(New.SimulatedTime,
                HotReport.SimulatedTime + ColdReport.SimulatedTime);
    }
  }
}

TEST(Ppc970, WiderAndDeeperThan7410) {
  MachineModel G4 = MachineModel::ppc7410();
  MachineModel G5 = MachineModel::ppc970();
  EXPECT_GT(G5.getMaxIssueNonBranch(), G4.getMaxIssueNonBranch());
  EXPECT_GT(G5.getNumUnits(), G4.getNumUnits());
  EXPECT_GT(G5.getLatency(Opcode::FAdd), G4.getLatency(Opcode::FAdd));
  EXPECT_GT(G5.getLatency(Opcode::LoadFloat),
            G4.getLatency(Opcode::LoadFloat));
  EXPECT_EQ(G5.unitsFor(FuClass::Float).size(), 2u);
  EXPECT_EQ(G5.unitsFor(FuClass::LoadStore).size(), 2u);
}

TEST(Ppc970, SchedulingStillLegalAndUseful) {
  MachineModel G5 = MachineModel::ppc970();
  ListScheduler S(G5);
  BlockSimulator Sim(G5);
  BasicBlock BB = makeIlpFloatBlock();
  ScheduleResult SR = S.schedule(BB);
  EXPECT_LE(Sim.simulate(BB, SR.Order), Sim.simulate(BB));
}
