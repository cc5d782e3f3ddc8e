//===- tests/models_test.cpp - cross-model invariants (TEST_P sweeps) ----------===//
//
// Invariants that must hold on *every* machine model: scheduler legality,
// simulator sanity, and the end-to-end relationship NS >= L/N >= ~LS on
// simulated time.  Parameterized over the three models x several seeds,
// plus two fixed checks that ppc970 is wider and deeper than ppc7410 and
// that scheduling on it stays legal and useful.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "ml/Serialization.h"
#include "runtime/MethodCompiler.h"
#include "sched/ScheduleVerifier.h"
#include "workloads/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace schedfilter;
using namespace schedfilter::test;

namespace {

MachineModel makeModel(const std::string &Name) {
  std::optional<MachineModel> M = MachineModel::byName(Name);
  // value() throws (and fails the test cleanly) on an unknown name.
  return std::move(M).value();
}

} // namespace

class ModelInvariants
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(ModelInvariants, SchedulerLegalOnThisModel) {
  MachineModel M = makeModel(std::get<0>(GetParam()));
  ListScheduler S(M);
  SchedContext Ctx;
  std::vector<int> Order;
  const BenchmarkSpec *Spec = findBenchmarkSpec("raytrace");
  Rng R(std::get<1>(GetParam()));
  for (int Trial = 0; Trial != 15; ++Trial) {
    BasicBlock BB = ProgramGenerator(*Spec).generateBlock(
        R, R.range(0, 7), /*EndWithTerminator=*/true);
    S.schedule(BB, Ctx, Order);
    ScheduleVerifyResult V = verifySchedule(Ctx.dag(), Order);
    EXPECT_TRUE(V.Ok) << M.getName() << ": " << V.Message;
  }
}

TEST_P(ModelInvariants, SimulatorBoundsHold) {
  MachineModel M = makeModel(std::get<0>(GetParam()));
  BlockSimulator Sim(M);
  SchedContext Ctx;
  const BenchmarkSpec *Spec = findBenchmarkSpec("power");
  Rng R(std::get<1>(GetParam()) * 7 + 3);
  for (int Trial = 0; Trial != 15; ++Trial) {
    BasicBlock BB = ProgramGenerator(*Spec).generateBlock(
        R, R.range(1, 6), /*EndWithTerminator=*/true);
    uint64_t Cycles = Sim.simulate(BB, Ctx);
    // Lower bound: the longest single instruction latency and the issue
    // width.  Upper bound: fully serial execution.
    uint64_t MaxLat = 0, SumLat = 0;
    for (const Instruction &I : BB) {
      MaxLat = std::max<uint64_t>(MaxLat, M.getLatency(I.getOpcode()));
      SumLat += M.getLatency(I.getOpcode());
    }
    EXPECT_GE(Cycles, MaxLat);
    EXPECT_LE(Cycles, SumLat + BB.size());
  }
}

TEST_P(ModelInvariants, SchedulingHelpsOnNetAcrossAProgram) {
  MachineModel M = makeModel(std::get<0>(GetParam()));
  BenchmarkSpec Spec = *findBenchmarkSpec("scimark");
  Spec.NumMethods = 8;
  Spec.Seed ^= std::get<1>(GetParam());
  Program P = ProgramGenerator(Spec).generate();
  CompileReport NS = compileProgram(P, M, SchedulingPolicy::Never);
  CompileReport LS = compileProgram(P, M, SchedulingPolicy::Always);
  EXPECT_LT(LS.SimulatedTime, NS.SimulatedTime) << M.getName();
}

TEST_P(ModelInvariants, FilteredBetweenPolicies) {
  MachineModel M = makeModel(std::get<0>(GetParam()));
  BenchmarkSpec Spec = *findBenchmarkSpec("mpegaudio");
  Spec.NumMethods = 8;
  Program P = ProgramGenerator(Spec).generate();

  RuleSet RS(Label::NS);
  Rule R;
  R.Conclusion = Label::LS;
  R.Conditions.push_back({FeatBBLen, false, 7.0});
  RS.addRule(std::move(R));
  ScheduleFilter F(RS);

  CompileReport NS = compileProgram(P, M, SchedulingPolicy::Never);
  CompileReport LS = compileProgram(P, M, SchedulingPolicy::Always);
  CompileReport LN = compileProgram(P, M, SchedulingPolicy::Filtered, &F);
  EXPECT_LE(LN.SimulatedTime, NS.SimulatedTime);
  EXPECT_GE(LN.SimulatedTime, LS.SimulatedTime * 0.999);
  EXPECT_LT(LN.SchedulingWork, LS.SchedulingWork);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelInvariants,
    ::testing::Combine(::testing::Values("ppc7410", "ppc970",
                                         "simple-scalar"),
                       ::testing::Values(5u, 55u)));

// Serialization fuzzing: random rule sets always round-trip.
class SerializationProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializationProperty, RandomRuleSetsRoundTrip) {
  Rng R(GetParam());
  RuleSet RS(R.chance(0.5) ? Label::LS : Label::NS);
  int NumRules = R.range(0, 8);
  for (int I = 0; I != NumRules; ++I) {
    Rule Rl;
    Rl.Conclusion = R.chance(0.7) ? Label::LS : Label::NS;
    int NumConds = R.range(0, 6);
    for (int C = 0; C != NumConds; ++C)
      Rl.Conditions.push_back({static_cast<unsigned>(R.below(NumFeatures)),
                               R.chance(0.5), R.uniform(0.0, 40.0)});
    RS.addRule(std::move(Rl));
  }

  std::stringstream SS;
  writeRuleSet(RS, SS);
  ParseResult<RuleSet> Back = readRuleSet(SS);
  ASSERT_TRUE(Back.has_value());
  // Predictions must agree on random feature vectors.
  for (int I = 0; I != 100; ++I) {
    FeatureVector X{};
    for (unsigned F = 0; F != NumFeatures; ++F)
      X[F] = R.uniform(0.0, 40.0);
    EXPECT_EQ(RS.predict(X), Back->predict(X));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

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
  BlockSimulator Sim(G5);
  SchedContext Ctx;
  BasicBlock BB = makeIlpFloatBlock();
  std::vector<int> Order = scheduleBlock(BB, G5);
  EXPECT_LE(Sim.simulate(BB, Order, Ctx), Sim.simulate(BB, Ctx));
}
