//===- tests/runtime_test.cpp - Serving engine / queue / determinism --------===//
//
// The runtime subsystem's contracts: the bounded recompilation queue is
// FIFO with load-shedding backpressure; the service's virtual clock,
// sampling and promotion dynamics are pure functions of (programs,
// config, rules), whether it serves one app or an interleaved mix; and
// every ServiceStats field -- doubles included -- is bit-identical at any
// TaskPool job count.
//
//===----------------------------------------------------------------------===//

#include "io/TraceStore.h"
#include "noise/NoiseStack.h"
#include "runtime/MultiAppService.h"
#include "runtime/RecompileQueue.h"
#include "target/MachineModel.h"
#include "workloads/ProgramGenerator.h"

#include "RuleSetIdentity.h"
#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <functional>

using namespace schedfilter;
using namespace schedfilter::test;

namespace {

Program testProgram(int NumMethods = 16) {
  BenchmarkSpec S = *findBenchmarkSpec("mpegaudio");
  S.NumMethods = NumMethods;
  return ProgramGenerator(S).generate();
}

/// A hand-built filter (schedule blocks of >= 7 instructions), so the
/// tests exercise the service without paying for rule induction.
RuleSet testRules() {
  RuleSet RS(Label::NS);
  Rule R;
  R.Conclusion = Label::LS;
  R.Conditions.push_back({FeatBBLen, false, 7.0});
  RS.addRule(std::move(R));
  return RS;
}

/// A quick config: enough stream for several epochs of promotions.
ServiceConfig testConfig() {
  ServiceConfig Cfg;
  Cfg.Invocations = 20000;
  Cfg.EpochLen = 256;
  Cfg.SampleEvery = 4;
  Cfg.HotThreshold = 4;
  Cfg.QueueCap = 8;
  Cfg.DrainPerEpoch = 2;
  Cfg.StreamSeed = invocationStreamSeed(42);
  return Cfg;
}

} // namespace

//===----------------------------------------------------------------------===//
// RecompileQueue
//===----------------------------------------------------------------------===//

TEST(RecompileQueue, FifoOrder) {
  RecompileQueue Q(4);
  EXPECT_TRUE(Q.empty());
  for (uint32_t I = 0; I != 4; ++I)
    EXPECT_TRUE(Q.push(10 + I));
  uint32_t M = 0;
  for (uint32_t I = 0; I != 4; ++I) {
    ASSERT_TRUE(Q.pop(M));
    EXPECT_EQ(M, 10 + I);
  }
  EXPECT_FALSE(Q.pop(M));
}

TEST(RecompileQueue, BackpressureWhenFull) {
  RecompileQueue Q(2);
  EXPECT_TRUE(Q.push(1));
  EXPECT_TRUE(Q.push(2));
  EXPECT_TRUE(Q.full());
  // A full queue sheds the request and keeps its contents intact.
  EXPECT_FALSE(Q.push(3));
  EXPECT_EQ(Q.size(), 2u);
  uint32_t M = 0;
  ASSERT_TRUE(Q.pop(M));
  EXPECT_EQ(M, 1u);
  // Room again: push succeeds and FIFO order continues.
  EXPECT_TRUE(Q.push(4));
  ASSERT_TRUE(Q.pop(M));
  EXPECT_EQ(M, 2u);
  ASSERT_TRUE(Q.pop(M));
  EXPECT_EQ(M, 4u);
}

TEST(RecompileQueue, WrapsAroundRing) {
  RecompileQueue Q(3);
  uint32_t M = 0;
  for (uint32_t Round = 0; Round != 10; ++Round) {
    EXPECT_TRUE(Q.push(Round));
    ASSERT_TRUE(Q.pop(M));
    EXPECT_EQ(M, Round);
  }
  EXPECT_TRUE(Q.empty());
}

//===----------------------------------------------------------------------===//
// Single-app serving (a one-app MultiAppService)
//===----------------------------------------------------------------------===//

TEST(SingleAppService, RunIsDeterministic) {
  Program P = testProgram();
  MachineModel M = MachineModel::ppc7410();
  RuleSet RS = testRules();
  TaskPool Pool(1);
  EXPECT_TRUE(serveOneApp(P, M, testConfig(), &RS, Pool) ==
              serveOneApp(P, M, testConfig(), &RS, Pool));
}

TEST(SingleAppService, BitIdenticalAtAnyJobCount) {
  // The acceptance guarantee: every ServiceStats field -- the AppTime and
  // MeanQueueDepth doubles included -- is identical at jobs=1 and jobs=4.
  Program P = testProgram();
  MachineModel M = MachineModel::ppc7410();
  RuleSet RS = testRules();
  TaskPool Serial(1), Wide(4);
  ServiceStats S1 = serveOneApp(P, M, testConfig(), &RS, Serial).Total;
  ServiceStats S4 = serveOneApp(P, M, testConfig(), &RS, Wide).Total;
  EXPECT_TRUE(S1 == S4);
  // And the run did real tiered work, so the comparison is not vacuous.
  EXPECT_GT(S1.Promotions, 0u);
  EXPECT_GT(S1.CompiledMethods, 0u);
  EXPECT_GT(S1.OptimizedInvocations, 0u);
  EXPECT_GT(S1.SchedulingWork, 0u);
}

TEST(SingleAppService, AccountingInvariantsHold) {
  Program P = testProgram();
  MachineModel M = MachineModel::ppc7410();
  RuleSet RS = testRules();
  TaskPool Pool(2);
  ServiceConfig Cfg = testConfig();
  MultiAppStats Run = serveOneApp(P, M, Cfg, &RS, Pool);
  const ServiceStats &St = Run.Total;

  EXPECT_EQ(checkServiceStats(Run), std::nullopt);
  EXPECT_EQ(St.Invocations, Cfg.Invocations);
  EXPECT_EQ(St.MethodsTotal, P.size());
  EXPECT_EQ(St.CompiledMethods, St.MethodsOptimized);
  // Every optimizing-tier block got exactly one online filter decision.
  EXPECT_EQ(St.FilterLS + St.FilterNS, St.BlocksCompiled);
  EXPECT_EQ(St.FilterLS, St.BlocksScheduled);
  // The filter's evaluation cost is charged to scheduling work.
  EXPECT_GE(St.SchedulingWork, St.FilterWork);
  // Optimization never makes the served stream slower than baseline.
  EXPECT_LE(St.AppTime, St.BaselineAppTime);
}

TEST(SingleAppService, TinyQueueShedsLoadButCatchesUp) {
  Program P = testProgram();
  MachineModel M = MachineModel::ppc7410();
  RuleSet RS = testRules();
  TaskPool Pool(1);
  ServiceConfig Cfg = testConfig();
  Cfg.QueueCap = 1;
  Cfg.DrainPerEpoch = 1;
  ServiceStats St = serveOneApp(P, M, Cfg, &RS, Pool).Total;
  // With a one-slot queue the sampler nominates faster than the drain
  // retires: backpressure must shed load...
  EXPECT_GT(St.Deferred, 0u);
  // ...yet shed methods stay hot and re-nominate, so the service still
  // promotes a healthy set by stream end.
  EXPECT_GT(St.MethodsOptimized, 3u);
  EXPECT_LE(St.MaxQueueDepth, 1u);
}

TEST(SingleAppService, HotterThresholdPromotesFewerMethods) {
  Program P = testProgram();
  MachineModel M = MachineModel::ppc7410();
  RuleSet RS = testRules();
  TaskPool Pool(1);
  ServiceConfig Cold = testConfig();
  Cold.HotThreshold = 64;
  ServiceConfig Hot = testConfig();
  Hot.HotThreshold = 2;
  ServiceStats StCold = serveOneApp(P, M, Cold, &RS, Pool).Total;
  ServiceStats StHot = serveOneApp(P, M, Hot, &RS, Pool).Total;
  EXPECT_LT(StCold.Promotions, StHot.Promotions);
  EXPECT_LT(StCold.OptimizedInvocations, StHot.OptimizedInvocations);
}

TEST(SingleAppService, UnreachableThresholdKeepsEverythingBaseline) {
  Program P = testProgram();
  MachineModel M = MachineModel::ppc7410();
  TaskPool Pool(1);
  ServiceConfig Cfg = testConfig();
  Cfg.HotThreshold = 1000000; // more samples than the stream contains
  Cfg.OptimizingPolicy = SchedulingPolicy::Always;
  ServiceStats St = serveOneApp(P, M, Cfg, nullptr, Pool).Total;
  EXPECT_EQ(St.Promotions, 0u);
  EXPECT_EQ(St.MethodsOptimized, 0u);
  EXPECT_EQ(St.OptimizedInvocations, 0u);
  EXPECT_EQ(St.SchedulingWork, 0u);
  EXPECT_EQ(St.AppTime, St.BaselineAppTime);
}

TEST(SingleAppService, VirtualClockDelaysInstalls) {
  // A method is never optimized in the epoch that nominates it, so some
  // invocations always execute at baseline first -- even when every
  // method eventually promotes.
  Program P = testProgram(4);
  MachineModel M = MachineModel::ppc7410();
  TaskPool Pool(1);
  ServiceConfig Cfg = testConfig();
  Cfg.HotThreshold = 1;
  Cfg.OptimizingPolicy = SchedulingPolicy::Always;
  ServiceStats St = serveOneApp(P, M, Cfg, nullptr, Pool).Total;
  // (Not necessarily every method: a sufficiently cold one may never be
  // drawn at a sampled tick -- sampling is the paper's point.)
  EXPECT_GE(St.MethodsOptimized, P.size() - 1);
  EXPECT_GT(St.BaselineInvocations, 0u);
}

TEST(SingleAppService, ServeComparisonRecoupsWork) {
  Program P = testProgram();
  MachineModel M = MachineModel::ppc7410();
  RuleSet RS = testRules();
  TaskPool Pool(2);
  MultiAppComparison Cmp = compareOneApp(P, M, testConfig(), RS, Pool);
  // Identical promotion dynamics by construction...
  EXPECT_EQ(Cmp.Always.Total.Promotions, Cmp.Filtered.Total.Promotions);
  EXPECT_EQ(Cmp.Always.Total.CompiledMethods,
            Cmp.Filtered.Total.CompiledMethods);
  EXPECT_EQ(Cmp.Always.Total.BaselineAppTime,
            Cmp.Filtered.Total.BaselineAppTime);
  // ...so the work delta is the filter's recouped scheduling time.
  EXPECT_LT(Cmp.Filtered.Total.SchedulingWork,
            Cmp.Always.Total.SchedulingWork);
  EXPECT_GT(Cmp.RecoupedWorkFraction, 0.0);
  EXPECT_LT(Cmp.RecoupedWorkFraction, 1.0);
}

TEST(SingleAppService, LoneAppIsTheWholeService) {
  // With one app the per-app breakdown and the aggregate fold the same
  // ticks in the same order: every per-app field equals the total, the
  // AppTime doubles bit for bit.  The lone app owns every tick without an
  // interleave draw, so its weight cannot change anything.
  Program P = testProgram();
  MachineModel M = MachineModel::ppc7410();
  RuleSet RS = testRules();
  TaskPool Pool(2);
  MultiAppStats St = serveOneApp(P, M, testConfig(), &RS, Pool);
  ASSERT_EQ(St.PerApp.size(), 1u);
  const ServiceStats &App = St.PerApp[0];
  const ServiceStats &Total = St.Total;
  EXPECT_EQ(App.Invocations, Total.Invocations);
  EXPECT_EQ(App.BaselineInvocations, Total.BaselineInvocations);
  EXPECT_EQ(App.OptimizedInvocations, Total.OptimizedInvocations);
  EXPECT_EQ(App.Promotions, Total.Promotions);
  EXPECT_EQ(App.Deferred, Total.Deferred);
  EXPECT_EQ(App.CompiledMethods, Total.CompiledMethods);
  EXPECT_EQ(App.MethodsOptimized, Total.MethodsOptimized);
  EXPECT_EQ(App.MethodsTotal, Total.MethodsTotal);
  EXPECT_EQ(App.BlocksCompiled, Total.BlocksCompiled);
  EXPECT_EQ(App.BlocksScheduled, Total.BlocksScheduled);
  EXPECT_EQ(App.SchedulingWork, Total.SchedulingWork);
  EXPECT_EQ(App.FilterWork, Total.FilterWork);
  EXPECT_EQ(App.FilterLS, Total.FilterLS);
  EXPECT_EQ(App.FilterNS, Total.FilterNS);
  EXPECT_TRUE(sameBits(App.AppTime, Total.AppTime));
  EXPECT_TRUE(sameBits(App.BaselineAppTime, Total.BaselineAppTime));
  EXPECT_GT(Total.CompiledMethods, 0u); // non-vacuous

  EXPECT_TRUE(serveOneApp(P, M, testConfig(), &RS, Pool, 7.5) == St);
}

//===----------------------------------------------------------------------===//
// MultiAppService (interleaved multi-app streams)
//===----------------------------------------------------------------------===//

namespace {

/// A two-family mix with uneven weights: enough apps to make the
/// interleave non-trivial, cheap enough for a unit test.
std::vector<AppSpec> testMix() {
  return expandWorkloadMix({{"serverloop", 3.0}, {"ptrchase", 1.0}});
}

} // namespace

TEST(MultiAppService, ExpandSplitsFamilyWeightAcrossApps) {
  std::vector<AppSpec> Apps = testMix();
  ASSERT_EQ(Apps.size(), 6u); // three serverloop + three ptrchase apps
  for (const AppSpec &A : Apps.front().Spec.Family == "serverloop"
           ? std::vector<AppSpec>(Apps.begin(), Apps.begin() + 3)
           : std::vector<AppSpec>())
    EXPECT_DOUBLE_EQ(A.Weight, 1.0); // 3.0 over three benchmarks
  EXPECT_EQ(Apps[0].Spec.Family, "serverloop");
  EXPECT_EQ(Apps[3].Spec.Family, "ptrchase");
  EXPECT_DOUBLE_EQ(Apps[3].Weight, 1.0 / 3.0);
}

TEST(MultiAppService, MixSeedCoversEveryAppIdentity) {
  std::vector<AppSpec> Apps = testMix();
  uint64_t Seed = workloadMixSeed(Apps);
  // Reweighting, renaming, or reseeding any app is a different session.
  std::vector<AppSpec> Reweighted = Apps;
  Reweighted[0].Weight *= 2.0;
  EXPECT_NE(workloadMixSeed(Reweighted), Seed);
  std::vector<AppSpec> Reseeded = Apps;
  Reseeded[1].Spec.Seed ^= 1;
  EXPECT_NE(workloadMixSeed(Reseeded), Seed);
  // And it is a pure function of the identities.
  EXPECT_EQ(workloadMixSeed(testMix()), Seed);
}

TEST(MultiAppService, MixedStreamBitIdenticalAtAnyJobCount) {
  // The acceptance guarantee for the interleaved regime: every field of
  // every per-app ServiceStats -- doubles included -- identical at
  // jobs=1 and jobs=4.
  std::vector<AppSpec> Apps = testMix();
  std::vector<Program> Programs = generateMixPrograms(Apps);
  MachineModel M = MachineModel::ppc7410();
  RuleSet RS = testRules();
  ServiceConfig Cfg = testConfig();
  Cfg.StreamSeed = workloadMixSeed(Apps);
  TaskPool Serial(1), Wide(4);
  MultiAppStats S1 = MultiAppService(Apps, Programs, M, Cfg, &RS, Serial).run();
  MultiAppStats S4 = MultiAppService(Apps, Programs, M, Cfg, &RS, Wide).run();
  EXPECT_TRUE(S1 == S4);
  // Non-vacuous: the mixed stream promoted and optimized for real.
  EXPECT_GT(S1.Total.Promotions, 0u);
  EXPECT_GT(S1.Total.SchedulingWork, 0u);
  ASSERT_EQ(S1.PerApp.size(), Apps.size());
}

TEST(MultiAppService, AggregateIsSumOfPerAppIntegerFields) {
  // The double AppTime folds in global tick order, so only the integer
  // fields are promised to sum exactly (see MultiAppStats doc).
  std::vector<AppSpec> Apps = testMix();
  std::vector<Program> Programs = generateMixPrograms(Apps);
  MachineModel M = MachineModel::ppc7410();
  RuleSet RS = testRules();
  ServiceConfig Cfg = testConfig();
  Cfg.StreamSeed = workloadMixSeed(Apps);
  TaskPool Pool(2);
  MultiAppStats St = MultiAppService(Apps, Programs, M, Cfg, &RS, Pool).run();

  EXPECT_EQ(checkServiceStats(St), std::nullopt);
  // Queue/epoch fields describe the shared service and stay aggregate-only.
  for (const ServiceStats &App : St.PerApp) {
    EXPECT_EQ(App.Epochs, 0u);
    EXPECT_EQ(App.MaxQueueDepth, 0u);
    EXPECT_EQ(App.FinalQueueDepth, 0u);
  }
}

TEST(MultiAppService, AccountingCheckNamesTheBrokenIdentity) {
  std::vector<AppSpec> Apps = testMix();
  std::vector<Program> Programs = generateMixPrograms(Apps);
  MachineModel M = MachineModel::ppc7410();
  RuleSet RS = testRules();
  ServiceConfig Cfg = testConfig();
  Cfg.StreamSeed = workloadMixSeed(Apps);
  TaskPool Pool(1);
  const MultiAppStats Good =
      MultiAppService(Apps, Programs, M, Cfg, &RS, Pool).run();
  ASSERT_EQ(checkServiceStats(Good), std::nullopt);
  ASSERT_GE(Good.Total.Compiles.size(), 2u);

  auto Broken = [&](const std::function<void(MultiAppStats &)> &Break) {
    MultiAppStats St = Good;
    Break(St);
    return checkServiceStats(St).value_or("");
  };
  EXPECT_EQ(Broken([](MultiAppStats &St) { ++St.Total.Invocations; }),
            "Baseline + Optimized == Invocations");
  EXPECT_EQ(Broken([](MultiAppStats &St) { ++St.PerApp[1].Invocations; }),
            "Baseline + Optimized == Invocations (app 1)");
  EXPECT_EQ(Broken([](MultiAppStats &St) { ++St.Total.FinalQueueDepth; }),
            "Promotions == CompiledMethods + FinalQueueDepth");
  EXPECT_EQ(Broken([](MultiAppStats &St) { St.Total.Compiles.pop_back(); }),
            "Compiles.size() == CompiledMethods");
  EXPECT_EQ(Broken([](MultiAppStats &St) { ++St.PerApp[0].FilterWork; }),
            "per-app integer fields sum to Total");
  EXPECT_EQ(Broken([](MultiAppStats &St) {
              St.Total.Compiles.front().FilterVersion = 2;
            }),
            "compile-pin versions never decrease");
}

TEST(MultiAppService, EmptyProgramTicksAdvanceTheSampler) {
  // An app with no methods owns ticks that elapse without an invocation
  // or a method draw -- but they still count toward the sampling stride,
  // so which ticks are sampled never depends on who owns them.  Pinned at
  // values taken from the modulo sampler (tick % SampleEvery == 0).
  std::vector<AppSpec> Apps = testMix();
  std::vector<Program> Programs = generateMixPrograms(Apps);
  AppSpec Empty;
  Empty.Spec.Name = "empty";
  Empty.Weight = 2.0;
  Apps.insert(Apps.begin() + 2, Empty);
  Programs.insert(Programs.begin() + 2, Program("empty"));
  MachineModel M = MachineModel::ppc7410();
  RuleSet RS = testRules();
  ServiceConfig Cfg = testConfig();
  Cfg.SampleEvery = 3;
  Cfg.StreamSeed = workloadMixSeed(Apps);
  TaskPool Pool(2);
  MultiAppStats St = MultiAppService(Apps, Programs, M, Cfg, &RS, Pool).run();

  EXPECT_EQ(St.PerApp[2].Invocations, 0u);
  EXPECT_EQ(St.Total.Invocations, 20000u);
  EXPECT_EQ(St.Total.BaselineInvocations + St.Total.OptimizedInvocations,
            13352u);
  EXPECT_EQ(St.Total.SampledInvocations, 4427u);
  EXPECT_EQ(St.Total.Promotions, 154u);
  EXPECT_TRUE(sameBits(St.Total.AppTime, 0x1.57a20a5f30000p+37));
  EXPECT_TRUE(sameBits(St.Total.BaselineAppTime, 0x1.59d40c2120000p+37));
  // The accounting check allows exactly those idle ticks.
  EXPECT_EQ(checkServiceStats(St), std::nullopt);
}

TEST(MultiAppService, ComparisonSharesPromotionDynamics) {
  std::vector<AppSpec> Apps = testMix();
  std::vector<Program> Programs = generateMixPrograms(Apps);
  MachineModel M = MachineModel::ppc7410();
  RuleSet RS = testRules();
  ServiceConfig Cfg = testConfig();
  Cfg.StreamSeed = workloadMixSeed(Apps);
  TaskPool Pool(2);
  MultiAppComparison Cmp =
      runMultiAppComparison(Apps, Programs, M, Cfg, RS, Pool);
  // Identical promotion dynamics between the two optimizing tiers, per
  // app and in aggregate...
  EXPECT_EQ(Cmp.Always.Total.Promotions, Cmp.Filtered.Total.Promotions);
  EXPECT_EQ(Cmp.Always.Total.BaselineAppTime,
            Cmp.Filtered.Total.BaselineAppTime);
  ASSERT_EQ(Cmp.PerAppRecoup.size(), Apps.size());
  for (size_t A = 0; A != Apps.size(); ++A) {
    EXPECT_EQ(Cmp.Always.PerApp[A].Invocations,
              Cmp.Filtered.PerApp[A].Invocations);
    EXPECT_EQ(Cmp.Always.PerApp[A].CompiledMethods,
              Cmp.Filtered.PerApp[A].CompiledMethods);
  }
  // ...so the work delta is the filter's doing.
  EXPECT_LT(Cmp.Filtered.Total.SchedulingWork,
            Cmp.Always.Total.SchedulingWork);
  EXPECT_GT(Cmp.RecoupedWorkFraction, 0.0);
  EXPECT_LT(Cmp.RecoupedWorkFraction, 1.0);
}

namespace {

/// FNV-1a over every deterministic field of \p St -- each integer
/// counter and the AppTime/BaselineAppTime bits of Total and of every
/// app, plus the aggregate's compile pins -- in one fixed order.
uint64_t statsDigest(const MultiAppStats &St) {
  std::string B;
  auto Put = [&B](const ServiceStats &S) {
    for (uint64_t V :
         {S.Invocations, S.Epochs, S.SampledInvocations, S.Promotions,
          S.Deferred, S.CompiledMethods, S.MethodsOptimized, S.MethodsTotal,
          S.MaxQueueDepth, S.FinalQueueDepth, S.BaselineInvocations,
          S.OptimizedInvocations, S.SchedulingWork, S.FilterWork,
          S.BlocksCompiled, S.BlocksScheduled, S.FilterLS, S.FilterNS,
          S.Retrains, S.CorpusRecords, uint64_t(S.FinalFilterVersion)})
      wire::putU64(B, V);
    wire::putF64(B, S.AppTime);
    wire::putF64(B, S.BaselineAppTime);
    wire::putF64(B, S.MeanQueueDepth);
    for (const ServiceStats::CompilePinStat &C : S.Compiles) {
      wire::putU64(B, C.Epoch);
      wire::putU64(B, C.Method);
      wire::putU64(B, C.SchedulingWork);
    }
  };
  Put(St.Total);
  for (const ServiceStats &App : St.PerApp)
    Put(App);
  return wire::fnv1a(B.data(), B.size());
}

} // namespace

TEST(MultiAppService, StreamPinnedAcrossDrawChunks) {
  // The dispatch loop draws and charges in chunks of DrawChunk ticks that
  // never cross an epoch boundary.  Epoch lengths below, at and above the
  // chunk size, a stream ending mid-epoch, an idle (empty-program) app, a
  // lone app and a drifting mix must all replay a tick-at-a-time loop bit
  // for bit.  Every value was taken from such a loop.
  std::vector<AppSpec> Mix = testMix();
  std::vector<Program> MixPrograms = generateMixPrograms(Mix);
  std::vector<AppSpec> WithEmpty = Mix;
  std::vector<Program> WithEmptyPrograms = MixPrograms;
  AppSpec Empty;
  Empty.Spec.Name = "empty";
  Empty.Weight = 2.0;
  WithEmpty.insert(WithEmpty.begin() + 2, Empty);
  WithEmptyPrograms.insert(WithEmptyPrograms.begin() + 2, Program("empty"));
  std::vector<AppSpec> Lone(1);
  Lone[0].Spec.Name = "mpegaudio";
  std::vector<Program> LonePrograms{testProgram()};
  ParseResult<NoiseStack> Drift = parseNoiseStack("drift:1", 13);
  ASSERT_TRUE(Drift.has_value());

  struct Case {
    const char *Name;
    const std::vector<AppSpec> &Apps;
    const std::vector<Program> &Programs;
    uint32_t EpochLen;
    bool Drifts;
    double AppTime, BaselineAppTime;
    uint64_t Digest;
  };
  const Case Cases[] = {
      {"epoch-1", Mix, MixPrograms, 1, false, 0x1.36488e8a28p+37,
       0x1.3b5e59acap+37, 0x30c3c5655bd857deULL},
      {"epoch-1000", Mix, MixPrograms, 1000, false, 0x1.3af7708478p+37,
       0x1.3b5e59acap+37, 0x13bbaa5bfff977caULL},
      {"epoch-1024", Mix, MixPrograms, 1024, false, 0x1.3b29772ba8p+37,
       0x1.3b5e59acap+37, 0xc63d14fc98e0fb41ULL},
      {"epoch-1500", Mix, MixPrograms, 1500, false, 0x1.3b456d352p+37,
       0x1.3b5e59acap+37, 0x7b8159e4d7bbd6ffULL},
      {"epoch-5000", Mix, MixPrograms, 5000, false, 0x1.3b5ba963bp+37,
       0x1.3b5e59acap+37, 0xdb32cb705a6ad76aULL},
      {"empty-app", WithEmpty, WithEmptyPrograms, 1500, false,
       0x1.af550a0fcp+36, 0x1.afeba613cp+36, 0xadc460b0ada6f1f4ULL},
      {"lone-app", Lone, LonePrograms, 1500, false, 0x1.dc2df4633p+36,
       0x1.123cbd7b78p+37, 0xb3dc99a993481bc0ULL},
      {"drift", Mix, MixPrograms, 1500, true, 0x1.2d18bc1458p+37,
       0x1.2d41b339a8p+37, 0x3cae4fd913036125ULL},
  };

  MachineModel M = MachineModel::ppc7410();
  RuleSet RS = testRules();
  TaskPool Pool(2);
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    ServiceConfig Cfg = testConfig();
    Cfg.Invocations = 12347; // a multiple of no epoch length above
    Cfg.SampleEvery = 3;     // nor a divisor of DrawChunk
    Cfg.EpochLen = C.EpochLen;
    Cfg.StreamSeed = C.Apps.size() == 1 ? invocationStreamSeed(42)
                                        : workloadMixSeed(C.Apps);
    MultiAppService Svc(C.Apps, C.Programs, M, Cfg, &RS, Pool);
    if (C.Drifts)
      Svc.setMixDrift(Drift->mixDrift());
    MultiAppStats St = Svc.run();

    ASSERT_EQ(checkServiceStats(St), std::nullopt);
    EXPECT_GT(St.Total.CompiledMethods, 0u);
    EXPECT_TRUE(sameBits(St.Total.AppTime, C.AppTime))
        << std::hexfloat << St.Total.AppTime;
    EXPECT_TRUE(sameBits(St.Total.BaselineAppTime, C.BaselineAppTime))
        << std::hexfloat << St.Total.BaselineAppTime;
    EXPECT_EQ(statsDigest(St), C.Digest)
        << std::hex << "0x" << statsDigest(St);
  }
}

TEST(SingleAppService, StreamSeedIsPartOfWorkloadIdentity) {
  Program P = testProgram();
  MachineModel M = MachineModel::ppc7410();
  RuleSet RS = testRules();
  TaskPool Pool(1);
  ServiceConfig A = testConfig();
  ServiceConfig B = testConfig();
  B.StreamSeed = invocationStreamSeed(43);
  ServiceStats StA = serveOneApp(P, M, A, &RS, Pool).Total;
  ServiceStats StB = serveOneApp(P, M, B, &RS, Pool).Total;
  // Different workload seed, different stream (app time is a sum over
  // 20k weighted draws; collision would be astronomically unlikely).
  EXPECT_NE(StA.AppTime, StB.AppTime);
}
