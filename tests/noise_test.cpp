//===- tests/noise_test.cpp - noise/ unit + determinism + golden tests ------===//
//
// The noise layer's contract, pinned: every source is a pure function of
// (stack seed, source index, run index, record index), so any stack is
// bit-reproducible at any job count; composition order is semantic; the
// empty stack is the identity; and each source's distribution matches
// its documented shape at a fixed seed.  The Golden tests pin the
// robustness frontier's headline on the full SPECjvm98 stand-in suite --
// a rung where the induced filter still beats always-schedule and a rung
// where it loses.
//
//===----------------------------------------------------------------------===//

#include "noise/Robustness.h"

#include "RuleSetIdentity.h"
#include "TestHelpers.h"
#include "ml/Ripper.h"
#include "runtime/MethodCompiler.h"
#include "support/Statistics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>

using namespace schedfilter;

namespace {

/// The tools' default --noise-seed (tools/NoiseOption.h): the paper's
/// conference date.  Golden pins below must match bench_robustness run
/// with no flags, so the seed is repeated here literally.
constexpr uint64_t GoldenSeed = 20040609;

BlockRecord record(uint64_t CostNo, uint64_t CostSched,
                   uint64_t ExecCount = 1) {
  BlockRecord R;
  R.CostNoSched = CostNo;
  R.CostSched = CostSched;
  R.ExecCount = ExecCount;
  return R;
}

/// A synthetic run of \p N records with varied positive costs (plus one
/// zero-cost record) -- enough structure for perturbation tests without
/// generating programs.
BenchmarkRun syntheticRun(const std::string &Name, size_t N) {
  BenchmarkRun Run;
  Run.Name = Name;
  Run.ModelName = "ppc7410";
  for (size_t I = 0; I != N; ++I)
    Run.Records.push_back(
        record(100 + 13 * (I % 7), 60 + 11 * (I % 9), 1 + I % 5));
  Run.Records.push_back(record(0, 0));
  return Run;
}

std::vector<BenchmarkRun> syntheticSuite(size_t Runs, size_t RecordsPerRun) {
  std::vector<BenchmarkRun> Suite;
  for (size_t B = 0; B != Runs; ++B)
    Suite.push_back(syntheticRun("run" + std::to_string(B), RecordsPerRun));
  return Suite;
}

bool sameRecords(const std::vector<BlockRecord> &A,
                 const std::vector<BlockRecord> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I].X != B[I].X || A[I].CostNoSched != B[I].CostNoSched ||
        A[I].CostSched != B[I].CostSched || A[I].ExecCount != B[I].ExecCount)
      return false;
  return true;
}

bool sameSuiteRecords(const std::vector<BenchmarkRun> &A,
                      const std::vector<BenchmarkRun> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I].ModelName != B[I].ModelName ||
        !sameRecords(A[I].Records, B[I].Records))
      return false;
  return true;
}

NoiseStack parseOrDie(const std::string &Spec, uint64_t Seed) {
  ParseResult<NoiseStack> S = parseNoiseStack(Spec, Seed);
  EXPECT_TRUE(S.has_value()) << Spec;
  return std::move(*S);
}

/// perturbSuite on a one-job pool: the serial path.
void perturbSerially(const NoiseStack &S, std::vector<BenchmarkRun> &Suite) {
  TaskPool Pool(1);
  S.perturbSuite(Suite, Pool);
}

/// \p S's labeling of the lone run \p Run, as run 0.
Dataset labelAlone(const NoiseStack &S, const BenchmarkRun &Run,
                   double ThresholdPct) {
  TaskPool Pool(1);
  return std::move(S.labelSuite({Run}, ThresholdPct, Pool).front());
}

} // namespace

//===----------------------------------------------------------------------===//
// --noise spec parsing
//===----------------------------------------------------------------------===//

TEST(NoiseParse, EmptySpecIsEmptyStack) {
  NoiseStack S = parseOrDie("", 1);
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(S.describe(), "none");
  EXPECT_EQ(S.seed(), 1u);
}

TEST(NoiseParse, CanonicalSpellingRoundTrips) {
  // describe() is exactly what parseNoiseStack accepts back, so specs
  // survive a report-header round trip.
  const std::string Spec =
      "jitter:0.1,spikes:0.05,labelflip:0.25,mistune:ppc970,drift:1";
  NoiseStack S = parseOrDie(Spec, 7);
  EXPECT_EQ(S.size(), 5u);
  EXPECT_EQ(S.describe(), Spec);
  EXPECT_EQ(parseOrDie(S.describe(), 7).describe(), Spec);
}

TEST(NoiseParse, SourcesMayRepeat) {
  NoiseStack S = parseOrDie("jitter:0.1,jitter:0.2", 7);
  EXPECT_EQ(S.size(), 2u);
  EXPECT_EQ(S.describe(), "jitter:0.1,jitter:0.2");
}

TEST(NoiseParse, RejectsBadSpecs) {
  const char *Bad[] = {
      "nosuch:1",      // unknown source
      "jitter",        // missing parameter
      "jitter:",       // empty parameter
      "jitter:abc",    // not a number
      "jitter:0x1",    // hex is banned by the strict contract
      "jitter:1e",     // trailing junk
      "jitter:nan",    // non-finite
      "jitter:2.1",    // above range [0, 2]
      "jitter:-0.1",   // below range
      "labelflip:1.5", // above range [0, 1]
      "spikes:-1",     // below range
      "drift:4.5",     // above range [0, 4]
      "mistune:vax",   // unknown machine model
      "mistune",       // missing model
      ",jitter:0.1",   // empty leading item
  };
  for (const char *Spec : Bad) {
    ParseResult<NoiseStack> S = parseNoiseStack(Spec, 1);
    EXPECT_FALSE(S.has_value()) << Spec;
  }
}

TEST(NoiseParse, ErrorNamesTheItemOrdinal) {
  ParseResult<NoiseStack> S = parseNoiseStack("jitter:0.1,bogus:1", 1);
  ASSERT_FALSE(S.has_value());
  EXPECT_EQ(S.error().Line, 2u);
  EXPECT_NE(S.error().Message.find("bogus"), std::string::npos);
  EXPECT_NE(S.error().Message.find("jitter:SIGMA"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Stack semantics: identity, determinism, composition order
//===----------------------------------------------------------------------===//

TEST(NoiseStackTest, EmptyStackIsIdentity) {
  std::vector<BenchmarkRun> Suite = syntheticSuite(3, 40);
  std::vector<BenchmarkRun> Orig = Suite;
  NoiseStack S = parseOrDie("", 99);

  TaskPool Pool(4);
  perturbSerially(S, Suite);
  S.perturbSuite(Suite, Pool);
  EXPECT_TRUE(sameSuiteRecords(Suite, Orig));

  // labelSuite labels exactly as the engine does, row for row.
  std::vector<Dataset> Noisy = S.labelSuite(Suite, 20.0, Pool);
  std::vector<Dataset> Plain = ExperimentEngine(4).labelSuite(Suite, 20.0);
  ASSERT_EQ(Noisy.size(), Plain.size());
  for (size_t B = 0; B != Noisy.size(); ++B) {
    EXPECT_EQ(Noisy[B].rowIds(), Plain[B].rowIds());
    ASSERT_EQ(Noisy[B].size(), Plain[B].size());
    for (size_t I = 0; I != Noisy[B].size(); ++I) {
      EXPECT_EQ(Noisy[B][I].X, Plain[B][I].X);
      EXPECT_EQ(Noisy[B][I].Y, Plain[B][I].Y);
    }
  }
  EXPECT_EQ(S.mixDrift(), nullptr);
}

TEST(NoiseStackTest, PerturbationIdenticalAtAnyJobCount) {
  // The acceptance contract, per source and composed: jobs=1 and jobs=4
  // perturbation of the same suite agree on every record bit.
  for (const char *Spec :
       {"jitter:0.3", "spikes:0.2", "labelflip:0.5",
        "jitter:0.3,spikes:0.2,labelflip:0.5"}) {
    std::vector<BenchmarkRun> Jobs1 = syntheticSuite(6, 120);
    std::vector<BenchmarkRun> Jobs4 = Jobs1;
    NoiseStack S = parseOrDie(Spec, 42);

    TaskPool P1(1), P4(4);
    S.perturbSuite(Jobs1, P1);
    S.perturbSuite(Jobs4, P4);
    EXPECT_TRUE(sameSuiteRecords(Jobs1, Jobs4)) << Spec;

    // Label lanes too: labelSuite at jobs=4 equals jobs=1.
    std::vector<Dataset> L1 = S.labelSuite(Jobs1, 0.0, P1);
    std::vector<Dataset> L4 = S.labelSuite(Jobs1, 0.0, P4);
    for (size_t B = 0; B != Jobs1.size(); ++B) {
      EXPECT_EQ(L4[B].rowIds(), L1[B].rowIds()) << Spec;
      ASSERT_EQ(L4[B].size(), L1[B].size()) << Spec;
      for (size_t I = 0; I != L1[B].size(); ++I)
        EXPECT_EQ(L4[B][I].Y, L1[B][I].Y) << Spec;
    }
  }
}

TEST(NoiseStackTest, LabelSuiteSharesOneRankTable) {
  // A noisy suite labels through the one labeler: every run's dataset is
  // rows of one table over the whole suite's records, so LOOCV folds
  // pool them without re-ranking, as on a clean suite.
  std::vector<BenchmarkRun> Suite = syntheticSuite(5, 80);
  NoiseStack S = parseOrDie("jitter:0.2,spikes:0.1,labelflip:0.3", 8);
  TaskPool Pool(4);
  S.perturbSuite(Suite, Pool);
  std::vector<Dataset> Labeled = S.labelSuite(Suite, 20.0, Pool);
  ASSERT_EQ(Labeled.size(), Suite.size());
  const std::shared_ptr<const RankTable> &Table = Labeled[0].rankTable();
  ASSERT_NE(Table, nullptr);
  EXPECT_EQ(Table->rows(), 5u * 81u);
  Dataset Pooled("pooled");
  for (const Dataset &D : Labeled) {
    EXPECT_EQ(D.rankTable(), Table) << D.getName();
    Pooled.append(D);
  }
  EXPECT_EQ(Pooled.rankTable(), Table);
}

TEST(NoiseStackTest, RobustnessFoldsEqualTrainingsOnTheirOwnInstances) {
  // runRobustnessPoint's folds train on views of the noisy suite's one
  // table; each fold's filter must equal a training of the same
  // instances on a table of their own.
  ExperimentEngine Engine(4);
  std::vector<BenchmarkRun> Clean = Engine.generateSuiteData(
      test::shrinkSuite(specjvm98Suite(), 40), MachineModel::ppc7410());
  NoiseStack S = robustnessStack(2, GoldenSeed);
  std::vector<BenchmarkRun> Suite = Clean;
  S.perturbSuite(Suite, Engine.pool());
  std::vector<Dataset> Labeled = S.labelSuite(Suite, 20.0, Engine.pool());
  ThresholdResult R =
      Engine.runThreshold(Suite, Labeled, 20.0, ripperLearner());

  RobustnessPoint P = runRobustnessPoint(Engine, Clean, S, 20.0);
  EXPECT_EQ(P.TrainLS, R.TrainLS);
  EXPECT_EQ(P.TrainNS, R.TrainNS);
  EXPECT_EQ(P.RuntimeLS, R.RuntimeLS);
  EXPECT_EQ(P.EffortRatio, geometricMean(R.EffortRatioWork));
  EXPECT_EQ(P.AppTimeLN, geometricMean(R.AppRatioLN));

  ASSERT_EQ(R.Filters.size(), Labeled.size());
  size_t Rules = 0;
  for (size_t Held = 0; Held != Labeled.size(); ++Held) {
    std::vector<Instance> Own;
    for (size_t B = 0; B != Labeled.size(); ++B)
      if (B != Held)
        Own.insert(Own.end(), Labeled[B].begin(), Labeled[B].end());
    RuleSet Alone = Ripper().train(Dataset::fromInstances("fold", Own));
    EXPECT_TRUE(identicalRuleSets(R.Filters[Held], Alone))
        << "without " << Labeled[Held].getName() << ":\n"
        << R.Filters[Held].toString() << "vs\n"
        << Alone.toString();
    Rules += Alone.size();
  }
  EXPECT_GE(Rules, Labeled.size()); // the folds induce real filters
}

TEST(NoiseStackTest, PerRunStreamsIndependentOfVisitOrder) {
  // perturbRun keys the lane on the run *index*, so perturbing run 2
  // alone yields the same bytes as perturbing the whole suite.
  std::vector<BenchmarkRun> Suite = syntheticSuite(4, 60);
  std::vector<BenchmarkRun> Whole = Suite;
  NoiseStack S = parseOrDie("jitter:0.4,spikes:0.3", 5);
  perturbSerially(S, Whole);
  BenchmarkRun Lone = Suite[2];
  S.perturbRun(Lone, 2);
  EXPECT_TRUE(sameRecords(Lone.Records, Whole[2].Records));
}

TEST(NoiseStackTest, CompositionOrderIsSemantic) {
  // jitter-then-spikes and spikes-then-jitter are different experiments:
  // the second source sees the first's record values, and the sources'
  // streams are keyed by stack position.  Pinned so a future "helpful"
  // canonicalization cannot silently reorder stacks.
  std::vector<BenchmarkRun> AB = syntheticSuite(2, 100);
  std::vector<BenchmarkRun> BA = AB;
  perturbSerially(parseOrDie("jitter:0.5,spikes:0.5", 11), AB);
  perturbSerially(parseOrDie("spikes:0.5,jitter:0.5", 11), BA);
  EXPECT_FALSE(sameSuiteRecords(AB, BA));
}

TEST(NoiseStackTest, SeedSelectsTheExperiment) {
  std::vector<BenchmarkRun> S1 = syntheticSuite(2, 100);
  std::vector<BenchmarkRun> S2 = S1, S1Again = S1;
  perturbSerially(parseOrDie("jitter:0.3", 1), S1);
  perturbSerially(parseOrDie("jitter:0.3", 2), S2);
  perturbSerially(parseOrDie("jitter:0.3", 1), S1Again);
  EXPECT_FALSE(sameSuiteRecords(S1, S2));
  EXPECT_TRUE(sameSuiteRecords(S1, S1Again));
}

//===----------------------------------------------------------------------===//
// Per-source distribution shape (fixed seeds, generous bounds)
//===----------------------------------------------------------------------===//

TEST(NoiseStats, JitterIsUnbiasedInLogSpaceAndClamped) {
  const size_t N = 4000;
  const double Sigma = 0.2;
  BenchmarkRun Run;
  Run.ModelName = "ppc7410";
  for (size_t I = 0; I != N; ++I)
    Run.Records.push_back(record(1000, 1000));
  Run.Records.push_back(record(0, 7)); // zero stays zero, partner jitters

  NoiseStack S = parseOrDie("jitter:0.2", 17);
  S.perturbRun(Run, 0);

  double SumLog = 0.0;
  size_t Changed = 0;
  for (size_t I = 0; I != N; ++I) {
    uint64_t C = Run.Records[I].CostNoSched;
    ASSERT_GE(C, 1u);
    SumLog += std::log(static_cast<double>(C) / 1000.0);
    Changed += C != 1000;
    // The two costs of one record draw independent factors.
    if (Run.Records[I].CostSched != C)
      ++Changed;
  }
  // Mean log-factor ~ N(0, Sigma/sqrt(N)); 5 standard errors of slack.
  EXPECT_NEAR(SumLog / static_cast<double>(N), 0.0,
              5.0 * Sigma / std::sqrt(static_cast<double>(N)));
  EXPECT_GT(Changed, N / 2); // the noise actually noises
  EXPECT_EQ(Run.Records[N].CostNoSched, 0u);
  EXPECT_GE(Run.Records[N].CostSched, 1u);
}

TEST(NoiseStats, SpikeRateAndTruncatedTail) {
  const size_t N = 4000;
  const double P = 0.1;
  BenchmarkRun Run;
  Run.ModelName = "ppc7410";
  for (size_t I = 0; I != N; ++I)
    Run.Records.push_back(record(100, 50));
  Run.Records.push_back(record(0, 0)); // empty block: nothing to miss on

  NoiseStack S = parseOrDie("spikes:0.1", 23);
  S.perturbRun(Run, 0);

  size_t Spiked = 0;
  uint64_t MaxBurst = 0;
  for (size_t I = 0; I != N; ++I) {
    const BlockRecord &R = Run.Records[I];
    if (R.CostNoSched == 100) {
      EXPECT_EQ(R.CostSched, 50u); // untouched record is fully untouched
      continue;
    }
    ++Spiked;
    uint64_t Burst = R.CostNoSched - 100;
    // The same burst lands on both costs (a miss stalls the block
    // however it was scheduled) and respects the documented support.
    EXPECT_EQ(R.CostSched - 50, Burst);
    EXPECT_GE(Burst, 8u);
    EXPECT_LE(Burst, 4096u);
    MaxBurst = std::max(MaxBurst, Burst);
  }
  double Rate = static_cast<double>(Spiked) / static_cast<double>(N);
  EXPECT_NEAR(Rate, P, 5.0 * std::sqrt(P * (1 - P) / N));
  EXPECT_GT(MaxBurst, 64u); // the tail is actually heavy
  EXPECT_EQ(Run.Records[N].CostNoSched, 0u);
  EXPECT_EQ(Run.Records[N].CostSched, 0u);
}

TEST(NoiseStats, LabelFlipRateMatchesAndBandStaysDropped) {
  // 2000 clear-LS records at t=0: the flip fraction must track P.
  const size_t N = 2000;
  const double P = 0.3;
  BenchmarkRun Run;
  Run.Name = "flips";
  for (size_t I = 0; I != N; ++I)
    Run.Records.push_back(record(100, 50)); // 50% benefit -> LS

  NoiseStack S = parseOrDie("labelflip:0.3", 31);
  Dataset D = labelAlone(S, Run, 0.0);
  ASSERT_EQ(D.size(), N); // flips never change the training-set size
  double Rate = static_cast<double>(D.countLabel(Label::NS)) /
                static_cast<double>(N);
  EXPECT_NEAR(Rate, P, 5.0 * std::sqrt(P * (1 - P) / N));

  // Records the threshold rule dropped stay dropped even at flip
  // probability 1: the source corrupts answers, not questions.
  BenchmarkRun Band;
  Band.Name = "band";
  for (size_t I = 0; I != 50; ++I)
    Band.Records.push_back(record(100, 90)); // 10% benefit: in (0, 20]
  EXPECT_EQ(labelAlone(parseOrDie("labelflip:1", 31), Band, 20.0).size(), 0u);
}

TEST(NoiseMisTune, SwapsModelAndRecomputesReports) {
  MachineModel Train = MachineModel::ppc7410();
  std::vector<BenchmarkRun> Suite = ExperimentEngine().generateSuiteData(
      test::shrinkSuite(specjvm98Suite(), 4), Train);
  std::vector<BenchmarkRun> Orig = Suite;

  NoiseStack S = parseOrDie("mistune:ppc970", 3);
  perturbSerially(S, Suite);
  std::optional<MachineModel> Serve = MachineModel::byName("ppc970");
  ASSERT_TRUE(Serve.has_value());
  for (size_t B = 0; B != Suite.size(); ++B) {
    // The mis-tuning: records keep the training model's costs...
    EXPECT_TRUE(sameRecords(Suite[B].Records, Orig[B].Records));
    // ...while the run's identity and fixed policies move to the serve
    // machine.
    EXPECT_EQ(Suite[B].ModelName, "ppc970");
    CompileReport Never =
        compileProgram(Suite[B].Prog, *Serve, SchedulingPolicy::Never);
    CompileReport Always =
        compileProgram(Suite[B].Prog, *Serve, SchedulingPolicy::Always);
    EXPECT_EQ(Suite[B].NeverReport.SimulatedTime, Never.SimulatedTime);
    EXPECT_EQ(Suite[B].AlwaysReport.SimulatedTime, Always.SimulatedTime);
    EXPECT_EQ(Suite[B].AlwaysReport.SchedulingWork, Always.SchedulingWork);
    EXPECT_NE(Suite[B].NeverReport.SimulatedTime,
              Orig[B].NeverReport.SimulatedTime);
  }

  // Mis-tuning to the model the suite was traced under is the identity.
  std::vector<BenchmarkRun> Same = Orig;
  perturbSerially(parseOrDie("mistune:ppc7410", 3), Same);
  for (size_t B = 0; B != Same.size(); ++B) {
    EXPECT_EQ(Same[B].ModelName, Orig[B].ModelName);
    EXPECT_EQ(Same[B].NeverReport.SimulatedTime,
              Orig[B].NeverReport.SimulatedTime);
  }
}

TEST(NoiseDrift, FactorsArePureFunctionsOfEpochAndApp) {
  // The drift function borrows its stack, so every stack here outlives
  // the function taken from it.
  NoiseStack S = parseOrDie("drift:1", 13);
  std::function<double(uint64_t, size_t)> F = S.mixDrift();
  ASSERT_NE(F, nullptr);
  NoiseStack SameSeed = parseOrDie("drift:1", 13);
  std::function<double(uint64_t, size_t)> G = SameSeed.mixDrift();

  bool Varies = false;
  double First = F(0, 0);
  for (uint64_t E = 0; E != 48; ++E)
    for (size_t A = 0; A != 3; ++A) {
      double V = F(E, A);
      EXPECT_GT(V, 0.0);
      EXPECT_EQ(V, F(E, A)); // re-evaluation is free of hidden state
      EXPECT_EQ(V, G(E, A)); // same (seed, spec) -> same factor
      Varies = Varies || V != First;
    }
  EXPECT_TRUE(Varies); // the mix genuinely rotates

  // Amplitude 0 parses but drifts() is false: the service takes its
  // exact pre-noise path (no drift function at all).
  NoiseStack Zero = parseOrDie("drift:0", 13);
  EXPECT_EQ(Zero.mixDrift(), nullptr);
  // Different seeds give a different rotation.
  NoiseStack OtherSeed = parseOrDie("drift:1", 14);
  EXPECT_NE(OtherSeed.mixDrift()(1, 0), F(1, 0));
}

//===----------------------------------------------------------------------===//
// Golden pins: the robustness frontier on the full SPECjvm98 stand-in
//===----------------------------------------------------------------------===//

TEST(Golden, RobustnessFrontierWinsCleanLosesAtTopRung) {
  // The acceptance headline, at bench_robustness's defaults (t = 20,
  // noise seed 20040609): on the clean suite the induced filter beats
  // always-schedule by a wide margin; by the top rung of the severity
  // ladder always-schedule wins.  Margins never increase with severity,
  // which bench_robustness reports as "frontier monotone: yes".
  ExperimentEngine Engine(4);
  std::vector<BenchmarkRun> Suite = Engine.generateSuiteData(
      specjvm98Suite(), MachineModel::ppc7410());

  std::vector<RobustnessPoint> Points;
  for (unsigned L = 0; L != numRobustnessLevels(); ++L)
    Points.push_back(runRobustnessPoint(
        Engine, Suite, robustnessStack(L, GoldenSeed), 20.0));

  // Clean rung: the paper's frontier.  Effort well under retention.
  EXPECT_NEAR(Points.front().Retention, 0.68, 0.05);
  EXPECT_NEAR(Points.front().EffortRatio, 0.35, 0.05);
  EXPECT_GT(Points.front().WinMargin, 0.25);
  // Top rung: the corruption has eaten the whole margin.
  EXPECT_LT(Points.back().WinMargin, 0.0);
  EXPECT_GT(Points.back().WinMargin, -0.15);
  // Monotone frontier between them.
  for (size_t I = 1; I != Points.size(); ++I)
    EXPECT_LE(Points[I].WinMargin, Points[I - 1].WinMargin + 1e-12)
        << "rung " << I;

  // Exact per-rung pins: counts, and the bits of the three geomeans.
  struct Pin {
    size_t TrainLS, TrainNS, RuntimeLS, RuntimeBlocks;
    uint64_t EffortRatio, AppTimeLN, AppTimeLS;
  };
  const Pin Pins[] = {
      {677, 7154, 1105, 8827, 0x3fd649f6fc8c178cull, 0x3fedc7a546e7af3dull,
       0x3fecbbca6da88cc8ull},
      {1047, 6107, 848, 8827, 0x3fd38a18ed0f96b6ull, 0x3fee17c7e33466dcull,
       0x3fecbbca6da88cc8ull},
      {2287, 5177, 1064, 8827, 0x3fd3e5a4e6074dd3ull, 0x3fee2b15ce3eb391ull,
       0x3fecbbca6da88cc8ull},
      {3122, 4554, 1749, 8827, 0x3fc224908d07cf73ull, 0x3feea5016ff48178ull,
       0x3fec6a90b00d1246ull},
      {3660, 4127, 0, 8827, 0x3f82e6d3029145b7ull, 0x3ff0000000000000ull,
       0x3fec6a90b00d1246ull},
  };
  ASSERT_EQ(Points.size(), std::size(Pins));
  auto Bits = [](double D) {
    uint64_t U;
    std::memcpy(&U, &D, sizeof(U));
    return U;
  };
  for (size_t I = 0; I != Points.size(); ++I) {
    const RobustnessPoint &P = Points[I];
    EXPECT_EQ(P.TrainLS, Pins[I].TrainLS) << "rung " << I;
    EXPECT_EQ(P.TrainNS, Pins[I].TrainNS) << "rung " << I;
    EXPECT_EQ(P.RuntimeLS, Pins[I].RuntimeLS) << "rung " << I;
    EXPECT_EQ(P.RuntimeBlocks, Pins[I].RuntimeBlocks) << "rung " << I;
    EXPECT_EQ(Bits(P.EffortRatio), Pins[I].EffortRatio) << "rung " << I;
    EXPECT_EQ(Bits(P.AppTimeLN), Pins[I].AppTimeLN) << "rung " << I;
    EXPECT_EQ(Bits(P.AppTimeLS), Pins[I].AppTimeLS) << "rung " << I;
  }
}

TEST(Golden, RobustnessPointIdenticalAtJobsOneAndFour) {
  // End-to-end determinism of a perturbed pipeline (perturb -> label ->
  // LOOCV -> price): every field of a mid-ladder point agrees exactly
  // between a serial and a four-worker engine.
  std::vector<RobustnessPoint> P;
  for (unsigned Jobs : {1u, 4u}) {
    ExperimentEngine Engine(Jobs);
    std::vector<BenchmarkRun> Suite = Engine.generateSuiteData(
        specjvm98Suite(), MachineModel::ppc7410());
    P.push_back(runRobustnessPoint(Engine, Suite,
                                   robustnessStack(2, GoldenSeed), 20.0));
  }
  EXPECT_EQ(P[0].Stack, P[1].Stack);
  EXPECT_EQ(P[0].EffortRatio, P[1].EffortRatio);
  EXPECT_EQ(P[0].AppTimeLN, P[1].AppTimeLN);
  EXPECT_EQ(P[0].AppTimeLS, P[1].AppTimeLS);
  EXPECT_EQ(P[0].Retention, P[1].Retention);
  EXPECT_EQ(P[0].WinMargin, P[1].WinMargin);
  EXPECT_EQ(P[0].TrainLS, P[1].TrainLS);
  EXPECT_EQ(P[0].TrainNS, P[1].TrainNS);
  EXPECT_EQ(P[0].RuntimeLS, P[1].RuntimeLS);
  EXPECT_EQ(P[0].RuntimeBlocks, P[1].RuntimeBlocks);
}
