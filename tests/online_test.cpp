//===- tests/online_test.cpp - Online self-training / hot-swap contracts ----===//
//
// The online-adaptation contracts on top of runtime_test's baseline:
// the hot-swap sequence, per-compile version pins, and registry bytes
// are bit-identical at any TaskPool job count; a version installed at an
// epoch boundary never retroactively claims a mid-epoch compile; and the
// SFFR1 registry never believes a corrupt, truncated, or renamed entry.
//
//===----------------------------------------------------------------------===//

#include "filter/FilterVersion.h"
#include "io/FilterRegistry.h"
#include "runtime/MultiAppService.h"
#include "workloads/ProgramGenerator.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

using namespace schedfilter;
using namespace schedfilter::test;

namespace {

Program testProgram(int NumMethods = 16) {
  BenchmarkSpec S = *findBenchmarkSpec("mpegaudio");
  S.NumMethods = NumMethods;
  return ProgramGenerator(S).generate();
}

/// The v1 "factory" filter every online run starts from (schedule blocks
/// of >= 7 instructions) -- hand-built, so tests control the baseline
/// without paying for rule induction.
RuleSet testRules() {
  RuleSet RS(Label::NS);
  Rule R;
  R.Conclusion = Label::LS;
  R.Conditions.push_back({FeatBBLen, false, 7.0});
  RS.addRule(std::move(R));
  return RS;
}

/// A small online config: several epochs, several retrains.
ServiceConfig onlineConfig() {
  ServiceConfig Cfg;
  Cfg.Invocations = 20000;
  Cfg.EpochLen = 256;
  Cfg.SampleEvery = 4;
  Cfg.HotThreshold = 4;
  Cfg.QueueCap = 8;
  Cfg.DrainPerEpoch = 2;
  Cfg.StreamSeed = invocationStreamSeed(42);
  Cfg.Online = true;
  Cfg.RetrainEvery = 2048;
  Cfg.RetrainThreshold = 0.0;
  return Cfg;
}

ServiceStats runOnline(TaskPool &Pool, FilterRegistry *Reg = nullptr) {
  Program P = testProgram();
  MachineModel M = MachineModel::ppc7410();
  RuleSet RS = testRules();
  return serveOneApp(P, M, onlineConfig(), &RS, Pool, 1.0, Reg).Total;
}

FilterVersionMeta testMeta(uint32_t Version) {
  FilterVersionMeta Meta;
  Meta.Version = Version;
  Meta.ParentVersion = Version ? Version - 1 : 0;
  Meta.TriggerTick = 4096;
  Meta.SessionSeed = 99;
  Meta.CorpusRecords = 123;
  Meta.ThresholdPct = 12.5;
  Meta.Model = "ppc7410";
  Meta.Workload = "mpegaudio";
  return Meta;
}

} // namespace

//===----------------------------------------------------------------------===//
// Hot-swap determinism
//===----------------------------------------------------------------------===//

TEST(OnlineService, BitIdenticalAtAnyJobCount) {
  // The tentpole guarantee: swap sequence, per-compile version pins, and
  // every online counter are identical at jobs=1 and jobs=4 (operator==
  // compares Swaps and Compiles element by element).
  TaskPool Serial(1), Wide(4);
  ServiceStats S1 = runOnline(Serial);
  ServiceStats S4 = runOnline(Wide);
  EXPECT_TRUE(S1 == S4);
  // And the run really adapted, so the comparison is not vacuous.
  EXPECT_GT(S1.Retrains, 0u);
  EXPECT_GT(S1.CorpusRecords, 0u);
  EXPECT_GE(S1.Swaps.size(), 2u);
  EXPECT_FALSE(S1.Compiles.empty());
  EXPECT_GT(S1.FinalFilterVersion, 1u);
}

TEST(OnlineService, RegistryBytesIdenticalAcrossJobs) {
  TempCacheDir D1("reg-j1"), D4("reg-j4");
  FilterRegistry R1(D1.str()), R4(D4.str());
  TaskPool Serial(1), Wide(4);
  runOnline(Serial, &R1);
  runOnline(Wide, &R4);

  std::vector<uint32_t> V1 = R1.listVersions();
  ASSERT_EQ(V1, R4.listVersions());
  ASSERT_GE(V1.size(), 2u);
  EXPECT_EQ(R1.stats().StoreFailures, 0u);
  for (uint32_t V : V1) {
    std::string A = slurp(R1.entryPath(V));
    ASSERT_FALSE(A.empty());
    EXPECT_EQ(A, slurp(R4.entryPath(V))) << "registry entry v" << V
                                         << " differs across job counts";
  }
}

TEST(OnlineService, MidEpochPinningInvariant) {
  TaskPool Pool(4);
  ServiceStats St = runOnline(Pool);

  // The swap sequence starts at the factory v1 on epoch 0 and installs
  // monotonically increasing versions at non-decreasing boundaries.
  ASSERT_FALSE(St.Swaps.empty());
  EXPECT_EQ(St.Swaps.front().Version, 1u);
  EXPECT_EQ(St.Swaps.front().Epoch, 0u);
  for (size_t I = 1; I < St.Swaps.size(); ++I) {
    EXPECT_EQ(St.Swaps[I].Version, St.Swaps[I - 1].Version + 1);
    EXPECT_GT(St.Swaps[I].Epoch, St.Swaps[I - 1].Epoch);
  }
  EXPECT_EQ(St.FinalFilterVersion, St.Swaps.back().Version);

  // Background-latency model: a retrain triggered at boundary E installs
  // at boundary E+1, exactly one epoch later on the virtual clock (the
  // final boundary may arrive early when the stream length is not a
  // multiple of the epoch length).
  ServiceConfig Cfg = onlineConfig();
  for (size_t I = 1; I < St.Swaps.size(); ++I)
    EXPECT_EQ(St.Swaps[I].Tick,
              std::min<uint64_t>(St.Swaps[I].TriggerTick + Cfg.EpochLen,
                                 Cfg.Invocations));

  // Every compile is pinned to the version installed at or before its
  // epoch -- never to a version that installed later (mid-epoch compiles
  // keep the old version).
  for (const ServiceStats::CompilePinStat &C : St.Compiles) {
    uint32_t Expected = 0;
    for (const ServiceStats::FilterSwapStat &Sw : St.Swaps)
      if (Sw.Epoch <= C.Epoch)
        Expected = Sw.Version;
    EXPECT_EQ(C.FilterVersion, Expected)
        << "compile at epoch " << C.Epoch << " pinned wrong version";
  }
}

TEST(OnlineService, RetrainNeedsNewRecords) {
  // A stream long enough that every hot method reaches the optimizing
  // tier early: once compiles stop the corpus stops growing, and no
  // retrain may fire however many RetrainEvery intervals pass.  The
  // drain at boundary E runs at tick E * EpochLen, before that boundary's
  // retrain check, so each version after v1 must follow a compile pinned
  // in (previous trigger, its own trigger].
  TaskPool Pool(2);
  Program P = testProgram();
  MachineModel M = MachineModel::ppc7410();
  RuleSet RS = testRules();
  ServiceConfig Cfg = onlineConfig();
  Cfg.Invocations = 64 * 1024;
  ServiceStats St = serveOneApp(P, M, Cfg, &RS, Pool).Total;

  ASSERT_FALSE(St.Compiles.empty());
  const uint64_t LastCompileTick = St.Compiles.back().Epoch * Cfg.EpochLen;
  ASSERT_LT(LastCompileTick + 4 * Cfg.RetrainEvery, Cfg.Invocations)
      << "compiles must stop early for the idle tail to test anything";
  ASSERT_GE(St.Swaps.size(), 2u);
  for (size_t I = 1; I < St.Swaps.size(); ++I) {
    const uint64_t Prev = St.Swaps[I - 1].TriggerTick;
    const uint64_t Trigger = St.Swaps[I].TriggerTick;
    bool Grew = false;
    for (const ServiceStats::CompilePinStat &C : St.Compiles)
      Grew |= C.Epoch * Cfg.EpochLen > Prev &&
              C.Epoch * Cfg.EpochLen <= Trigger;
    EXPECT_TRUE(Grew) << "v" << St.Swaps[I].Version << " triggered at "
                      << Trigger << " with no compile since " << Prev;
    EXPECT_LE(Trigger, LastCompileTick)
        << "v" << St.Swaps[I].Version << " swapped in after compiles stopped";
  }
}

TEST(OnlineService, StaticRunHasNoLineage) {
  TaskPool Pool(2);
  Program P = testProgram();
  MachineModel M = MachineModel::ppc7410();
  RuleSet RS = testRules();
  ServiceConfig Cfg = onlineConfig();
  Cfg.Online = false;
  ServiceStats St = serveOneApp(P, M, Cfg, &RS, Pool).Total;
  EXPECT_EQ(St.Retrains, 0u);
  EXPECT_EQ(St.CorpusRecords, 0u);
  EXPECT_TRUE(St.Swaps.empty());
  EXPECT_EQ(St.FinalFilterVersion, 0u);
  // Per-compile pins are recorded for every policy (the alignment basis
  // of the adaptation bench), just with the unversioned filter.
  EXPECT_FALSE(St.Compiles.empty());
  for (const ServiceStats::CompilePinStat &C : St.Compiles)
    EXPECT_EQ(C.FilterVersion, 0u);
}

TEST(OnlineService, GoldenLineagePin) {
  // Golden pin of the small serve scenario's adaptation trajectory: every
  // value is a pure function of the seeded generator, the stream seed,
  // and the retrain policy.  If a deliberate learner or runtime change
  // moves these, update them alongside EXPERIMENTS.md.
  TaskPool Pool(4);
  ServiceStats St = runOnline(Pool);
  EXPECT_EQ(St.Retrains, 3u);
  EXPECT_EQ(St.FinalFilterVersion, 4u);
  EXPECT_EQ(St.Swaps.size(), 4u);
  EXPECT_EQ(St.CorpusRecords, 158u);
  EXPECT_EQ(St.CompiledMethods, 15u);
}

//===----------------------------------------------------------------------===//
// FilterRegistry (SFFR1)
//===----------------------------------------------------------------------===//

TEST(FilterRegistry, StoreLoadRoundTrip) {
  TempCacheDir Dir("sffr-roundtrip");
  FilterRegistry Reg(Dir.str());
  RuleSet RS = testRules();
  ASSERT_TRUE(Reg.store(testMeta(3), RS));

  ParseResult<RegistryEntry> E = Reg.load(3);
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_EQ(E->Meta.Version, 3u);
  EXPECT_EQ(E->Meta.ParentVersion, 2u);
  EXPECT_EQ(E->Meta.TriggerTick, 4096u);
  EXPECT_EQ(E->Meta.SessionSeed, 99u);
  EXPECT_EQ(E->Meta.CorpusRecords, 123u);
  EXPECT_EQ(E->Meta.ThresholdPct, 12.5);
  EXPECT_EQ(E->Meta.Model, "ppc7410");
  EXPECT_EQ(E->Meta.Workload, "mpegaudio");
  // The rules survive the text round-trip bit-exactly.
  EXPECT_EQ(rulesFingerprint(E->Rules), rulesFingerprint(RS));
}

TEST(FilterRegistry, RejectsCorruptEntry) {
  TempCacheDir Dir("sffr-corrupt");
  FilterRegistry Reg(Dir.str());
  ASSERT_TRUE(Reg.store(testMeta(1), testRules()));
  std::string Path = Reg.entryPath(1);
  std::string Bytes = slurp(Path);
  ASSERT_FALSE(Bytes.empty());

  // Flip one byte in the body: the checksum must catch it.
  std::string Flipped = Bytes;
  Flipped[Flipped.size() / 2] ^= 0x40;
  { std::ofstream(Path, std::ios::binary | std::ios::trunc) << Flipped; }
  EXPECT_FALSE(static_cast<bool>(Reg.load(1)));

  // Truncate: never believed either.
  { std::ofstream(Path, std::ios::binary | std::ios::trunc)
        << Bytes.substr(0, Bytes.size() - 7); }
  EXPECT_FALSE(static_cast<bool>(Reg.load(1)));

  // Wrong magic: rejected before anything else is read.
  std::string BadMagic = Bytes;
  BadMagic[3] = '9';
  { std::ofstream(Path, std::ios::binary | std::ios::trunc) << BadMagic; }
  EXPECT_FALSE(static_cast<bool>(Reg.load(1)));

  // Restore the original bytes: loads again (the test harness is not
  // fighting a stale cache).
  { std::ofstream(Path, std::ios::binary | std::ios::trunc) << Bytes; }
  EXPECT_TRUE(static_cast<bool>(Reg.load(1)));
}

TEST(FilterRegistry, RejectsRenamedEntry) {
  // An entry copied onto another version's filename carries its embedded
  // version and must not be believed -- same discipline as SFCC1.
  TempCacheDir Dir("sffr-renamed");
  FilterRegistry Reg(Dir.str());
  ASSERT_TRUE(Reg.store(testMeta(1), testRules()));
  std::filesystem::copy_file(Reg.entryPath(1), Reg.entryPath(2));
  EXPECT_TRUE(static_cast<bool>(Reg.load(1)));
  ParseResult<RegistryEntry> E = Reg.load(2);
  ASSERT_FALSE(static_cast<bool>(E));
  EXPECT_NE(E.error().Message.find("version"), std::string::npos);
}

TEST(FilterRegistry, CrashLeftoversAreIgnored) {
  // A store killed before its rename leaves only a temp file, which is
  // not a version.  A half-written entry under a version's own name (a
  // torn copy) is listed, but its checksum keeps load() from believing it.
  TempCacheDir Dir("sffr-crash");
  TempCacheDir Other("sffr-crash-src");
  FilterRegistry Reg(Dir.str());
  FilterRegistry Src(Other.str());
  ASSERT_TRUE(Reg.store(testMeta(1), testRules()));
  ASSERT_TRUE(Src.store(testMeta(2), testRules()));
  ASSERT_TRUE(Src.store(testMeta(3), testRules()));
  plantInterruptedWrite(Reg.entryPath(3), slurp(Src.entryPath(3)));
  const std::string V2 = slurp(Src.entryPath(2));
  { std::ofstream(Reg.entryPath(2), std::ios::binary)
        << V2.substr(0, V2.size() / 2); }

  EXPECT_EQ(Reg.listVersions(), (std::vector<uint32_t>{1, 2}));
  EXPECT_TRUE(static_cast<bool>(Reg.load(1)));
  ParseResult<RegistryEntry> Torn = Reg.load(2);
  ASSERT_FALSE(static_cast<bool>(Torn));
  EXPECT_NE(Torn.error().Message.find("checksum"), std::string::npos);
  EXPECT_FALSE(static_cast<bool>(Reg.load(3)));
}

TEST(FilterRegistry, ListVersionsSortedIgnoringJunk) {
  TempCacheDir Dir("sffr-list");
  FilterRegistry Reg(Dir.str());
  for (uint32_t V : {4u, 1u, 11u})
    ASSERT_TRUE(Reg.store(testMeta(V), testRules()));
  // Junk in the directory is not a version.
  { std::ofstream(Dir.Path / "notes.txt") << "hi"; }
  { std::ofstream(Dir.Path / "v00000a.sffr") << "junk"; }
  { std::ofstream(Dir.Path / "v1.sffr") << "junk"; }
  EXPECT_EQ(Reg.listVersions(), (std::vector<uint32_t>{1, 4, 11}));
  // A missing directory is an empty lineage, not an error.
  EXPECT_TRUE(FilterRegistry(Dir.str() + "-nonexistent")
                  .listVersions()
                  .empty());
}
