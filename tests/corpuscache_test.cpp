//===- tests/corpuscache_test.cpp - io/CorpusCache unit tests -----------------===//
//
// The corpus-cache contract: a warm cache serves bit-identical records
// and reports while skipping all suite tracing (pinned via the engine's
// traced-block work counter); every key ingredient -- generator version,
// spec fingerprint, model -- isolates entries; and no corrupt or
// mismatched entry is ever believed.
//
//===----------------------------------------------------------------------===//

#include "io/CorpusCache.h"

#include "TestHelpers.h"
#include "harness/ParallelExperiments.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>

#include <unistd.h>

using namespace schedfilter;
using namespace schedfilter::test;

namespace {

std::vector<BenchmarkSpec> testSuite() {
  return shrinkSuite({*findBenchmarkSpec("db"), *findBenchmarkSpec("jess")},
                     5);
}

/// \p CompareWallTime: true when B's reports were loaded from a cache
/// seeded by A (stored wall times reproduce exactly); false when both
/// sides measured their own wall clock.
void expectRunsIdentical(const std::vector<BenchmarkRun> &A,
                         const std::vector<BenchmarkRun> &B,
                         bool CompareWallTime = true) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t R = 0; R != A.size(); ++R) {
    EXPECT_EQ(A[R].Name, B[R].Name);
    EXPECT_EQ(A[R].ModelName, B[R].ModelName);
    ASSERT_EQ(A[R].Records.size(), B[R].Records.size());
    for (size_t I = 0; I != A[R].Records.size(); ++I) {
      const BlockRecord &X = A[R].Records[I];
      const BlockRecord &Y = B[R].Records[I];
      EXPECT_EQ(X.X, Y.X);
      EXPECT_EQ(X.CostNoSched, Y.CostNoSched);
      EXPECT_EQ(X.CostSched, Y.CostSched);
      EXPECT_EQ(X.ExecCount, Y.ExecCount);
    }
    // Cached reports reproduce every field, the measured wall time
    // included (it is stored, not re-measured).
    for (auto Pick : {&BenchmarkRun::NeverReport, &BenchmarkRun::AlwaysReport}) {
      const CompileReport &X = A[R].*Pick;
      const CompileReport &Y = B[R].*Pick;
      EXPECT_EQ(X.Policy, Y.Policy);
      EXPECT_EQ(X.NumBlocks, Y.NumBlocks);
      EXPECT_EQ(X.NumScheduled, Y.NumScheduled);
      EXPECT_EQ(X.SchedulingWork, Y.SchedulingWork);
      EXPECT_EQ(X.FilterWork, Y.FilterWork);
      EXPECT_EQ(X.SimulatedTime, Y.SimulatedTime);
      if (CompareWallTime) {
        EXPECT_EQ(X.SchedulingSeconds, Y.SchedulingSeconds);
      }
    }
  }
}

} // namespace

TEST(CorpusCache, StoreLoadRoundTrip) {
  TempCacheDir Dir("cc-roundtrip");
  CorpusCache Cache(Dir.str());
  CorpusKey Key{"db", "ppc7410", GeneratorVersion,
                TracePipelineVersion, 0x1234, ""};

  CachedRun Run;
  BlockRecord R{};
  R.X[FeatBBLen] = 7;
  R.X[FeatLoad] = 1.0 / 3.0;
  R.CostNoSched = 42;
  R.CostSched = 30;
  R.ExecCount = 99;
  Run.Records.push_back(R);
  Run.NeverReport.Policy = SchedulingPolicy::Never;
  Run.NeverReport.NumBlocks = 1;
  Run.NeverReport.SimulatedTime = 4200.0;
  Run.AlwaysReport.Policy = SchedulingPolicy::Always;
  Run.AlwaysReport.NumBlocks = 1;
  Run.AlwaysReport.NumScheduled = 1;
  Run.AlwaysReport.SchedulingWork = 17;
  Run.AlwaysReport.SchedulingSeconds = 0.00125;
  Run.AlwaysReport.SimulatedTime = 3000.0;

  EXPECT_TRUE(Cache.store(Key, Run));
  std::optional<CachedRun> Back = Cache.load(Key);
  ASSERT_TRUE(Back.has_value());
  ASSERT_EQ(Back->Records.size(), 1u);
  EXPECT_EQ(Back->Records[0].X, Run.Records[0].X);
  EXPECT_EQ(Back->Records[0].CostNoSched, 42u);
  EXPECT_EQ(Back->Records[0].ExecCount, 99u);
  EXPECT_EQ(Back->NeverReport.SimulatedTime, 4200.0);
  EXPECT_EQ(Back->AlwaysReport.SchedulingWork, 17u);
  EXPECT_EQ(Back->AlwaysReport.SchedulingSeconds, 0.00125);
  EXPECT_EQ(Back->AlwaysReport.NumScheduled, 1u);

  CorpusCache::Stats St = Cache.stats();
  EXPECT_EQ(St.Stores, 1u);
  EXPECT_EQ(St.Hits, 1u);
  EXPECT_EQ(St.Misses, 0u);
}

TEST(CorpusCache, EveryKeyIngredientIsolatesEntries) {
  TempCacheDir Dir("cc-keys");
  CorpusCache Cache(Dir.str());
  CorpusKey Key{"db", "ppc7410", GeneratorVersion,
                TracePipelineVersion, 0x1234, ""};
  CachedRun Run;
  Run.Records.emplace_back();
  ASSERT_TRUE(Cache.store(Key, Run));

  CorpusKey OtherBench = Key;
  OtherBench.Benchmark = "jess";
  CorpusKey OtherModel = Key;
  OtherModel.Model = "ppc970";
  CorpusKey OtherVersion = Key;
  OtherVersion.GeneratorVersion = GeneratorVersion + 1;
  CorpusKey OtherPipeline = Key;
  OtherPipeline.PipelineVersion = TracePipelineVersion + 1;
  CorpusKey OtherSpec = Key;
  OtherSpec.SpecFingerprint = 0x5678;
  EXPECT_FALSE(Cache.load(OtherBench).has_value());
  EXPECT_FALSE(Cache.load(OtherModel).has_value());
  EXPECT_FALSE(Cache.load(OtherVersion).has_value());
  EXPECT_FALSE(Cache.load(OtherPipeline).has_value());
  EXPECT_FALSE(Cache.load(OtherSpec).has_value());
  EXPECT_TRUE(Cache.load(Key).has_value());

  // The caller's expected record count is part of validation: an entry
  // with any other count is invalid (counted as such), not a hit.
  EXPECT_TRUE(Cache.load(Key, 1).has_value());
  uint64_t InvalidBefore = Cache.stats().InvalidEntries;
  EXPECT_FALSE(Cache.load(Key, 2).has_value());
  EXPECT_EQ(Cache.stats().InvalidEntries, InvalidBefore + 1);
}

TEST(CorpusCache, FamilyVersionBumpInvalidatesOnlyThatFamily) {
  // The per-family generator version promise (WorkloadFamily::version):
  // bumping one family's version misses only that family's entries;
  // every other family still hits, and the family name itself is a key
  // ingredient.
  TempCacheDir Dir("cc-family");
  CorpusCache Cache(Dir.str());
  CorpusKey Server{"httpd", "ppc7410", 1, TracePipelineVersion, 0x1111,
                   "serverloop"};
  CorpusKey Chase{"listwalk", "ppc7410", 1, TracePipelineVersion, 0x2222,
                  "ptrchase"};
  CachedRun Run;
  Run.Records.emplace_back();
  ASSERT_TRUE(Cache.store(Server, Run));
  ASSERT_TRUE(Cache.store(Chase, Run));

  CorpusKey ServerV2 = Server;
  ServerV2.GeneratorVersion = 2;
  EXPECT_FALSE(Cache.load(ServerV2).has_value());
  EXPECT_TRUE(Cache.load(Chase).has_value());   // other family unharmed
  EXPECT_TRUE(Cache.load(Server).has_value());  // old version still readable

  // Same spec under a different family is a different corpus.
  CorpusKey Refiled = Server;
  Refiled.Family = "fpkernel";
  EXPECT_FALSE(Cache.load(Refiled).has_value());

  // The family is visible in the entry path.
  EXPECT_NE(Cache.entryPath(Server).find("__serverloop__"),
            std::string::npos);
}

TEST(CorpusCache, RenamedEntryIsNotBelieved) {
  // The key is embedded in the entry and verified on load: renaming a
  // file onto another key's path must count as invalid, not serve the
  // wrong corpus.
  TempCacheDir Dir("cc-rename");
  CorpusCache Cache(Dir.str());
  CorpusKey Key{"db", "ppc7410", GeneratorVersion,
                TracePipelineVersion, 0x1234, ""};
  CorpusKey Victim{"jess", "ppc7410", GeneratorVersion,
                   TracePipelineVersion, 0x9999, ""};
  CachedRun Run;
  Run.Records.emplace_back();
  ASSERT_TRUE(Cache.store(Key, Run));
  std::filesystem::rename(Cache.entryPath(Key), Cache.entryPath(Victim));
  EXPECT_FALSE(Cache.load(Victim).has_value());
  EXPECT_EQ(Cache.stats().InvalidEntries, 1u);
}

TEST(CorpusCache, CorruptEntriesAreInvalidNotFatal) {
  TempCacheDir Dir("cc-corrupt");
  CorpusCache Cache(Dir.str());
  CorpusKey Key{"db", "ppc7410", GeneratorVersion,
                TracePipelineVersion, 0x1234, ""};
  CachedRun Run;
  Run.Records.emplace_back();
  Run.Records.emplace_back();
  ASSERT_TRUE(Cache.store(Key, Run));

  // Flip a payload byte in place.
  std::string Path = Cache.entryPath(Key);
  std::string Bytes;
  {
    std::ifstream IS(Path, std::ios::binary);
    Bytes.assign((std::istreambuf_iterator<char>(IS)),
                 std::istreambuf_iterator<char>());
  }
  Bytes[Bytes.size() - 2] = static_cast<char>(
      static_cast<unsigned char>(Bytes[Bytes.size() - 2]) ^ 0x01);
  {
    std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
    OS.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  }
  EXPECT_FALSE(Cache.load(Key).has_value());
  CorpusCache::Stats St = Cache.stats();
  EXPECT_EQ(St.InvalidEntries, 1u);
  EXPECT_EQ(St.Misses, 1u);

  // A truncated entry is equally invalid.
  {
    std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
    OS.write(Bytes.data(), 10);
  }
  EXPECT_FALSE(Cache.load(Key).has_value());
  EXPECT_EQ(Cache.stats().InvalidEntries, 2u);

  // So is a flipped bit in the compile-report block (byte 50 sits inside
  // NeverReport for this key): the checksum covers the whole body, not
  // just the record payload.
  std::string ReportFlip = Bytes;
  ReportFlip[50] =
      static_cast<char>(static_cast<unsigned char>(ReportFlip[50]) ^ 0x01);
  {
    std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
    OS.write(ReportFlip.data(),
             static_cast<std::streamsize>(ReportFlip.size()));
  }
  EXPECT_FALSE(Cache.load(Key).has_value());
  EXPECT_EQ(Cache.stats().InvalidEntries, 3u);

  // A well-formed, correctly checksummed entry holding a NaN feature is
  // invalid too: the record decoder refuses non-finite features.
  CachedRun NaNRun = Run;
  NaNRun.Records[1].X[FeatBBLen] = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(Cache.store(Key, NaNRun));
  EXPECT_FALSE(Cache.load(Key).has_value());
  EXPECT_EQ(Cache.stats().InvalidEntries, 4u);
}

TEST(CorpusCache, WarmEngineSkipsAllSuiteTracing) {
  TempCacheDir Dir("cc-warm");
  MachineModel Model = MachineModel::ppc7410();
  std::vector<BenchmarkSpec> Suite = testSuite();

  // Cold: every benchmark is traced and stored.
  CorpusCache ColdCache(Dir.str());
  ExperimentEngine Cold(2);
  Cold.setCorpusCache(&ColdCache);
  std::vector<BenchmarkRun> ColdRuns = Cold.generateSuiteData(Suite, Model);
  size_t TotalBlocks = 0;
  for (const BenchmarkRun &R : ColdRuns)
    TotalBlocks += R.Records.size();
  EXPECT_EQ(Cold.tracedBlocks(), TotalBlocks);
  CorpusCache::Stats ColdStats = ColdCache.stats();
  EXPECT_EQ(ColdStats.Misses, Suite.size());
  EXPECT_EQ(ColdStats.Stores, Suite.size());
  EXPECT_EQ(ColdStats.Hits, 0u);

  // Warm: zero blocks traced -- the acceptance work-counter assertion --
  // and the output is field-identical, wall-clock included.
  CorpusCache WarmCache(Dir.str());
  ExperimentEngine Warm(2);
  Warm.setCorpusCache(&WarmCache);
  std::vector<BenchmarkRun> WarmRuns = Warm.generateSuiteData(Suite, Model);
  EXPECT_EQ(Warm.tracedBlocks(), 0u);
  CorpusCache::Stats WarmStats = WarmCache.stats();
  EXPECT_EQ(WarmStats.Hits, Suite.size());
  EXPECT_EQ(WarmStats.Misses, 0u);
  expectRunsIdentical(ColdRuns, WarmRuns);

  // The warm runs still carry a usable Program (it is regenerated, not
  // cached): downstream recompilation must agree with the cold path.
  ThresholdResult A = Warm.runThreshold(WarmRuns, 0.0, ripperLearner());
  ThresholdResult B = Cold.runThreshold(ColdRuns, 0.0, ripperLearner());
  EXPECT_EQ(A.TrainLS, B.TrainLS);
  EXPECT_EQ(A.TrainNS, B.TrainNS);
  EXPECT_EQ(A.ErrorPct, B.ErrorPct);
  EXPECT_EQ(A.PredictedTimePct, B.PredictedTimePct);
  EXPECT_EQ(A.EffortRatioWork, B.EffortRatioWork);
  EXPECT_EQ(A.AppRatioLN, B.AppRatioLN);
  EXPECT_EQ(A.AppRatioLS, B.AppRatioLS);
}

TEST(CorpusCache, CrashLeftoversKeepTheWarmRunHitting) {
  // A cold run killed mid-store leaves *.tmp.<pid>.<thread> files beside the
  // entries.  They are never read as entries: every entry the run did
  // store still hits, and a key whose only trace is a leftover misses
  // cleanly (a cold miss, not an invalid entry).
  TempCacheDir Dir("cc-crash");
  MachineModel Model = MachineModel::ppc7410();
  std::vector<BenchmarkSpec> Suite = testSuite();
  CorpusCache ColdCache(Dir.str());
  ExperimentEngine Cold(2);
  Cold.setCorpusCache(&ColdCache);
  std::vector<BenchmarkRun> ColdRuns = Cold.generateSuiteData(Suite, Model);
  std::vector<std::filesystem::path> Entries;
  for (const auto &E : std::filesystem::directory_iterator(Dir.Path))
    Entries.push_back(E.path());
  ASSERT_EQ(Entries.size(), Suite.size());
  for (const std::filesystem::path &P : Entries)
    plantInterruptedWrite(P.string(), slurp(P.string()));
  CorpusKey Unstored{"db", "ppc7410", GeneratorVersion,
                     TracePipelineVersion, 0x1234, ""};
  plantInterruptedWrite(ColdCache.entryPath(Unstored),
                        slurp(Entries.front().string()));

  CorpusCache WarmCache(Dir.str());
  ExperimentEngine Warm(2);
  Warm.setCorpusCache(&WarmCache);
  std::vector<BenchmarkRun> WarmRuns = Warm.generateSuiteData(Suite, Model);
  EXPECT_EQ(Warm.tracedBlocks(), 0u);
  EXPECT_EQ(WarmCache.stats().Hits, Suite.size());
  expectRunsIdentical(ColdRuns, WarmRuns);
  EXPECT_FALSE(WarmCache.load(Unstored).has_value());
  EXPECT_EQ(WarmCache.stats().InvalidEntries, 0u);
}

TEST(CorpusCache, WarmLoadIdenticalAtAnyJobCount) {
  TempCacheDir Dir("cc-jobs");
  MachineModel Model = MachineModel::ppc7410();
  std::vector<BenchmarkSpec> Suite = testSuite();

  CorpusCache Seed(Dir.str());
  ExperimentEngine Cold(1);
  Cold.setCorpusCache(&Seed);
  std::vector<BenchmarkRun> Reference = Cold.generateSuiteData(Suite, Model);

  for (unsigned Jobs : {1u, 4u}) {
    CorpusCache Cache(Dir.str());
    ExperimentEngine Warm(Jobs);
    Warm.setCorpusCache(&Cache);
    std::vector<BenchmarkRun> Runs = Warm.generateSuiteData(Suite, Model);
    EXPECT_EQ(Warm.tracedBlocks(), 0u) << "jobs " << Jobs;
    expectRunsIdentical(Reference, Runs);
  }
}

TEST(CorpusCache, ShrunkSpecNeverCollidesWithStockBenchmark) {
  // Same benchmark name, same model, different spec parameters: the
  // fingerprint must keep the corpora apart.
  TempCacheDir Dir("cc-fingerprint");
  MachineModel Model = MachineModel::ppc7410();
  std::vector<BenchmarkSpec> Small = shrinkSuite({*findBenchmarkSpec("db")}, 4);
  std::vector<BenchmarkSpec> Tiny = shrinkSuite({*findBenchmarkSpec("db")}, 2);
  EXPECT_NE(specFingerprint(Small[0]), specFingerprint(Tiny[0]));

  CorpusCache Cache(Dir.str());
  ExperimentEngine Engine(1);
  Engine.setCorpusCache(&Cache);
  std::vector<BenchmarkRun> A = Engine.generateSuiteData(Small, Model);
  std::vector<BenchmarkRun> B = Engine.generateSuiteData(Tiny, Model);
  EXPECT_NE(A[0].Records.size(), B[0].Records.size());
  CorpusCache::Stats St = Cache.stats();
  EXPECT_EQ(St.Hits, 0u);
  EXPECT_EQ(St.Stores, 2u);
}

TEST(CorpusCache, UnwritableDirectoryDegradesToTracing) {
  MachineModel Model = MachineModel::ppc7410();
  std::vector<BenchmarkSpec> Suite = shrinkSuite({*findBenchmarkSpec("db")}, 3);

  CorpusCache Cache("/proc/definitely/not/writable");
  ExperimentEngine Engine(1);
  Engine.setCorpusCache(&Cache);
  std::vector<BenchmarkRun> Runs = Engine.generateSuiteData(Suite, Model);
  ASSERT_EQ(Runs.size(), 1u);
  EXPECT_FALSE(Runs[0].Records.empty());
  EXPECT_GT(Engine.tracedBlocks(), 0u);
  CorpusCache::Stats St = Cache.stats();
  EXPECT_EQ(St.StoreFailures, 1u);
  EXPECT_EQ(St.Stores, 0u);

  // Uncached reference must agree on every deterministic field.
  std::vector<BenchmarkRun> Ref =
      ExperimentEngine().generateSuiteData(Suite, Model);
  expectRunsIdentical(Ref, Runs, /*CompareWallTime=*/false);
}
