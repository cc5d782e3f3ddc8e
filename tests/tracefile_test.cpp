//===- tests/tracefile_test.cpp - io/TraceStore unit tests --------------------===//
//
// CSV and SFTB1 binary trace round-trips, the CRLF and silent-truncation
// regression fixtures, the line-numbered diagnostics contract, and one
// pinned layout per on-disk magic (SFTB1, SFCC2, SFFR1).
//
//===----------------------------------------------------------------------===//

#include "io/TraceStore.h"

#include "TestHelpers.h"
#include "harness/ParallelExperiments.h"
#include "io/FilterRegistry.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <map>
#include <sstream>

using namespace schedfilter;
using namespace schedfilter::test;

namespace {

/// Field-exact record comparison (doubles compared by value; the readers
/// reject NaNs, so == is bit-equality here).
void expectRecordsEqual(const std::vector<BlockRecord> &A,
                        const std::vector<BlockRecord> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    for (unsigned F = 0; F != NumFeatures; ++F)
      EXPECT_EQ(A[I].X[F], B[I].X[F]) << "record " << I << " feature " << F;
    EXPECT_EQ(A[I].CostNoSched, B[I].CostNoSched) << "record " << I;
    EXPECT_EQ(A[I].CostSched, B[I].CostSched) << "record " << I;
    EXPECT_EQ(A[I].ExecCount, B[I].ExecCount) << "record " << I;
  }
}

std::vector<BlockRecord> sampleRecords() {
  std::vector<BlockRecord> Records;
  BlockRecord R{};
  R.X[FeatBBLen] = 9;
  R.X[FeatLoad] = 0.333;
  R.X[FeatFloat] = 1.0 / 3.0; // needs 17 significant digits in text
  R.CostNoSched = 42;
  R.CostSched = 30;
  R.ExecCount = 123456;
  Records.push_back(R);
  R.X[FeatBBLen] = 2;
  R.X[FeatFloat] = 0.1 + 0.2;
  R.CostNoSched = 5;
  R.CostSched = 5;
  R.ExecCount = 1;
  Records.push_back(R);
  return Records;
}

} // namespace

TEST(TraceFile, RoundTripEmpty) {
  for (TraceFormat F : {TraceFormat::Csv, TraceFormat::Binary}) {
    std::stringstream SS;
    writeTrace({}, SS, F);
    ParseResult<std::vector<BlockRecord>> Back = readTrace(SS);
    ASSERT_TRUE(Back.has_value());
    EXPECT_TRUE(Back->empty());
  }
}

TEST(TraceFile, RoundTripPreservesEverything) {
  std::vector<BlockRecord> Records = sampleRecords();
  for (TraceFormat F : {TraceFormat::Csv, TraceFormat::Binary}) {
    std::stringstream SS;
    writeTrace(Records, SS, F);
    ParseResult<std::vector<BlockRecord>> Back = readTrace(SS);
    ASSERT_TRUE(Back.has_value());
    expectRecordsEqual(Records, *Back);
  }
}

TEST(TraceFile, CsvRoundTripsAwkwardDoublesExactly) {
  // The old writer printed features at default (6-digit) precision, so
  // 1/3 came back as 0.333333: labels survived but induced filters could
  // drift.  Cells are now shortest-round-trip.
  BlockRecord R{};
  R.X[FeatLoad] = 1.0 / 3.0;
  R.X[FeatStore] = 0.1 + 0.2;
  R.X[FeatFloat] = 5e-324; // smallest denormal
  R.X[FeatPEI] = 1e300;
  std::stringstream SS;
  writeTrace({R}, SS);
  ParseResult<std::vector<BlockRecord>> Back = readTrace(SS);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ((*Back)[0].X[FeatLoad], 1.0 / 3.0);
  EXPECT_EQ((*Back)[0].X[FeatStore], 0.1 + 0.2);
  EXPECT_EQ((*Back)[0].X[FeatFloat], 5e-324);
  EXPECT_EQ((*Back)[0].X[FeatPEI], 1e300);
}

TEST(TraceFile, AcceptsCrlfLineEndings) {
  // Regression: the header path stripped '\r' but data rows did not, so
  // any CRLF-saved trace was rejected wholesale.
  std::vector<BlockRecord> Records = sampleRecords();
  std::stringstream SS;
  writeTrace(Records, SS);
  std::string Text = SS.str();
  std::string Crlf;
  for (char C : Text) {
    if (C == '\n')
      Crlf += '\r';
    Crlf += C;
  }
  std::stringstream In(Crlf);
  ParseResult<std::vector<BlockRecord>> Back = readTrace(In);
  ASSERT_TRUE(Back.has_value()) << Back.error().str();
  expectRecordsEqual(Records, *Back);
}

TEST(TraceFile, RejectsWrongHeader) {
  std::stringstream SS("foo,bar\n1,2\n");
  ParseResult<std::vector<BlockRecord>> R = readTrace(SS);
  ASSERT_FALSE(R.has_value());
  EXPECT_EQ(R.error().Line, 1u);
}

TEST(TraceFile, RejectsShortRows) {
  std::vector<BlockRecord> Records(1);
  std::stringstream SS;
  writeTrace(Records, SS);
  std::string Text = SS.str();
  Text = Text.substr(0, Text.rfind(',')); // truncate the last column
  std::stringstream Bad(Text);
  ParseResult<std::vector<BlockRecord>> R = readTrace(Bad);
  ASSERT_FALSE(R.has_value());
  EXPECT_EQ(R.error().Line, 2u);
  EXPECT_NE(R.error().Message.find("cells"), std::string::npos);
}

TEST(TraceFile, RejectsNonNumericCell) {
  std::vector<BlockRecord> Records(1);
  std::stringstream SS;
  writeTrace(Records, SS);
  std::string Text = SS.str();
  Text.replace(Text.rfind('0'), 1, "x");
  std::stringstream Bad(Text);
  EXPECT_FALSE(readTrace(Bad).has_value());
}

TEST(TraceFile, RejectsNonFiniteFeatureCells) {
  // strtod accepts every one of these spellings; a NaN or infinite feature
  // would get a rank whose ">=" candidates miscount coverage, so the
  // reader rejects the row and names its line and column.  Hex floats and
  // a leading blank are outside parseDecimal's grammar.
  std::stringstream SS;
  writeTrace(sampleRecords(), SS);
  const std::string Text = SS.str();
  size_t Row2 = Text.find("\n2,"); // line 3 starts after it: bbLen 2
  ASSERT_NE(Row2, std::string::npos);
  ++Row2;
  for (const char *Cell : {"nan", "inf", "-inf", "1e999", "0x1p3", " 4"}) {
    std::string Bad = Text;
    Bad.replace(Row2, 1, Cell);
    std::stringstream In(Bad);
    ParseResult<std::vector<BlockRecord>> R = readTrace(In);
    ASSERT_FALSE(R.has_value()) << Cell;
    EXPECT_EQ(R.error().Line, 3u) << Cell;
    EXPECT_NE(R.error().Message.find(getFeatureName(FeatBBLen)),
              std::string::npos)
        << R.error().Message;
    EXPECT_NE(R.error().Message.find(Cell), std::string::npos)
        << R.error().Message;
  }
  std::stringstream Clean(Text);
  EXPECT_TRUE(readTrace(Clean).has_value());
}

TEST(TraceFile, RejectsFractionalCostCells) {
  // Regression: "7154.5" used to be strtod-parsed and silently truncated
  // to 7154, corrupting training data without a diagnostic.
  std::vector<BlockRecord> Records = sampleRecords();
  std::stringstream SS;
  writeTrace(Records, SS);
  std::string Text = SS.str();
  size_t Pos = Text.rfind(",30,");
  ASSERT_NE(Pos, std::string::npos);
  Text.replace(Pos, 4, ",30.5,");
  std::stringstream Bad(Text);
  ParseResult<std::vector<BlockRecord>> R = readTrace(Bad);
  ASSERT_FALSE(R.has_value());
  EXPECT_EQ(R.error().Line, 2u); // the record that held CostSched = 30
  EXPECT_NE(R.error().Message.find("costSched"), std::string::npos);
  EXPECT_NE(R.error().Message.find("30.5"), std::string::npos);
}

TEST(TraceFile, RejectsNegativeAndScientificCostCells) {
  for (const char *Bad : {"-5", "1e3", "+7", " 7"}) {
    std::vector<BlockRecord> Records(1);
    std::stringstream SS;
    writeTrace(Records, SS);
    std::string Text = SS.str();
    size_t Pos = Text.rfind(",1\n"); // execCount of the default record
    ASSERT_NE(Pos, std::string::npos);
    Text.replace(Pos + 1, 1, Bad);
    std::stringstream In(Text);
    ParseResult<std::vector<BlockRecord>> R = readTrace(In);
    ASSERT_FALSE(R.has_value()) << "accepted execCount '" << Bad << "'";
    EXPECT_EQ(R.error().Line, 2u);
  }
}

TEST(TraceFile, RejectsUint64OverflowInsteadOfTruncating) {
  // 2^64 = 18446744073709551616 survived the old strtod path as a
  // rounded double and came back as a wrong uint64_t.
  std::vector<BlockRecord> Records(1);
  std::stringstream SS;
  writeTrace(Records, SS);
  std::string Text = SS.str();
  size_t Pos = Text.rfind(",1\n");
  ASSERT_NE(Pos, std::string::npos);
  Text.replace(Pos + 1, 1, "18446744073709551616");
  std::stringstream In(Text);
  ParseResult<std::vector<BlockRecord>> R = readTrace(In);
  ASSERT_FALSE(R.has_value());
  EXPECT_EQ(R.error().Line, 2u);
  EXPECT_NE(R.error().Message.find("overflows"), std::string::npos);
  // The largest uint64_t itself is representable and must parse.
  std::string Max = SS.str();
  Pos = Max.rfind(",1\n");
  Max.replace(Pos + 1, 1, "18446744073709551615");
  std::stringstream MaxIn(Max);
  ParseResult<std::vector<BlockRecord>> Ok = readTrace(MaxIn);
  ASSERT_TRUE(Ok.has_value()) << Ok.error().str();
  EXPECT_EQ((*Ok)[0].ExecCount, 18446744073709551615ull);
}

TEST(TraceFile, ErrorsNameTheOffendingLine) {
  std::vector<BlockRecord> Records(4);
  std::stringstream SS;
  writeTrace(Records, SS);
  std::string Text = SS.str();
  // Break the third record: header is line 1, so that is line 4.
  size_t Row = 0, Pos = 0;
  for (; Row != 3; ++Row)
    Pos = Text.find('\n', Pos) + 1;
  Text.insert(Pos, "bad,row\n");
  std::stringstream In(Text);
  ParseResult<std::vector<BlockRecord>> R = readTrace(In);
  ASSERT_FALSE(R.has_value());
  EXPECT_EQ(R.error().Line, 4u);
}

TEST(TraceFile, BinaryRejectsCorruption) {
  std::vector<BlockRecord> Records = sampleRecords();
  std::stringstream SS;
  writeTrace(Records, SS, TraceFormat::Binary);
  std::string Bytes = SS.str();

  // Flip one payload byte: checksum must catch it.
  std::string Flipped = Bytes;
  Flipped[Flipped.size() - 3] = static_cast<char>(
      static_cast<unsigned char>(Flipped[Flipped.size() - 3]) ^ 0x40);
  std::stringstream FlippedIn(Flipped);
  ParseResult<std::vector<BlockRecord>> R1 = readTrace(FlippedIn);
  ASSERT_FALSE(R1.has_value());
  EXPECT_NE(R1.error().Message.find("checksum"), std::string::npos);

  // Truncate the payload: the header's record count must catch it.
  std::stringstream TruncIn(Bytes.substr(0, Bytes.size() - 5));
  ParseResult<std::vector<BlockRecord>> R2 = readTrace(TruncIn);
  ASSERT_FALSE(R2.has_value());
  EXPECT_NE(R2.error().Message.find("truncated"), std::string::npos);

  // Trailing garbage after the promised payload.
  std::stringstream TrailIn(Bytes + "xyz");
  ParseResult<std::vector<BlockRecord>> R3 = readTrace(TrailIn);
  ASSERT_FALSE(R3.has_value());
  EXPECT_NE(R3.error().Message.find("trailing"), std::string::npos);
}

TEST(TraceFile, BinaryRejectsNonFiniteFeatures) {
  // The writer checksums whatever it is given, so the checksum passes and
  // the decoder itself must refuse the NaN, naming the record.
  std::vector<BlockRecord> Records = sampleRecords();
  Records[1].X[FeatLoad] = std::numeric_limits<double>::quiet_NaN();
  std::stringstream SS;
  writeTrace(Records, SS, TraceFormat::Binary);
  std::stringstream In(SS.str());
  ParseResult<std::vector<BlockRecord>> R = readTrace(In);
  ASSERT_FALSE(R.has_value());
  EXPECT_EQ(R.error().Line, 2u);
  EXPECT_NE(R.error().Message.find(getFeatureName(FeatLoad)),
            std::string::npos)
      << R.error().Message;
  EXPECT_NE(R.error().Message.find("finite"), std::string::npos)
      << R.error().Message;
}

TEST(TraceFile, BinaryRejectsForeignFeatureCount) {
  std::vector<BlockRecord> Records(1);
  std::stringstream SS;
  writeTrace(Records, SS, TraceFormat::Binary);
  std::string Bytes = SS.str();
  // The u16 feature count sits right after "SFTB1\n".
  Bytes[6] = static_cast<char>(NumFeatures + 1);
  std::stringstream In(Bytes);
  ParseResult<std::vector<BlockRecord>> R = readTrace(In);
  ASSERT_FALSE(R.has_value());
  EXPECT_NE(R.error().Message.find("features"), std::string::npos);
}

TEST(TraceFile, RealTraceRoundTripsBothFormatsAndLabelsIdentically) {
  MachineModel Model = MachineModel::ppc7410();
  std::vector<BenchmarkRun> Runs = ExperimentEngine().generateSuiteData(
      shrinkSuite({*findBenchmarkSpec("db")}, 5), Model);
  const std::vector<BlockRecord> &Records = Runs[0].Records;

  for (TraceFormat F : {TraceFormat::Csv, TraceFormat::Binary}) {
    std::stringstream SS;
    writeTrace(Records, SS, F);
    ParseResult<std::vector<BlockRecord>> Back = readTrace(SS);
    ASSERT_TRUE(Back.has_value()) << Back.error().str();
    expectRecordsEqual(Records, *Back);

    // Labeling the reloaded trace must agree at every threshold.
    for (double T : {0.0, 20.0, 45.0}) {
      Dataset A = buildDataset(Records, T, "a");
      Dataset B = buildDataset(*Back, T, "b");
      ASSERT_EQ(A.size(), B.size());
      for (size_t I = 0; I != A.size(); ++I)
        EXPECT_EQ(A[I].Y, B[I].Y);
    }
  }
}

TEST(TraceFile, CsvAndBinaryDecodeToIdenticalRecords) {
  // Property: whatever the suite generator emits, both encodings decode
  // to field-identical records (the acceptance bit-identity guarantee).
  MachineModel Model = MachineModel::ppc970();
  std::vector<BenchmarkRun> Runs = ExperimentEngine().generateSuiteData(
      shrinkSuite({*findBenchmarkSpec("scimark")}, 4), Model);
  const std::vector<BlockRecord> &Records = Runs[0].Records;

  std::stringstream Csv, Bin;
  writeTrace(Records, Csv, TraceFormat::Csv);
  writeTrace(Records, Bin, TraceFormat::Binary);
  ParseResult<std::vector<BlockRecord>> FromCsv = readTrace(Csv);
  ParseResult<std::vector<BlockRecord>> FromBin = readTrace(Bin);
  ASSERT_TRUE(FromCsv.has_value());
  ASSERT_TRUE(FromBin.has_value());
  expectRecordsEqual(*FromCsv, *FromBin);
  expectRecordsEqual(Records, *FromCsv);
}

TEST(WriteFileAtomic, InterruptedWriteNeverShadowsTheTarget) {
  // A writer killed between its temp write and its rename leaves a
  // *.tmp.<pid>.<thread> file.  The target keeps its old bytes, the next write
  // replaces them whole, and the leftover is neither read nor removed.
  TempCacheDir Dir("atomic-write");
  const std::string Path = (Dir.Path / "entry.bin").string();
  ASSERT_TRUE(wire::writeFileAtomic(Path, "old entry"));
  const std::string Leftover =
      plantInterruptedWrite(Path, "an entry that was never renamed");
  EXPECT_EQ(slurp(Path), "old entry");
  ASSERT_TRUE(wire::writeFileAtomic(Path, "newer entry"));
  EXPECT_EQ(slurp(Path), "newer entry");

  // Only the target and the foreign leftover remain: each write's own
  // temp file left with its rename, and a failed write (its parent is a
  // file, not a directory) leaves none.
  EXPECT_FALSE(wire::writeFileAtomic(Path + "/child", "unwritable"));
  std::vector<std::string> Names;
  for (const auto &E : std::filesystem::directory_iterator(Dir.Path))
    Names.push_back(E.path().string());
  std::sort(Names.begin(), Names.end());
  EXPECT_EQ(Names, (std::vector<std::string>{Path, Leftover}));
}

TEST(FileFormats, LayoutPinnedPerMagic) {
  // One fixed artifact per on-disk magic, hashed whole.  A format is
  // never changed silently (a new layout is a new magic), so a mismatch
  // here means: bump the magic, then pin the new layout under it.  The
  // key's versions are literals, so a version bump moves no pin.
  static const std::map<std::string, uint64_t> Pinned = {
      {"SFTB1", 0x918b6845c33fd9f3},
      {"SFCC2", 0x5f0146cfc4807613},
      {"SFFR1", 0xf1d640474aeb1cfa},
  };
  TempCacheDir Dir("format-pins");
  std::vector<BlockRecord> Records = sampleRecords();
  std::map<std::string, std::string> Files;

  std::ostringstream Trace;
  writeTrace(Records, Trace, TraceFormat::Binary);
  Files[TraceBinaryMagic] = Trace.str();

  CorpusCache Cache(Dir.str() + "/corpus");
  CorpusKey Key{"db", "ppc7410", 1, 1, 0x1234, "specjvm98"};
  FixedPolicyReports Reports = fixedPolicyReports(Records, 17);
  ASSERT_TRUE(Cache.store(Key, Records, Reports.Never, Reports.Always));
  Files[CorpusEntryMagic] = slurp(Cache.entryPath(Key));

  FilterRegistry Registry(Dir.str() + "/registry");
  FilterVersionMeta Meta;
  Meta.Version = 2;
  Meta.ParentVersion = 1;
  Meta.TriggerTick = 4096;
  Meta.SessionSeed = 99;
  Meta.CorpusRecords = Records.size();
  Meta.ThresholdPct = 12.5;
  Meta.Model = "ppc7410";
  Meta.Workload = "db";
  RuleSet Rules(Label::NS);
  Rule R;
  R.Conclusion = Label::LS;
  R.Conditions.push_back({FeatBBLen, false, 7.0});
  R.Conditions.push_back({FeatLoad, true, 1.0 / 3.0});
  Rules.addRule(std::move(R));
  ASSERT_TRUE(Registry.store(Meta, Rules));
  Files[FilterRegistryMagic] = slurp(Registry.entryPath(Meta.Version));

  ASSERT_EQ(Files.size(), Pinned.size());
  for (const auto &[Magic, Bytes] : Files) {
    EXPECT_EQ(Bytes.compare(0, Magic.size() + 1, Magic + "\n"), 0) << Magic;
    auto It = Pinned.find(Magic);
    ASSERT_NE(It, Pinned.end())
        << "no layout pinned for " << Magic << ": bump the magic";
    uint64_t Got = wire::fnv1a(Bytes.data(), Bytes.size());
    EXPECT_EQ(Got, It->second)
        << Magic << "'s layout changed (FNV-1a 0x" << formatHex64(Got)
        << "): bump the magic and pin the new layout under it";
  }
}
