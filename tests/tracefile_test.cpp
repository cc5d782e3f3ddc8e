//===- tests/tracefile_test.cpp - io/TraceStore unit tests --------------------===//
//
// CSV and SFTB1 binary trace round-trips, the CRLF and silent-truncation
// regression fixtures, and the line-numbered diagnostics contract.
//
//===----------------------------------------------------------------------===//

#include "io/TraceStore.h"

#include "TestHelpers.h"
#include "harness/ParallelExperiments.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace schedfilter;
using namespace schedfilter::test;

namespace {

/// Field-exact record comparison (doubles compared by value; traces never
/// contain NaNs, so == is bit-equality here).
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
