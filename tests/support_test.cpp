//===- tests/support_test.cpp - support/ unit tests -------------------------===//

#include "support/CdfTable.h"
#include "support/CommandLine.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <sstream>

using namespace schedfilter;

TEST(Rng, DeterministicFromSeed) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next64(), B.next64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.next32() == B.next32();
  EXPECT_LT(Same, 4);
}

TEST(Rng, BelowIsInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.below(13), 13u);
}

TEST(Rng, RangeInclusive) {
  Rng R(7);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    int V = R.range(3, 6);
    EXPECT_GE(V, 3);
    EXPECT_LE(V, 6);
    SawLo |= V == 3;
    SawHi |= V == 6;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng R(9);
  for (int I = 0; I < 1000; ++I) {
    double U = R.uniform();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng R(11);
  for (int I = 0; I < 50; ++I) {
    EXPECT_FALSE(R.chance(0.0));
    EXPECT_TRUE(R.chance(1.0));
  }
}

TEST(Rng, GeometricAtLeastOne) {
  Rng R(13);
  for (int I = 0; I < 1000; ++I)
    EXPECT_GE(R.geometric(0.3), 1);
}

TEST(Rng, GeometricMeanRoughlyInverseP) {
  Rng R(17);
  double Sum = 0;
  const int N = 20000;
  for (int I = 0; I < N; ++I)
    Sum += R.geometric(0.25);
  EXPECT_NEAR(Sum / N, 4.0, 0.2);
}

TEST(Rng, GeometricSaturatesForTinyP) {
  // The mean is ~1e12 trials, beyond an int: the draw saturates at
  // INT_MAX instead of overflowing the conversion (undefined behaviour
  // that used to land on INT_MIN and then clamp to 1).
  Rng R(7);
  int Saturated = 0;
  for (int I = 0; I < 100; ++I) {
    int K = R.geometric(1e-12);
    EXPECT_GT(K, 1);
    Saturated += K == INT_MAX;
  }
  EXPECT_GE(Saturated, 95);
}

TEST(Rng, PickWeightedRespectsZeroWeight) {
  Rng R(19);
  std::vector<double> W = {0.0, 1.0, 0.0};
  for (int I = 0; I < 200; ++I)
    EXPECT_EQ(R.pickWeighted(W), 1u);
}

TEST(Rng, PickWeightedProportions) {
  Rng R(23);
  std::vector<double> W = {1.0, 3.0};
  int Count1 = 0;
  const int N = 20000;
  for (int I = 0; I < N; ++I)
    Count1 += R.pickWeighted(W) == 1;
  EXPECT_NEAR(static_cast<double>(Count1) / N, 0.75, 0.02);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng A(31);
  Rng B = A.split();
  Rng C = A.split();
  EXPECT_NE(B.next64(), C.next64());
}

TEST(Rng, ForkReplaysExactly) {
  Rng A(31);
  Rng B = A.fork(7);
  Rng C = A.fork(7);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(B.next64(), C.next64());
}

TEST(Rng, ForkDoesNotAdvanceParent) {
  Rng A(31), Untouched(31);
  (void)A.fork(0);
  (void)A.fork(123456789);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next64(), Untouched.next64());
}

TEST(Rng, ForkStreamsIndependent) {
  // Distinct stream ids (including adjacent ones) must give unrelated
  // streams; sample a few and check pairwise disagreement.
  Rng A(31);
  std::vector<uint64_t> Firsts;
  for (uint64_t Id : {0ULL, 1ULL, 2ULL, 1000ULL, 0xFFFFFFFFFFFFULL}) {
    Rng S = A.fork(Id);
    Firsts.push_back(S.next64());
  }
  for (size_t I = 0; I != Firsts.size(); ++I)
    for (size_t J = I + 1; J != Firsts.size(); ++J)
      EXPECT_NE(Firsts[I], Firsts[J]);
  // Longer prefixes of two adjacent streams should also disagree almost
  // everywhere.
  Rng S0 = A.fork(0), S1 = A.fork(1);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += S0.next32() == S1.next32();
  EXPECT_LT(Same, 4);
}

TEST(Rng, ForkDependsOnParentState) {
  Rng A(31), B(32);
  Rng FA = A.fork(5), FB = B.fork(5);
  EXPECT_NE(FA.next64(), FB.next64());
}

TEST(Rng, UniformScalesNext53) {
  Rng A(99), B(99);
  for (int I = 0; I < 1000; ++I) {
    uint64_t Raw = B.next53();
    EXPECT_LT(Raw, uint64_t(1) << 53);
    EXPECT_EQ(A.uniform(), static_cast<double>(Raw) * 0x1p-53);
  }
}

//===----------------------------------------------------------------------===//
// CdfTable: the guide table returns std::upper_bound's index, clamped to
// the last entry, for every draw.
//===----------------------------------------------------------------------===//

namespace {

std::vector<double> runningSum(const std::vector<double> &Weights) {
  std::vector<double> Cum;
  double Total = 0.0;
  for (double W : Weights)
    Cum.push_back(Total += W);
  return Cum;
}

/// The recipe the table replaces: upper_bound on uniform() * Total.
size_t upperBoundIndex(const std::vector<double> &Cum, double U) {
  size_t I = static_cast<size_t>(
      std::upper_bound(Cum.begin(), Cum.end(), U) - Cum.begin());
  return std::min(I, Cum.size() - 1);
}

/// Checks \p T (built over \p Cum) against upper_bound on \p NumDraws
/// draws of a seeded stream -- uniform() on one copy, next53() on the
/// other -- and on the draws nearest each bucket edge and each CDF step.
void expectUpperBoundIndex(const CdfTable &T, const std::vector<double> &Cum,
                           Rng &Draws, int NumDraws = 4000) {
  const double Total = Cum.back();
  for (int I = 0; I < NumDraws; ++I) {
    Rng Ref = Draws;
    ASSERT_EQ(T.index(Draws.next53()),
              upperBoundIndex(Cum, Ref.uniform() * Total));
  }
  const uint64_t Top = (uint64_t(1) << 53) - 1;
  std::vector<uint64_t> Raws = {0, 1, Top - 1, Top};
  for (unsigned K = 1; K <= 12; ++K)
    for (uint64_t B = 1; B < (uint64_t(1) << K); ++B) {
      Raws.push_back(B << (53 - K));
      Raws.push_back((B << (53 - K)) - 1);
    }
  for (double C : Cum) {
    double Edge = Total > 0.0 ? C / Total * 0x1p53 : 0.0;
    uint64_t R = static_cast<uint64_t>(std::min(Edge, 0x1p53 - 1));
    for (uint64_t Near = R > 2 ? R - 2 : 0; Near <= std::min(Top, R + 2);
         ++Near)
      Raws.push_back(Near);
  }
  for (uint64_t Raw : Raws)
    ASSERT_EQ(T.index(Raw),
              upperBoundIndex(Cum, static_cast<double>(Raw) * 0x1p-53 * Total))
        << "raw draw " << Raw;
}

} // namespace

TEST(CdfTable, ZeroWeightRunsGiveDuplicateSteps) {
  std::vector<double> Cum =
      runningSum({0, 0, 3, 0, 0, 0, 1, 0, 2, 0, 0, 5, 0, 0, 0, 0, 1, 0, 0});
  Rng R(1);
  expectUpperBoundIndex(CdfTable(Cum), Cum, R);
}

TEST(CdfTable, OneDominantWeight) {
  for (const std::vector<double> &W :
       {std::vector<double>{1e-9, 1e9, 1e-9, 1e-9},
        std::vector<double>{1, 1, 1e12, 1, 1, 1, 1},
        std::vector<double>{7e15, 1, 1, 1}}) {
    std::vector<double> Cum = runningSum(W);
    Rng R(2);
    expectUpperBoundIndex(CdfTable(Cum), Cum, R);
  }
}

TEST(CdfTable, SingleEntry) {
  std::vector<double> Cum = {5.0};
  CdfTable T(Cum);
  Rng R(3);
  expectUpperBoundIndex(T, Cum, R);
  EXPECT_EQ(T.size(), 1u);
  EXPECT_EQ(T.index((uint64_t(1) << 53) - 1), 0u);
}

TEST(CdfTable, DenormalWeightsAndDrawsThatRoundUpToTheTotal) {
  // At denormal scale the product rounds onto the CDF steps themselves,
  // and the largest draws round up to Cum.back(): upper_bound then
  // returns n, which the table must clamp to n - 1 as the old recipe did.
  const double D = 4.9406564584124654e-324; // smallest denormal
  std::vector<double> Cum = runningSum({D, 2 * D, 0, D, 3 * D});
  const uint64_t Top = (uint64_t(1) << 53) - 1;
  ASSERT_EQ(static_cast<double>(Top) * 0x1p-53 * Cum.back(), Cum.back());
  ASSERT_EQ(static_cast<size_t>(std::upper_bound(Cum.begin(), Cum.end(),
                                                 Cum.back()) -
                                Cum.begin()),
            Cum.size());
  CdfTable T(Cum);
  EXPECT_EQ(T.index(Top), Cum.size() - 1);
  Rng R(4);
  expectUpperBoundIndex(T, Cum, R);
}

TEST(CdfTable, AllZeroWeightsAndEmptySums) {
  std::vector<double> Cum = runningSum({0, 0, 0});
  CdfTable T(Cum);
  EXPECT_EQ(T.total(), 0.0);
  Rng R(5);
  expectUpperBoundIndex(T, Cum, R);
  // An empty sum (an app without methods) is a table of total 0.
  T.rebuild({});
  EXPECT_EQ(T.size(), 0u);
  EXPECT_EQ(T.total(), 0.0);
}

TEST(CdfTable, RebuiltMidStreamAsDriftDoes) {
  // One table, rebuilt between stretches of a continuing stream (the
  // per-epoch interleave under mix drift), growing and shrinking.
  CdfTable T;
  Rng Draws(6);
  Rng Drift(7);
  for (int Epoch = 0; Epoch < 40; ++Epoch) {
    std::vector<double> W(1 + Drift.below(Epoch % 2 ? 40 : 5));
    for (double &X : W)
      X = Drift.chance(0.2) ? 0.0 : Drift.uniform(0.01, 3.0);
    std::vector<double> Cum = runningSum(W);
    T.rebuild(Cum);
    EXPECT_EQ(T.size(), Cum.size());
    expectUpperBoundIndex(T, Cum, Draws);
  }
}

TEST(CdfTable, ProbesAndLoopMatchUpperBoundOverAMillionDraws) {
  // index() settles a draw with two branch-free probes and finishes a
  // long bucket in a loop.  Sizes on either side of each power of two
  // change the bucket count; runs of zero weights stack duplicate steps;
  // one dominant weight crowds every other step into the end buckets,
  // where a draw walks many entries and the loop runs.  21 sizes x 3
  // shapes x 16000 seeded draws, plus each table's bucket-edge draws.
  std::vector<size_t> Sizes = {1, 2, 3};
  for (unsigned K = 2; K <= 10; ++K) {
    Sizes.push_back((size_t(1) << K) - 1);
    Sizes.push_back((size_t(1) << K) + 1);
  }
  Rng Shape(8);
  Rng Draws(9);
  for (size_t N : Sizes)
    for (int Kind = 0; Kind != 3; ++Kind) {
      std::vector<double> W(N);
      for (size_t I = 0; I != N; ++I) {
        W[I] = Shape.uniform(0.01, 3.0);
        if (Kind == 1 && (I / 8) % 2 == 1)
          W[I] = 0.0; // alternating runs of eight zeros
        if (Kind == 2 && I == N / 2)
          W[I] = 1e12;
      }
      std::vector<double> Cum = runningSum(W);
      SCOPED_TRACE("n = " + std::to_string(N) +
                   ", shape = " + std::to_string(Kind));
      expectUpperBoundIndex(CdfTable(Cum), Cum, Draws, 16000);
    }
}

TEST(Statistics, MeanAndMedian) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Statistics, GeometricMeanBasics) {
  EXPECT_NEAR(geometricMean({2, 8}), 4.0, 1e-9);
  EXPECT_NEAR(geometricMean({5}), 5.0, 1e-9);
}

TEST(Statistics, GeometricMeanClampsZeros) {
  // A single 0 must not zero out the whole mean (Table 3 has exact zeros).
  double G = geometricMean({0.0, 1.0, 1.0});
  EXPECT_GT(G, 0.0);
  EXPECT_LT(G, 1.0);
}

TEST(Statistics, SafeRatio) {
  EXPECT_DOUBLE_EQ(safeRatio(6, 3), 2.0);
  EXPECT_DOUBLE_EQ(safeRatio(6, 0, -1.0), -1.0);
}

TEST(StringUtils, FormatDouble) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatDouble(2.0, 0), "2");
}

TEST(StringUtils, Padding) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("abcd", 2), "abcd");
}

TEST(StringUtils, FormatPercent) {
  EXPECT_EQ(formatPercent(0.379, 1), "37.9%");
}

TEST(StringUtils, FormatHex64) {
  EXPECT_EQ(formatHex64(0), "0000000000000000");
  EXPECT_EQ(formatHex64(255), "00000000000000ff");
  EXPECT_EQ(formatHex64(0xfedcba9876543210ull), "fedcba9876543210");
}

TEST(StringUtils, ParseDecimalSpellings) {
  const std::pair<const char *, double> Accepted[] = {
      {"5", 5.0},     {"-3.25", -3.25}, {"+0.5", 0.5}, {"40.", 40.0},
      {".5", 0.5},    {"1e2", 100.0},   {"1E-3", 1e-3}, {"-0", 0.0},
      {"00012", 12.0}};
  for (const auto &[Text, Want] : Accepted) {
    std::optional<double> V = parseDecimal(Text);
    ASSERT_TRUE(V.has_value()) << Text;
    EXPECT_EQ(*V, Want) << Text;
  }
  // Non-finite spellings parse; the caller rejects them.
  EXPECT_TRUE(std::isnan(*parseDecimal("nan")));
  EXPECT_EQ(*parseDecimal("-inf"), -HUGE_VAL);
  EXPECT_EQ(*parseDecimal("1e999"), HUGE_VAL);
  for (const char *Text : {"", " 5", "\t5", "5 ", "0x10", "0X10", "0x1p3",
                           "abc", "1.5x", "1.5.2", "3,0", "e5", "+", "-",
                           "--5", "nan(0x1)"})
    EXPECT_FALSE(parseDecimal(Text).has_value()) << '\'' << Text << '\'';
  // The whole view is the token, even when it is a prefix of a longer
  // string or holds a NUL.
  EXPECT_EQ(*parseDecimal(std::string_view("12345", 2)), 12.0);
  EXPECT_FALSE(parseDecimal(std::string_view("1\0" "2", 3)).has_value());
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter T({"a", "long-header"});
  T.addRow({"xxxx", "1"});
  std::ostringstream OS;
  T.print(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("long-header"), std::string::npos);
  EXPECT_NE(Out.find("xxxx"), std::string::npos);
  EXPECT_EQ(T.numRows(), 1u);
}

TEST(TablePrinter, CsvRoundTripShape) {
  TablePrinter T({"x", "y"});
  T.addRow({"1", "2"});
  T.addRow({"3", "4"});
  std::ostringstream OS;
  T.printCsv(OS);
  EXPECT_EQ(OS.str(), "x,y\n1,2\n3,4\n");
}

TEST(TablePrinter, ShortRowsPadded) {
  TablePrinter T({"x", "y"});
  T.addRow({"only"});
  std::ostringstream OS;
  T.printCsv(OS);
  EXPECT_EQ(OS.str(), "x,y\nonly,\n");
}

TEST(Timer, AccumulatesAcrossIntervals) {
  AccumulatingTimer T;
  T.start();
  T.stop();
  int64_t First = T.nanoseconds();
  T.start();
  T.stop();
  EXPECT_GE(T.nanoseconds(), First);
  T.reset();
  EXPECT_EQ(T.nanoseconds(), 0);
}

namespace {

/// Parses \p Args (argv without the program name) against the declared
/// flags, returning the parse and its stderr.
std::pair<std::optional<CommandLine>, std::string>
parseArgs(std::vector<const char *> Args, FlagList Bools, FlagList Values) {
  Args.insert(Args.begin(), "prog");
  testing::internal::CaptureStderr();
  std::optional<CommandLine> CL =
      parseCommandLine(static_cast<int>(Args.size()),
                       const_cast<char **>(Args.data()), Bools, Values);
  return {std::move(CL), testing::internal::GetCapturedStderr()};
}

} // namespace

TEST(CommandLine, OptionsAndPositionals) {
  // A boolean never consumes the token after it: "sf-train --no-cache
  // db.csv jess.csv" trains on both traces.
  auto [CL, Err] = parseArgs({"--verbose", "trace.csv", "--threshold", "20",
                              "--learner=tree", "more.csv"},
                             {"verbose"}, {"threshold", "learner"});
  ASSERT_TRUE(CL.has_value()) << Err;
  EXPECT_EQ(CL->get("threshold"), "20");
  EXPECT_EQ(CL->get("learner"), "tree");
  EXPECT_EQ(CL->get("verbose"), "");
  EXPECT_TRUE(CL->has("verbose"));
  EXPECT_FALSE(CL->has("missing"));
  EXPECT_EQ(CL->get("missing", "dflt"), "dflt");
  ASSERT_EQ(CL->positional().size(), 2u);
  EXPECT_EQ(CL->positional()[0], "trace.csv");
  EXPECT_EQ(CL->positional()[1], "more.csv");
  // A value may itself contain '=' or start with a single '-'.
  auto [Eq, EqErr] = parseArgs({"--learner=a=b", "--threshold", "-5"}, {},
                               {"threshold", "learner"});
  ASSERT_TRUE(Eq.has_value()) << EqErr;
  EXPECT_EQ(Eq->get("learner"), "a=b");
  EXPECT_EQ(Eq->get("threshold"), "-5");
}

TEST(CommandLine, UnknownFlagNamesTheFirstStrangerInArgvOrder) {
  // "--threshhold" sorts before "--zzz" but comes after it in argv.
  auto [CL, Err] = parseArgs({"trace.csv", "--zzz", "--threshold", "5",
                              "--threshhold", "5"},
                             {}, {"threshold"});
  EXPECT_FALSE(CL.has_value());
  EXPECT_EQ(Err, "error: unknown option --zzz\n");
  auto [CL2, Err2] = parseArgs({"--threshold", "5", "--threshhold=5"}, {},
                               {"threshold"});
  EXPECT_FALSE(CL2.has_value());
  EXPECT_EQ(Err2, "error: unknown option --threshhold\n");
}

TEST(CommandLine, RejectsMisusedDeclaredFlags) {
  const FlagList Bools = {"fix"};
  const FlagList Values = {"out"};
  const std::pair<std::vector<const char *>, const char *> Cases[] = {
      {{"--fix=yes"}, "error: --fix takes no value (got '--fix=yes')\n"},
      {{"--fix="}, "error: --fix takes no value (got '--fix=')\n"},
      {{"--out"}, "error: --out expects a value\n"},
      {{"--out="}, "error: --out expects a value\n"},
      {{"--out", ""}, "error: --out expects a value\n"},
      {{"--out", "--fix"}, "error: --out expects a value\n"},
      {{"--fix", "--fix"}, "error: --fix given twice\n"},
      {{"--out", "a", "--out=b"}, "error: --out given twice\n"},
      {{"--", "x"}, "error: unknown option --\n"},
  };
  for (const auto &[Args, Want] : Cases) {
    auto [CL, Err] = parseArgs(Args, Bools, Values);
    EXPECT_FALSE(CL.has_value()) << Want;
    EXPECT_EQ(Err, Want);
  }
  // The value flag's "--out=--fix" spelling is how a value that starts
  // with "--" gets through.
  auto [CL, Err] = parseArgs({"--out=--fix"}, Bools, Values);
  ASSERT_TRUE(CL.has_value()) << Err;
  EXPECT_EQ(CL->get("out"), "--fix");
  EXPECT_FALSE(CL->has("fix"));
}

TEST(CommandLine, GetDouble) {
  auto [CL, Err] = parseArgs({"--threshold", "12.5"}, {}, {"threshold"});
  ASSERT_TRUE(CL.has_value()) << Err;
  std::optional<double> T = CL->getDouble("threshold", 0.0);
  ASSERT_TRUE(T.has_value());
  EXPECT_DOUBLE_EQ(*T, 12.5);
  std::optional<double> Absent = CL->getDouble("absent", 7.0);
  ASSERT_TRUE(Absent.has_value());
  EXPECT_DOUBLE_EQ(*Absent, 7.0);
}

TEST(CommandLine, GetDoubleAcceptsTheUsualSpellings) {
  auto [CL, Err] = parseArgs({"--a=-3.25", "--b=1e2", "--c=+0.5", "--d=40."},
                             {}, {"a", "b", "c", "d"});
  ASSERT_TRUE(CL.has_value()) << Err;
  EXPECT_DOUBLE_EQ(*CL->getDouble("a", 0.0), -3.25);
  EXPECT_DOUBLE_EQ(*CL->getDouble("b", 0.0), 100.0);
  EXPECT_DOUBLE_EQ(*CL->getDouble("c", 0.0), 0.5);
  EXPECT_DOUBLE_EQ(*CL->getDouble("d", 0.0), 40.0);
}

TEST(CommandLine, GetDoubleRejectsGarbage) {
  // Each value used to strtod-parse as 0.0 (or truncate at the junk);
  // strict parsing must reject the whole token instead.
  auto [CL, Err] = parseArgs({"--a=abc", "--b=1.5x", "--d=nan", "--e=inf",
                              "--f=1e999", "--g=12 trailing", "--h=0x10",
                              "--i=0x1p3", "--j= 5"},
                             {}, {"a", "b", "d", "e", "f", "g", "h", "i", "j"});
  ASSERT_TRUE(CL.has_value()) << Err;
  for (const char *Name : {"a", "b", "d", "e", "f", "g", "h", "i", "j"}) {
    testing::internal::CaptureStderr();
    EXPECT_FALSE(CL->getDouble(Name, 0.0).has_value()) << Name;
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              std::string("error: --") + Name + ": expected a number, got '" +
                  CL->get(Name) + "'\n");
  }
}
