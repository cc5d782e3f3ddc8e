//===- tests/features_test.cpp - features/ unit tests -----------------------===//

#include "features/Features.h"

#include "TestHelpers.h"
#include "io/TraceStore.h"
#include "workloads/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

using namespace schedfilter;
using namespace schedfilter::test;

TEST(Features, EmptyBlockAllZero) {
  BasicBlock BB("empty");
  FeatureVector X = extractFeatures(BB);
  for (unsigned F = 0; F != NumFeatures; ++F)
    EXPECT_EQ(X[F], 0.0);
}

TEST(Features, BBLenIsInstructionCount) {
  EXPECT_EQ(extractFeatures(makeChainBlock())[FeatBBLen], 4.0);
  EXPECT_EQ(extractFeatures(makeIlpFloatBlock())[FeatBBLen], 6.0);
}

TEST(Features, KnownBlockFractions) {
  // ilp-float: 2 loads, 3 float ops, 1 store; all six use either the FPU
  // or the LSU.
  FeatureVector X = extractFeatures(makeIlpFloatBlock());
  EXPECT_DOUBLE_EQ(X[FeatLoad], 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(X[FeatStore], 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(X[FeatFloat], 3.0 / 6.0);
  EXPECT_DOUBLE_EQ(X[FeatBranch], 0.0);
  EXPECT_DOUBLE_EQ(X[FeatCall], 0.0);
  EXPECT_DOUBLE_EQ(X[FeatInteger], 0.0);
}

TEST(Features, FractionsAreRatiosToBlockSize) {
  // The paper presents all features except bbLen as fractions so the
  // learner generalizes across block sizes.
  BasicBlock BB("frac");
  BB.append(Instruction(Opcode::LoadInt, {100}, {0}));
  BB.append(Instruction(Opcode::Add, {101}, {100, 1}));
  BB.append(Instruction(Opcode::Add, {102}, {101, 1}));
  BB.append(Instruction(Opcode::Br, {}, {}));
  FeatureVector X = extractFeatures(BB);
  EXPECT_DOUBLE_EQ(X[FeatLoad], 0.25);
  EXPECT_DOUBLE_EQ(X[FeatInteger], 0.5);
  EXPECT_DOUBLE_EQ(X[FeatBranch], 0.25);
}

TEST(Features, OverlappingCategoriesAllCounted) {
  BasicBlock BB("call");
  BB.append(Instruction(Opcode::Call, {100}, {0}));
  FeatureVector X = extractFeatures(BB);
  EXPECT_DOUBLE_EQ(X[FeatCall], 1.0);
  EXPECT_DOUBLE_EQ(X[FeatPEI], 1.0);
  EXPECT_DOUBLE_EQ(X[FeatGC], 1.0);
}

TEST(Features, HazardAttributesCounted) {
  BasicBlock BB("pei-load");
  BB.append(Instruction(Opcode::LoadRef, {100}, {0}, AttrPEI));
  BB.append(Instruction(Opcode::LoadRef, {101}, {1}));
  FeatureVector X = extractFeatures(BB);
  EXPECT_DOUBLE_EQ(X[FeatPEI], 0.5);
  EXPECT_DOUBLE_EQ(X[FeatLoad], 1.0);
}

TEST(Features, YieldAndThreadSwitchAndGC) {
  BasicBlock BB("hazards");
  BB.append(Instruction(Opcode::YieldPoint, {}, {}));
  BB.append(Instruction(Opcode::ThreadSwitchPoint, {}, {}));
  BB.append(Instruction(Opcode::GcSafepoint, {}, {}));
  BB.append(Instruction(Opcode::Add, {100}, {0, 1}));
  FeatureVector X = extractFeatures(BB);
  EXPECT_DOUBLE_EQ(X[FeatYield], 0.25);
  EXPECT_DOUBLE_EQ(X[FeatTS], 0.25);
  EXPECT_DOUBLE_EQ(X[FeatGC], 0.25);
}

TEST(Features, NamesUniqueAndNonEmpty) {
  std::set<std::string> Names;
  for (unsigned F = 0; F != NumFeatures; ++F) {
    std::string N = getFeatureName(F);
    EXPECT_FALSE(N.empty());
    Names.insert(N);
  }
  EXPECT_EQ(Names.size(), static_cast<size_t>(NumFeatures));
}

TEST(Features, TableOneOrder) {
  // Order matters: rule printouts and CSV headers follow Table 1.
  EXPECT_STREQ(getFeatureName(FeatBBLen), "bbLen");
  EXPECT_STREQ(getFeatureName(FeatBranch), "branches");
  EXPECT_STREQ(getFeatureName(FeatCall), "calls");
  EXPECT_STREQ(getFeatureName(FeatLoad), "loads");
  EXPECT_STREQ(getFeatureName(FeatYield), "yieldpoints");
}

TEST(Features, WorkIsLinearInBlockSize) {
  EXPECT_EQ(featureExtractionWork(makeChainBlock()), 5u);
  EXPECT_EQ(featureExtractionWork(makeIlpFloatBlock()), 7u);
}

// Property: all fractions lie in [0, 1] and equal manual recounts.
class FeatureProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FeatureProperty, FractionsInRangeAndConsistent) {
  const BenchmarkSpec *Spec = findBenchmarkSpec("jess");
  Rng R(GetParam());
  for (int Trial = 0; Trial != 20; ++Trial) {
    BasicBlock BB = ProgramGenerator(*Spec).generateBlock(
        R, R.range(0, 7), /*EndWithTerminator=*/true);
    FeatureVector X = extractFeatures(BB);
    EXPECT_EQ(X[FeatBBLen], static_cast<double>(BB.size()));
    for (unsigned F = FeatBranch; F != NumFeatures; ++F) {
      EXPECT_GE(X[F], 0.0);
      EXPECT_LE(X[F], 1.0);
    }
    // Manual recount of the load fraction.
    unsigned Loads = 0;
    for (const Instruction &I : BB)
      Loads += I.isInCategory(CatLoad);
    EXPECT_DOUBLE_EQ(X[FeatLoad],
                     static_cast<double>(Loads) /
                         static_cast<double>(BB.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FeatureProperty,
                         ::testing::Values(3, 1415, 92, 65, 35));

TEST(Features, SuiteDigestPinned) {
  // Bit-exact guard on every feature value over every SPECjvm98 block, in
  // suite order: each block contributes its 13 feature doubles as raw
  // 64-bit patterns and its featureExtractionWork, and the stream is
  // hashed with the repository's FNV-1a.  Any rewrite of extractFeatures
  // must keep every count, every division and every work unit.
  std::string Bytes;
  uint64_t Blocks = 0;
  for (const BenchmarkSpec &Spec : specjvm98Suite()) {
    Program P = ProgramGenerator(Spec).generate();
    P.forEachBlock([&](const BasicBlock &BB) {
      FeatureVector X = extractFeatures(BB);
      for (double V : X) {
        uint64_t Bits;
        std::memcpy(&Bits, &V, sizeof Bits);
        wire::putU64(Bytes, Bits);
      }
      wire::putU64(Bytes, featureExtractionWork(BB));
      ++Blocks;
    });
  }
  EXPECT_EQ(Blocks, 8827u); // Golden.SuitePopulation
  EXPECT_EQ(wire::fnv1a(Bytes.data(), Bytes.size()), 0x3b8ee60513b8734dULL);
}
