//===- tests/workloads_test.cpp - workloads/ unit tests ----------------------===//

#include "workloads/ProgramGenerator.h"
#include "workloads/WorkloadFamily.h"

#include "TestHelpers.h"
#include "features/Features.h"
#include "io/TraceStore.h"
#include "mir/Verifier.h"

#include <gtest/gtest.h>

#include <set>

using namespace schedfilter;
using namespace schedfilter::test;

TEST(BenchmarkSpec, SuitesMatchPaperTables) {
  std::vector<BenchmarkSpec> Spec = specjvm98Suite();
  ASSERT_EQ(Spec.size(), 7u); // Table 2
  EXPECT_EQ(Spec[0].Name, "compress");
  EXPECT_EQ(Spec[1].Name, "jess");
  EXPECT_EQ(Spec[2].Name, "db");
  EXPECT_EQ(Spec[3].Name, "javac");
  EXPECT_EQ(Spec[4].Name, "mpegaudio");
  EXPECT_EQ(Spec[5].Name, "raytrace");
  EXPECT_EQ(Spec[6].Name, "jack");

  std::vector<BenchmarkSpec> Fp = fpSuite();
  ASSERT_EQ(Fp.size(), 6u); // Table 7
  EXPECT_EQ(Fp[0].Name, "linpack");
  EXPECT_EQ(Fp[5].Name, "scimark");
}

TEST(BenchmarkSpec, UniqueSeedsAndNames) {
  std::set<uint64_t> Seeds;
  std::set<std::string> Names;
  for (const auto &Suite : {specjvm98Suite(), fpSuite()})
    for (const BenchmarkSpec &S : Suite) {
      Seeds.insert(S.Seed);
      Names.insert(S.Name);
      EXPECT_FALSE(S.Description.empty());
    }
  EXPECT_EQ(Seeds.size(), 13u);
  EXPECT_EQ(Names.size(), 13u);
}

TEST(BenchmarkSpec, FindByName) {
  ASSERT_NE(findBenchmarkSpec("mpegaudio"), nullptr);
  EXPECT_EQ(findBenchmarkSpec("mpegaudio")->Name, "mpegaudio");
  ASSERT_NE(findBenchmarkSpec("aes"), nullptr);
  EXPECT_EQ(findBenchmarkSpec("no-such-benchmark"), nullptr);
}

TEST(ProgramGenerator, DeterministicFromSeed) {
  const BenchmarkSpec *Spec = findBenchmarkSpec("jess");
  BenchmarkSpec S = *Spec;
  S.NumMethods = 6;
  Program A = ProgramGenerator(S).generate();
  Program B = ProgramGenerator(S).generate();
  ASSERT_EQ(A.totalBlocks(), B.totalBlocks());
  ASSERT_EQ(A.totalInstructions(), B.totalInstructions());
  // Deep equality through textual dumps of a few blocks.
  for (size_t MI = 0; MI != A.size(); ++MI)
    for (size_t BI = 0; BI != A[MI].size(); ++BI) {
      EXPECT_EQ(A[MI][BI].toString(), B[MI][BI].toString());
      EXPECT_EQ(A[MI][BI].getExecCount(), B[MI][BI].getExecCount());
    }
}

TEST(ProgramGenerator, DifferentSeedsDiffer) {
  BenchmarkSpec S = *findBenchmarkSpec("jess");
  S.NumMethods = 6;
  Program A = ProgramGenerator(S).generate();
  S.Seed ^= 0xdeadbeef;
  Program B = ProgramGenerator(S).generate();
  EXPECT_NE(A.totalInstructions(), B.totalInstructions());
}

TEST(ProgramGenerator, ProgramsVerify) {
  for (const auto &Suite :
       {shrinkSuite(specjvm98Suite(), 5), shrinkSuite(fpSuite(), 5)})
    for (const BenchmarkSpec &S : Suite) {
      Program P = ProgramGenerator(S).generate();
      VerifyResult R = verifyProgram(P);
      EXPECT_TRUE(R.Ok) << S.Name << ": " << R.Message;
    }
}

TEST(ProgramGenerator, RespectsMethodCounts) {
  BenchmarkSpec S = *findBenchmarkSpec("db");
  S.NumMethods = 17;
  Program P = ProgramGenerator(S).generate();
  EXPECT_EQ(P.size(), 17u);
  for (const Method &M : P) {
    EXPECT_GE(static_cast<int>(M.size()), S.MinBlocksPerMethod);
    EXPECT_LE(static_cast<int>(M.size()), S.MaxBlocksPerMethod);
  }
}

TEST(ProgramGenerator, ExecCountsPositive) {
  BenchmarkSpec S = *findBenchmarkSpec("compress");
  S.NumMethods = 8;
  Program P = ProgramGenerator(S).generate();
  P.forEachBlock(
      [](const BasicBlock &BB) { EXPECT_GE(BB.getExecCount(), 1u); });
}

TEST(ProgramGenerator, FloatHeavyVsIntHeavyProfiles) {
  // mpegaudio must emit far more floating point than javac; javac far
  // more calls than linpack.  This is the population signal the filter
  // learns from.
  auto FracOf = [](const std::string &Name, unsigned Feature) {
    BenchmarkSpec S = *findBenchmarkSpec(Name);
    S.NumMethods = 20;
    Program P = ProgramGenerator(S).generate();
    double Sum = 0.0, N = 0.0;
    P.forEachBlock([&](const BasicBlock &BB) {
      if (BB.empty())
        return;
      Sum += extractFeatures(BB)[Feature];
      N += 1.0;
    });
    return Sum / N;
  };
  EXPECT_GT(FracOf("mpegaudio", FeatFloat), 4.0 * FracOf("javac", FeatFloat));
  EXPECT_GT(FracOf("javac", FeatCall), 2.0 * FracOf("linpack", FeatCall));
  EXPECT_GT(FracOf("db", FeatLoad), 0.9 * FracOf("javac", FeatLoad));
}

TEST(ProgramGenerator, TrivialBlocksExist) {
  BenchmarkSpec S = *findBenchmarkSpec("javac");
  S.NumMethods = 20;
  Program P = ProgramGenerator(S).generate();
  size_t Tiny = 0, Total = 0;
  P.forEachBlock([&](const BasicBlock &BB) {
    ++Total;
    Tiny += BB.size() <= 3;
  });
  // javac sets TrivialBlockProb = 0.40; with yields/moves some end up
  // larger, but a sizable fraction must stay tiny.
  EXPECT_GT(static_cast<double>(Tiny) / static_cast<double>(Total), 0.25);
}

TEST(ProgramGenerator, GenerateBlockHonorsStatementCount) {
  BenchmarkSpec S = *findBenchmarkSpec("linpack");
  Rng R(7);
  BasicBlock Zero = ProgramGenerator(S).generateBlock(R, 0, true);
  EXPECT_LE(Zero.size(), 4u); // at most yield + move + cmp-ish + term
  BasicBlock Many = ProgramGenerator(S).generateBlock(R, 8, true);
  EXPECT_GT(Many.size(), Zero.size());
}

TEST(ProgramGenerator, BlocksAreExactSize) {
  // Every generated block owns exactly its instructions: no growth slack
  // survives generation, in any family or through generateBlock.
  for (const WorkloadFamily *F : WorkloadRegistry::instance().families())
    for (const BenchmarkSpec &S : shrinkSuite(F->makeBenchmarkSuite(), 4))
      generateWorkloadProgram(S).forEachBlock([&](const BasicBlock &BB) {
        EXPECT_EQ(BB.instructions().capacity(), BB.size()) << S.Name;
      });
  ProgramGenerator Gen(*findBenchmarkSpec("raytrace"));
  Rng R(5);
  for (int N : {0, 1, 8, 40}) {
    BasicBlock BB = Gen.generateBlock(R, N, /*EndWithTerminator=*/true);
    EXPECT_EQ(BB.instructions().capacity(), BB.size()) << N;
  }
}

TEST(ProgramGenerator, HazardsAppearAtExpectedRates) {
  BenchmarkSpec S = *findBenchmarkSpec("javac");
  S.NumMethods = 30;
  Program P = ProgramGenerator(S).generate();
  size_t WithYield = 0, Total = 0;
  P.forEachBlock([&](const BasicBlock &BB) {
    ++Total;
    for (const Instruction &I : BB)
      if (I.isInCategory(CatYieldPoint)) {
        ++WithYield;
        break;
      }
  });
  double Frac = static_cast<double>(WithYield) / static_cast<double>(Total);
  EXPECT_GT(Frac, 0.15);
  EXPECT_LT(Frac, 0.40);
}

//===----------------------------------------------------------------------===//
// WorkloadFamily registry
//===----------------------------------------------------------------------===//

namespace {

void expectProgramsIdentical(const Program &A, const Program &B) {
  ASSERT_EQ(A.size(), B.size());
  ASSERT_EQ(A.totalBlocks(), B.totalBlocks());
  ASSERT_EQ(A.totalInstructions(), B.totalInstructions());
  for (size_t MI = 0; MI != A.size(); ++MI) {
    ASSERT_EQ(A[MI].size(), B[MI].size());
    for (size_t BI = 0; BI != A[MI].size(); ++BI) {
      EXPECT_EQ(A[MI][BI].toString(), B[MI][BI].toString());
      EXPECT_EQ(A[MI][BI].getExecCount(), B[MI][BI].getExecCount());
    }
  }
}

} // namespace

TEST(WorkloadRegistry, BuiltinFamiliesInRegistrationOrder) {
  const std::vector<const WorkloadFamily *> &Fams =
      WorkloadRegistry::instance().families();
  ASSERT_EQ(Fams.size(), 5u);
  const char *Expected[] = {"specjvm98", "fp", "serverloop", "fpkernel",
                            "ptrchase"};
  for (size_t I = 0; I != Fams.size(); ++I) {
    EXPECT_STREQ(Fams[I]->name(), Expected[I]);
    EXPECT_NE(Fams[I]->description()[0], '\0');
    EXPECT_GE(Fams[I]->version(), 1u);
    EXPECT_EQ(findWorkloadFamily(Fams[I]->name()), Fams[I]);
  }
  EXPECT_EQ(findWorkloadFamily("no-such-family"), nullptr);
}

TEST(WorkloadRegistry, UniqueNamesAndSeedsAcrossEveryFamily) {
  std::set<uint64_t> Seeds;
  std::set<std::string> Names;
  size_t Total = 0;
  for (const WorkloadFamily *F : WorkloadRegistry::instance().families())
    for (const BenchmarkSpec &S : F->makeBenchmarkSuite()) {
      ++Total;
      Seeds.insert(S.Seed);
      Names.insert(S.Name);
      EXPECT_EQ(S.Family, F->name()) << S.Name;
      EXPECT_FALSE(S.Description.empty()) << S.Name;
      EXPECT_EQ(findBenchmarkSpec(S.Name)->Seed, S.Seed);
    }
  // Names and seeds are globally unique, not merely per family.
  EXPECT_EQ(Seeds.size(), Total);
  EXPECT_EQ(Names.size(), Total);
}

TEST(WorkloadRegistry, LoadIsDeterministicForEveryFamily) {
  for (const WorkloadFamily *F : WorkloadRegistry::instance().families()) {
    BenchmarkSpec S = F->makeBenchmarkSuite().front();
    S.NumMethods = 5;
    Program A = F->load(S);
    Program B = F->load(S);
    expectProgramsIdentical(A, B);
  }
}

TEST(WorkloadRegistry, ProgramsVerifyForEveryFamily) {
  for (const WorkloadFamily *F : WorkloadRegistry::instance().families())
    for (const BenchmarkSpec &S : shrinkSuite(F->makeBenchmarkSuite(), 4)) {
      Program P = generateWorkloadProgram(S);
      VerifyResult R = verifyProgram(P);
      EXPECT_TRUE(R.Ok) << F->name() << "/" << S.Name << ": " << R.Message;
      EXPECT_EQ(P.getName(), S.Name);
    }
}

TEST(WorkloadRegistry, FamilyLessSpecFallsBackToProgramGenerator) {
  // A hand-built spec with no Family must expand exactly as the
  // pre-registry ProgramGenerator path did -- and specjvm98's registered
  // load() is that same path, so the two can never diverge.
  BenchmarkSpec S = *findBenchmarkSpec("jess");
  S.NumMethods = 6;
  BenchmarkSpec Bare = S;
  Bare.Family.clear();
  expectProgramsIdentical(generateWorkloadProgram(Bare),
                          ProgramGenerator(Bare).generate());
  expectProgramsIdentical(generateWorkloadProgram(S),
                          findWorkloadFamily("specjvm98")->load(S));
  EXPECT_EQ(workloadGeneratorVersion(Bare), GeneratorVersion);
  EXPECT_EQ(workloadGeneratorVersion(S),
            findWorkloadFamily("specjvm98")->version());
  BenchmarkSpec Chase =
      findWorkloadFamily("ptrchase")->makeBenchmarkSuite().front();
  EXPECT_EQ(workloadGeneratorVersion(Chase),
            findWorkloadFamily("ptrchase")->version());
}

TEST(WorkloadRegistry, ProgramDigestPinned) {
  // Bit-exact guard on program synthesis: one stock draw of every
  // family's suite, hashed with the repository's FNV-1a.  Each method
  // contributes its name and block count; each block its exec count and,
  // per instruction, the opcode, category bits (intrinsic plus hazard
  // attributes), defs and uses.  Any generator change that moves a
  // single Rng draw or operand fails this, and must bump the family's
  // version (and GeneratorVersion for specjvm98/fp) along with the pin.
  std::string Bytes;
  uint64_t Programs = 0, Blocks = 0, Insts = 0;
  for (const WorkloadFamily *F : WorkloadRegistry::instance().families())
    for (const BenchmarkSpec &S : F->makeBenchmarkSuite()) {
      Program P = F->load(S);
      ++Programs;
      wire::putString(Bytes, P.getName());
      for (const Method &M : P) {
        wire::putString(Bytes, M.getName());
        wire::putU32(Bytes, static_cast<uint32_t>(M.size()));
        for (const BasicBlock &BB : M) {
          wire::putU64(Bytes, BB.getExecCount());
          wire::putU32(Bytes, static_cast<uint32_t>(BB.size()));
          for (const Instruction &I : BB) {
            wire::putU16(Bytes, static_cast<uint16_t>(I.getOpcode()));
            wire::putU16(Bytes, I.categories());
            Bytes.push_back(static_cast<char>(I.defs().size()));
            for (Reg R : I.defs())
              wire::putU16(Bytes, R);
            Bytes.push_back(static_cast<char>(I.uses().size()));
            for (Reg R : I.uses())
              wire::putU16(Bytes, R);
          }
          ++Blocks;
          Insts += BB.size();
        }
      }
    }
  EXPECT_EQ(Programs, 22u);
  EXPECT_EQ(Blocks, 23713u);
  EXPECT_EQ(Insts, 239228u);
  EXPECT_EQ(wire::fnv1a(Bytes.data(), Bytes.size()), 0xa2228a65886ca709ULL);
}

TEST(GenerateSuite, OneProgramPerSpecInOrder) {
  std::vector<BenchmarkSpec> Suite = shrinkSuite(specjvm98Suite(), 3);
  std::vector<Program> Programs = generateSuite(Suite);
  ASSERT_EQ(Programs.size(), Suite.size());
  for (size_t I = 0; I != Suite.size(); ++I)
    EXPECT_EQ(Programs[I].getName(), Suite[I].Name);
}
