//===- tests/workloads_test.cpp - workloads/ unit tests ----------------------===//

#include "workloads/ProgramGenerator.h"
#include "workloads/WorkloadFamily.h"
#include "workloads/WorkloadMix.h"

#include "TestHelpers.h"
#include "features/Features.h"
#include "io/TraceStore.h"
#include "mir/Verifier.h"
#include "support/TaskPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <set>
#include <thread>

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

TEST(WorkloadRegistryDeathTest, UnregisteredFamilyAbortsNamingTheSpec) {
  // Every spec names a registered family: an empty or unknown one is a
  // caller bug, and every entry point aborts naming it, in every build
  // type -- never a guessed generator, never a silently dropped app.
  BenchmarkSpec Bare = *findBenchmarkSpec("jess");
  Bare.Family.clear();
  EXPECT_DEATH(generateWorkloadProgram(Bare),
               "BenchmarkSpec 'jess': family '' is not registered "
               "\\(known: specjvm98, fp, serverloop, fpkernel, ptrchase\\)");
  BenchmarkSpec Stray = *findBenchmarkSpec("jess");
  Stray.Family = "nosuch";
  EXPECT_DEATH(workloadGeneratorVersion(Stray),
               "BenchmarkSpec 'jess': family 'nosuch' is not registered");
  EXPECT_DEATH(expandWorkloadMix({{"specjvm98", 1.0}, {"nosuch", 2.0}}),
               "workload mix 'specjvm98,nosuch:2': family 'nosuch' is not "
               "registered");
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

TEST(WorkloadRegistryDeathTest, FirstAccessFromFourWorkersAtOnce) {
  // The catalog is built on first access.  The re-executed death-test
  // child runs only this test, so there four pool workers reach the
  // catalog for the first time at the same moment; all must see one
  // complete catalog (the TSan job runs this binary).
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        std::atomic<unsigned> Arrived{0};
        std::vector<const WorkloadRegistry *> Seen(4);
        std::vector<const BenchmarkSpec *> Found(4);
        TaskPool(4).parallelFor(4, [&](size_t I) {
          Arrived.fetch_add(1);
          while (Arrived.load() != 4)
            std::this_thread::yield();
          Found[I] = findBenchmarkSpec("db");
          Seen[I] = &WorkloadRegistry::instance();
        });
        bool Ok = Seen[0]->families().size() == 5 &&
                  Seen[0]->benchmarks().size() == 22 && Found[0] &&
                  Found[0]->Family == "specjvm98";
        for (size_t I = 1; I != 4; ++I)
          Ok = Ok && Seen[I] == Seen[0] && Found[I] == Found[0];
        std::exit(Ok ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

//===----------------------------------------------------------------------===//
// Workload mixes: the --workload grammar, its spelling, its one expansion
//===----------------------------------------------------------------------===//

TEST(WorkloadMix, ParsesWeightsInCommandLineOrder) {
  ParseResult<WorkloadMix> M =
      parseWorkloadMix("specjvm98:3,serverloop:1,fp:0.25");
  ASSERT_TRUE(M.has_value());
  EXPECT_EQ(*M, (WorkloadMix{
                    {"specjvm98", 3.0}, {"serverloop", 1.0}, {"fp", 0.25}}));
  EXPECT_EQ(formatWorkloadMix(*M), "specjvm98:3,serverloop,fp:0.25");
  // Fixed notation, never rounded: six decimals would print 0.
  EXPECT_EQ(formatWorkloadMix({{"fp", 1e-7}, {"ptrchase", 1e20}}),
            "fp:0.0000001,ptrchase:100000000000000000000");
}

TEST(WorkloadMix, EachDiagnosticNamesItsItem) {
  struct Case {
    const char *Spec;
    size_t Item;
    std::string Message;
  };
  const Case Cases[] = {
      {"specjvm98,,fp", 2,
       "--workload has an empty item (got 'specjvm98,,fp')"},
      {"fp,specjvm98:-1", 2,
       "--workload weight for 'specjvm98' expects a positive number (got "
       "'-1')"},
      {"nosuch", 1,
       "unknown family: got 'nosuch', known: specjvm98, fp, serverloop, "
       "fpkernel, ptrchase"},
      {"fp,serverloop,fp:2", 3,
       "--workload names family 'fp' twice (got 'fp,serverloop,fp:2')"},
  };
  for (const Case &C : Cases) {
    ParseResult<WorkloadMix> M = parseWorkloadMix(C.Spec);
    ASSERT_FALSE(M.has_value()) << C.Spec;
    EXPECT_EQ(M.error().Line, C.Item) << C.Spec;
    EXPECT_EQ(M.error().Message, C.Message);
  }
  for (const char *W : {"", "0", "-0", "nan", "inf", "1e999", "0x1", " 1",
                        "1 ", "1:2"})
    EXPECT_FALSE(parseWorkloadMix(std::string("fp:") + W).has_value()) << W;
}

TEST(WorkloadMix, MutatedSpecsDiagnoseOrRoundTrip) {
  // A fixed budget of seeded mutations of CI's two mixes (and one with
  // fractional weights): bit flips, truncations, splices, duplicated
  // items, NUL/CR bytes and non-finite or extreme weights.  Every input
  // either fails with a diagnostic that locates one of its items, or
  // parses to a mix that formatWorkloadMix spells back to an equal mix.
  const std::vector<std::string> Seeds = {
      "specjvm98:3,serverloop:1", "specjvm98,serverloop,fp,fpkernel,ptrchase",
      "fp:0.1,ptrchase:2.5,fpkernel:0.30000000000000004"};
  const char *Weights[] = {"nan", "inf",    "-inf",     "NaN",  "1e999",
                           "1e-999", "4.9e-324", "1e300", "1e-7", "7"};
  Rng R(0x5EED);
  auto Pick = [&](size_t N) {
    return static_cast<size_t>(R.below(static_cast<uint32_t>(N)));
  };
  auto Items = [](const std::string &S) {
    std::vector<std::string> Out(1);
    for (char C : S) {
      if (C == ',')
        Out.emplace_back();
      else
        Out.back().push_back(C);
    }
    return Out;
  };
  auto Join = [](const std::vector<std::string> &V) {
    std::string Out = V.front();
    for (size_t I = 1; I != V.size(); ++I)
      Out += "," + V[I];
    return Out;
  };
  size_t Parsed = 0, Rejected = 0;
  for (int Iter = 0; Iter != 10000; ++Iter) {
    std::string S = Seeds[Pick(Seeds.size())];
    for (size_t Edits = 1 + Pick(3); Edits; --Edits) {
      std::vector<std::string> V = Items(S);
      switch (Pick(6)) {
      case 0: // bit flip
        if (!S.empty())
          S[Pick(S.size())] ^= static_cast<char>(1u << Pick(8));
        break;
      case 1: // truncation
        S.resize(Pick(S.size() + 1));
        break;
      case 2: { // splice: a prefix of this input, a suffix of a seed
        const std::string &T = Seeds[Pick(Seeds.size())];
        S = S.substr(0, Pick(S.size() + 1)) + T.substr(Pick(T.size() + 1));
        break;
      }
      case 3: // duplicated item
        V.insert(V.begin() + Pick(V.size() + 1), V[Pick(V.size())]);
        S = Join(V);
        break;
      case 4: // NUL or CR byte
        S.insert(Pick(S.size() + 1), 1, Pick(2) ? '\0' : '\r');
        break;
      case 5: { // non-finite or extreme weight
        std::string &I = V[Pick(V.size())];
        I = I.substr(0, I.find(':')) + ":" + Weights[Pick(std::size(Weights))];
        S = Join(V);
        break;
      }
      }
    }
    ParseResult<WorkloadMix> M = parseWorkloadMix(S);
    if (!M) {
      ++Rejected;
      EXPECT_GE(M.error().Line, 1u) << S;
      EXPECT_LE(M.error().Line, Items(S).size()) << S;
      EXPECT_FALSE(M.error().Message.empty()) << S;
      continue;
    }
    ++Parsed;
    for (const auto &[Name, Weight] : *M) {
      EXPECT_NE(findWorkloadFamily(Name), nullptr) << S;
      EXPECT_TRUE(std::isfinite(Weight) && Weight > 0.0) << S;
    }
    std::string Canonical = formatWorkloadMix(*M);
    ParseResult<WorkloadMix> Back = parseWorkloadMix(Canonical);
    ASSERT_TRUE(Back.has_value()) << S << " -> " << Canonical;
    EXPECT_EQ(*Back, *M) << S << " -> " << Canonical;
  }
  // The budget reaches both outcomes.
  EXPECT_GT(Parsed, 500u);
  EXPECT_GT(Rejected, 500u);
}

TEST(WorkloadMix, AppSuiteIsMixThenSuiteOrder) {
  // A mix's suite -- what sf-trace and sf-train trace -- is the specs of
  // its one expansion: each family's stock suite, in mix order.
  std::vector<BenchmarkSpec> Suite =
      appSuite(expandWorkloadMix(*parseWorkloadMix("serverloop:3,specjvm98")));
  std::vector<BenchmarkSpec> Want =
      findWorkloadFamily("serverloop")->makeBenchmarkSuite();
  for (const BenchmarkSpec &S : specjvm98Suite())
    Want.push_back(S);
  ASSERT_EQ(Suite.size(), Want.size());
  for (size_t I = 0; I != Want.size(); ++I)
    EXPECT_EQ(specFingerprint(Suite[I]), specFingerprint(Want[I])) << I;
}
