//===- workloads/BenchmarkSpec.cpp - Synthetic benchmark profiles ----------===//

#include "workloads/BenchmarkSpec.h"

#include "io/TraceStore.h"

using namespace schedfilter;

uint64_t schedfilter::specFingerprint(const BenchmarkSpec &S) {
  // Canonical little-endian serialization of every generator input,
  // hashed with the one FNV-1a implementation (io/TraceStore.h).
  // Description is presentation-only and deliberately excluded.
  std::string B;
  wire::putString(B, S.Name);
  wire::putU64(B, S.Seed);
  wire::putU64(B, static_cast<uint64_t>(S.NumMethods));
  wire::putU64(B, static_cast<uint64_t>(S.MinBlocksPerMethod));
  wire::putU64(B, static_cast<uint64_t>(S.MaxBlocksPerMethod));
  wire::putF64(B, S.StatementGeoP);
  wire::putU64(B, static_cast<uint64_t>(S.MaxStatements));
  wire::putF64(B, S.TrivialBlockProb);
  wire::putF64(B, S.MeanExprOps);
  wire::putU64(B, static_cast<uint64_t>(S.MaxExprOps));
  wire::putF64(B, S.WIntExpr);
  wire::putF64(B, S.WFloatExpr);
  wire::putF64(B, S.WMemOp);
  wire::putF64(B, S.WCall);
  wire::putF64(B, S.WSystem);
  wire::putF64(B, S.LeafLoadProb);
  wire::putF64(B, S.FloatDivProb);
  wire::putF64(B, S.PeiProb);
  wire::putF64(B, S.YieldProb);
  wire::putF64(B, S.SafepointProb);
  wire::putF64(B, S.HotnessSkew);
  wire::putU64(B, S.MaxExec);
  // Family joined the spec after the fields above; it is a generator
  // input (it selects which family's load() runs), so it must be part of
  // the fingerprint -- a spec reassigned to another family can never be
  // served that family's stale trace.
  wire::putString(B, S.Family);
  return wire::fnv1a(B.data(), B.size());
}

namespace {

BenchmarkSpec base(const std::string &Name, const std::string &Desc,
                   uint64_t Seed) {
  BenchmarkSpec S;
  S.Name = Name;
  S.Description = Desc;
  S.Seed = Seed;
  return S;
}

} // namespace

std::vector<BenchmarkSpec> schedfilter::specjvm98Suite() {
  std::vector<BenchmarkSpec> Suite;

  // compress: LZW compression; integer/shift heavy with table loads and
  // stores, moderate block sizes, tight hot loops.
  {
    BenchmarkSpec S = base("compress",
                           "Java version of 129.compress from SPEC CPU95",
                           0xC0301);
    S.WIntExpr = 1.4;
    S.WFloatExpr = 0.02;
    S.WMemOp = 0.9;
    S.WCall = 0.15;
    S.WSystem = 0.03;
    S.StatementGeoP = 0.68;
    S.MeanExprOps = 2.4;
    S.LeafLoadProb = 0.40;
    S.HotnessSkew = 8.0;
    Suite.push_back(S);
  }

  // jess: expert-system shell; branchy, call-rich, small blocks, mostly
  // pointer chasing through the Rete network.
  {
    BenchmarkSpec S = base("jess",
                           "Puzzle-solving expert system shell (CLIPS-based)",
                           0xC0302);
    S.WIntExpr = 0.9;
    S.WFloatExpr = 0.05;
    S.WMemOp = 1.0;
    S.WCall = 0.60;
    S.WSystem = 0.04;
    S.StatementGeoP = 0.55;
    S.MeanExprOps = 2.0;
    S.TrivialBlockProb = 0.38;
    S.LeafLoadProb = 0.35;
    S.PeiProb = 0.45;
    Suite.push_back(S);
  }

  // db: in-memory database; dominated by loads/stores and comparisons,
  // small blocks, very call-heavy (address book operations).
  {
    BenchmarkSpec S = base("db",
                           "Builds an in-memory database and queries it",
                           0xC0303);
    S.WIntExpr = 0.7;
    S.WFloatExpr = 0.02;
    S.WMemOp = 1.6;
    S.WCall = 0.50;
    S.WSystem = 0.05;
    S.StatementGeoP = 0.55;
    S.MeanExprOps = 1.8;
    S.TrivialBlockProb = 0.38;
    S.LeafLoadProb = 0.45;
    S.PeiProb = 0.50;
    Suite.push_back(S);
  }

  // javac: the JDK 1.0.2 compiler; many methods, very branchy, small
  // blocks, rich in virtual calls; hardly any floating point.
  {
    BenchmarkSpec S = base("javac",
                           "Java source-to-bytecode compiler from JDK 1.0.2",
                           0xC0304);
    S.NumMethods = 170;
    S.WIntExpr = 1.0;
    S.WFloatExpr = 0.01;
    S.WMemOp = 1.0;
    S.WCall = 0.70;
    S.WSystem = 0.05;
    S.StatementGeoP = 0.58;
    S.MeanExprOps = 1.8;
    S.TrivialBlockProb = 0.40;
    S.LeafLoadProb = 0.35;
    S.PeiProb = 0.45;
    S.YieldProb = 0.25;
    Suite.push_back(S);
  }

  // mpegaudio: MP3 decoding; floating-point heavy with wide independent
  // filter-bank expressions -- the SPECjvm98 member that benefits most
  // from scheduling.
  {
    BenchmarkSpec S = base("mpegaudio", "Decodes an MPEG-3 audio file",
                           0xC0305);
    S.WIntExpr = 0.6;
    S.WFloatExpr = 1.6;
    S.WMemOp = 0.7;
    S.WCall = 0.10;
    S.WSystem = 0.02;
    S.StatementGeoP = 0.64;
    S.MeanExprOps = 3.0;
    S.TrivialBlockProb = 0.28;
    S.MaxExprOps = 12;
    S.LeafLoadProb = 0.50;
    S.HotnessSkew = 9.0;
    Suite.push_back(S);
  }

  // raytrace: dinosaur-scene ray tracer; mixed float geometry math and
  // pointer loads, medium blocks.
  {
    BenchmarkSpec S = base("raytrace",
                           "Raytracer over a scene depicting a dinosaur",
                           0xC0306);
    S.WIntExpr = 0.7;
    S.WFloatExpr = 1.0;
    S.WMemOp = 0.9;
    S.WCall = 0.35;
    S.WSystem = 0.03;
    S.StatementGeoP = 0.68;
    S.MeanExprOps = 2.4;
    S.PeiProb = 0.40;
    Suite.push_back(S);
  }

  // jack: parser generator; lexer/IO dominated -- calls, branches, small
  // integer blocks, a few system ops.
  {
    BenchmarkSpec S = base("jack",
                           "Java parser generator with lexical analysis",
                           0xC0307);
    S.WIntExpr = 1.0;
    S.WFloatExpr = 0.02;
    S.WMemOp = 0.9;
    S.WCall = 0.65;
    S.WSystem = 0.08;
    S.StatementGeoP = 0.57;
    S.MeanExprOps = 1.9;
    S.TrivialBlockProb = 0.40;
    S.LeafLoadProb = 0.35;
    S.YieldProb = 0.25;
    Suite.push_back(S);
  }

  for (BenchmarkSpec &S : Suite)
    S.Family = "specjvm98";
  return Suite;
}

std::vector<BenchmarkSpec> schedfilter::fpSuite() {
  std::vector<BenchmarkSpec> Suite;

  // linpack: dense linear algebra; long blocks of independent fmadds over
  // array loads -- the canonical scheduling winner.
  {
    BenchmarkSpec S = base("linpack",
                           "Numerically intensive FP benchmark (daxpy etc.)",
                           0xF0401);
    S.WIntExpr = 0.4;
    S.WFloatExpr = 2.0;
    S.WMemOp = 0.8;
    S.WCall = 0.06;
    S.WSystem = 0.01;
    S.StatementGeoP = 0.54;
    S.MeanExprOps = 3.8;
    S.TrivialBlockProb = 0.28;
    S.MaxExprOps = 12;
    S.LeafLoadProb = 0.58;
    S.HotnessSkew = 10.0;
    Suite.push_back(S);
  }

  // power: power-pricing optimization; FP expression trees over a radial
  // network, moderate calls.
  {
    BenchmarkSpec S = base("power",
                           "Power pricing system optimization solver",
                           0xF0402);
    S.WIntExpr = 0.5;
    S.WFloatExpr = 1.6;
    S.WMemOp = 0.7;
    S.WCall = 0.18;
    S.WSystem = 0.02;
    S.StatementGeoP = 0.58;
    S.MeanExprOps = 3.0;
    S.TrivialBlockProb = 0.28;
    S.FloatDivProb = 0.10;
    Suite.push_back(S);
  }

  // bh: Barnes-Hut N-body; FP force kernels plus pointer loads through
  // the oct-tree.
  {
    BenchmarkSpec S = base("bh", "Barnes-Hut N-body force computation",
                           0xF0403);
    S.WIntExpr = 0.5;
    S.WFloatExpr = 1.4;
    S.WMemOp = 1.0;
    S.WCall = 0.22;
    S.WSystem = 0.02;
    S.StatementGeoP = 0.60;
    S.MeanExprOps = 2.9;
    S.TrivialBlockProb = 0.28;
    S.PeiProb = 0.45;
    S.FloatDivProb = 0.12;
    Suite.push_back(S);
  }

  // voronoi: recursive geometric code; FP determinants plus heavy ref
  // loads, smaller blocks than the dense kernels.
  {
    BenchmarkSpec S = base("voronoi",
                           "Voronoi diagram of points, recursively on a tree",
                           0xF0404);
    S.WIntExpr = 0.6;
    S.WFloatExpr = 1.1;
    S.WMemOp = 1.1;
    S.WCall = 0.30;
    S.WSystem = 0.02;
    S.StatementGeoP = 0.60;
    S.MeanExprOps = 2.6;
    S.PeiProb = 0.50;
    Suite.push_back(S);
  }

  // aes: block cipher; wide integer ILP (xors/shifts/table loads) whose
  // load latencies scheduling hides well.
  {
    BenchmarkSpec S = base("aes", "NIST AES standard encryption test vectors",
                           0xF0405);
    S.WIntExpr = 1.8;
    S.WFloatExpr = 0.02;
    S.WMemOp = 1.2;
    S.WCall = 0.08;
    S.WSystem = 0.02;
    S.StatementGeoP = 0.55;
    S.MeanExprOps = 3.3;
    S.TrivialBlockProb = 0.28;
    S.MaxExprOps = 12;
    S.LeafLoadProb = 0.58;
    S.HotnessSkew = 9.0;
    Suite.push_back(S);
  }

  // scimark: FFT/SOR/MonteCarlo/LU kernels; big FP blocks with high ILP.
  {
    BenchmarkSpec S = base("scimark",
                           "Scientific and numerical computation kernels",
                           0xF0406);
    S.WIntExpr = 0.5;
    S.WFloatExpr = 1.8;
    S.WMemOp = 0.8;
    S.WCall = 0.10;
    S.WSystem = 0.01;
    S.StatementGeoP = 0.56;
    S.MeanExprOps = 3.6;
    S.TrivialBlockProb = 0.28;
    S.MaxExprOps = 12;
    S.LeafLoadProb = 0.55;
    S.HotnessSkew = 9.0;
    Suite.push_back(S);
  }

  for (BenchmarkSpec &S : Suite)
    S.Family = "fp";
  return Suite;
}
