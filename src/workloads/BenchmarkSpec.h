//===- workloads/BenchmarkSpec.h - Synthetic benchmark profiles -*- C++ -*-===//
///
/// \file
/// Parameter profiles for the synthetic stand-ins of the paper's two
/// benchmark suites: SPECjvm98 (Table 2) and the floating-point-heavy
/// "benchmarks that benefit from scheduling" suite (Table 7).
///
/// We cannot run the real Java programs offline, so each profile encodes
/// the population-level character that matters to the learning problem:
/// how large blocks are, how much instruction-level parallelism they
/// expose (independent statements per block), the opcode-category mix
/// (integer vs floating point vs memory vs calls vs system ops), and the
/// hazard density.  The generator (ProgramGenerator) expands a profile
/// into a deterministic Program given the profile's seed.  DESIGN.md §2
/// documents this substitution.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_WORKLOADS_BENCHMARKSPEC_H
#define SCHEDFILTER_WORKLOADS_BENCHMARKSPEC_H

#include <cstdint>
#include <string>
#include <vector>

namespace schedfilter {

/// Statement kinds the generator mixes per block; weights below.
/// An "expression statement" is a small dependence tree emitted depth
/// first, exactly how a stack-machine JIT macro-expands bytecode (the
/// source of the naive instruction order scheduling improves on).
struct BenchmarkSpec {
  std::string Name;
  std::string Description;
  /// Name of the registered WorkloadFamily (workloads/WorkloadFamily.h)
  /// that expands this spec into a Program; a spec without one cannot be
  /// generated.  Part of the spec fingerprint and the corpus-cache key.
  std::string Family;
  uint64_t Seed = 1;

  /// Program shape.
  int NumMethods = 120;
  int MinBlocksPerMethod = 2;
  int MaxBlocksPerMethod = 18;

  /// Block shape: statements per block ~ 1 + geometric; each statement is
  /// an expression tree with ~MeanExprOps operations.
  double StatementGeoP = 0.45; ///< smaller => more statements => more ILP
  int MaxStatements = 12;
  /// Probability a block is trivial (no statements: just a branch/return
  /// and perhaps one move) -- exception edges, goto blocks, and inlined
  /// accessor remnants, which dominate real Java block populations and are
  /// never worth scheduling.
  double TrivialBlockProb = 0.30;
  double MeanExprOps = 3.0;
  int MaxExprOps = 9;

  /// Statement-kind weights (relative; normalized by the generator).
  double WIntExpr = 1.0;   ///< integer arithmetic expression
  double WFloatExpr = 0.2; ///< floating-point expression
  double WMemOp = 0.5;     ///< load/modify/store sequence
  double WCall = 0.2;      ///< argument setup + call (a barrier)
  double WSystem = 0.05;   ///< system-unit instruction

  /// Probability an expression leaf is a memory load (vs a register).
  double LeafLoadProb = 0.45;
  /// Probability a float expression includes a long-latency fdiv/fsqrt.
  double FloatDivProb = 0.06;
  /// Probability a ref load is preceded by an explicit null/bounds check
  /// and tagged as potentially excepting.
  double PeiProb = 0.35;
  /// Probability a block begins with a yield point (Jikes RVM places
  /// yield points at method entries and loop back edges).
  double YieldProb = 0.20;
  /// Probability of a GC-safepoint or thread-switch pseudo-op in a block.
  double SafepointProb = 0.06;

  /// Hotness profile: exec count = 1 + MaxExec * u^HotnessSkew for
  /// u ~ U[0,1); larger skew concentrates time in fewer blocks.
  double HotnessSkew = 6.0;
  uint64_t MaxExec = 100000;
};

/// A stable 64-bit hash over every field of \p S (doubles hashed by bit
/// pattern).  Part of the corpus-cache key (io/CorpusCache.h): any edited
/// spec -- a shrunken test suite, an ablation variant -- fingerprints
/// differently from the stock benchmark of the same name, so cached
/// traces can never be served for the wrong workload.  Extending
/// BenchmarkSpec with a new field?  Hash it here, or stale cache entries
/// will survive the change.
uint64_t specFingerprint(const BenchmarkSpec &S);

/// The seven SPECjvm98 stand-ins of Table 2: compress, jess, db, javac,
/// mpegaudio, raytrace (mtrt), jack.
std::vector<BenchmarkSpec> specjvm98Suite();

/// The six FP stand-ins of Table 7: linpack, power, bh, voronoi, aes,
/// scimark.
std::vector<BenchmarkSpec> fpSuite();

/// Looks up a spec by name in the workload catalog (every registered
/// family's suite; defined in WorkloadFamily.cpp); nullptr if absent.
const BenchmarkSpec *findBenchmarkSpec(const std::string &Name);

} // namespace schedfilter

#endif // SCHEDFILTER_WORKLOADS_BENCHMARKSPEC_H
