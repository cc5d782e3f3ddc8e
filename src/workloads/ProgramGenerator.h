//===- workloads/ProgramGenerator.h - Spec -> Program ------------*- C++ -*-===//
///
/// \file
/// Expands a BenchmarkSpec into a deterministic Program.  Blocks are built
/// from *statements* — small expression trees emitted depth first, the
/// naive instruction order a stack-machine JIT produces — so that a block
/// with several independent statements has instruction-level parallelism a
/// list scheduler can exploit, while single-statement blocks are serial
/// chains that scheduling cannot improve.  This is the mechanism that
/// makes "does this block benefit from scheduling?" a learnable function
/// of the paper's cheap features.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_WORKLOADS_PROGRAMGENERATOR_H
#define SCHEDFILTER_WORKLOADS_PROGRAMGENERATOR_H

#include "mir/Program.h"
#include "support/Rng.h"
#include "workloads/BenchmarkSpec.h"

namespace schedfilter {

/// Version of the program-synthesis algorithm, part of the corpus-cache
/// key (io/CorpusCache.h).  MUST be bumped by any change that alters what
/// generate() emits for some spec -- new statement kinds, reordered Rng
/// draws, changed expansion rules -- or warm caches will keep serving the
/// old corpus.  Tracing is otherwise a pure function of
/// (spec fingerprint, machine model, this constant).
constexpr uint32_t GeneratorVersion = 1;

/// Deterministic program synthesis from a benchmark profile.
class ProgramGenerator {
public:
  explicit ProgramGenerator(const BenchmarkSpec &Spec) : Spec(Spec) {}

  /// Builds the whole benchmark program.  Calling twice returns identical
  /// programs (all randomness derives from Spec.Seed).
  Program generate();

  /// Builds a single block with \p NumStatements statements, its
  /// instructions in one exact-size allocation; exposed for the families
  /// that shape their own methods and for tests that need size-controlled
  /// blocks.
  BasicBlock generateBlock(Rng &R, int NumStatements, bool EndWithTerminator);

private:
  const BenchmarkSpec &Spec;
  /// Emission scratch reused across blocks, so a generator is used by one
  /// thread at a time: the block being emitted, the values live per
  /// register class, and the statement-kind weights.
  std::vector<Instruction> Insts;
  std::vector<Reg> IntVals;
  std::vector<Reg> FloatVals;
  std::vector<double> Weights;
};

} // namespace schedfilter

#endif // SCHEDFILTER_WORKLOADS_PROGRAMGENERATOR_H
