//===- support/Rng.h - Deterministic random number generation --*- C++ -*-===//
//
// Part of the schedfilter project: a reproduction of Cavazos & Moss,
// "Inducing Heuristics To Decide Whether To Schedule" (PLDI 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, seedable random number generation used by the synthetic
/// workload generators and by the learner's grow/prune splits.  Every source
/// of randomness in the repository flows through this class so that every
/// experiment is bit-for-bit reproducible from a named 64-bit seed.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_SUPPORT_RNG_H
#define SCHEDFILTER_SUPPORT_RNG_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace schedfilter {

/// A small, fast, deterministic PCG32 generator seeded via SplitMix64.
///
/// We deliberately avoid std::mt19937 and the std distributions: their
/// output is implementation-defined across standard libraries for some
/// distributions, which would make the reproduced tables non-portable.
class Rng {
public:
  /// Seeds the generator.  Two Rng objects constructed with the same seed
  /// produce identical streams.
  explicit Rng(uint64_t Seed = 0x853c49e6748fea9bULL) { reseed(Seed); }

  /// Resets the stream as if the object had been constructed with \p Seed.
  void reseed(uint64_t Seed);

  /// Returns the next raw 32 bits of the stream.
  uint32_t next32() {
    uint64_t Old = State;
    State = Old * 6364136223846793005ULL + Inc;
    uint32_t XorShifted = static_cast<uint32_t>(((Old >> 18u) ^ Old) >> 27u);
    uint32_t Rot = static_cast<uint32_t>(Old >> 59u);
    return (XorShifted >> Rot) | (XorShifted << ((32 - Rot) & 31));
  }

  /// Returns the next raw 64 bits of the stream.
  uint64_t next64() {
    uint64_t Hi = next32();
    return (Hi << 32) | next32();
  }

  /// Returns a uniformly distributed integer in [0, Bound).  \p Bound must
  /// be nonzero.  Uses rejection sampling, so the result is exactly uniform.
  uint32_t below(uint32_t Bound);

  /// Returns a uniformly distributed integer in [Lo, Hi] inclusive.
  int range(int Lo, int Hi);

  /// Returns the next 53 raw bits of the stream: the integer uniform()
  /// scales, so uniform() == next53() * 0x1p-53 exactly.  Samplers that
  /// index a table by the high bits of a draw (support/CdfTable.h) take
  /// this and scale it themselves.
  uint64_t next53() { return next64() >> 11; }

  /// Returns a uniform double in [0, 1).
  double uniform();

  /// Returns a uniform double in [Lo, Hi).
  double uniform(double Lo, double Hi);

  /// Returns true with probability \p P (clamped to [0, 1]).
  bool chance(double P);

  /// Samples a geometrically distributed integer >= 1 with success
  /// probability \p P in (0, 1]; i.e. the number of trials up to and
  /// including the first success.  Used for block-size distributions.
  /// Saturates at INT_MAX when P is so small the draw exceeds an int.
  int geometric(double P);

  /// Samples an approximately normal value via the sum of uniforms
  /// (Irwin-Hall with 12 terms), scaled to \p Mean and \p Stddev.
  double gaussian(double Mean, double Stddev);

  /// Samples an index in [0, Weights.size()) with probability proportional
  /// to Weights[i].  Weights must be nonnegative and not all zero.
  size_t pickWeighted(const std::vector<double> &Weights);

  /// Derives an independent generator from this stream; convenient for
  /// giving each generated method its own substream.  Consumes state (two
  /// split() calls return different generators).
  Rng split();

  /// Derives an independent generator for stream \p StreamId without
  /// advancing this generator (SplitMix-style).  fork(i) is a pure
  /// function of (current state, i): parallel tasks can each take
  /// Base.fork(taskIndex) in any order -- or concurrently -- and every
  /// task sees the same stream it would have seen serially.  Distinct
  /// stream ids give statistically independent streams.
  Rng fork(uint64_t StreamId) const;

private:
  uint64_t State;
  uint64_t Inc;
};

} // namespace schedfilter

#endif // SCHEDFILTER_SUPPORT_RNG_H
