//===- noise/NoiseStack.h - Ordered composition of noise sources -*- C++ -*-===//
///
/// \file
/// The NoiseStack builder: sources compose in declaration order, and the
/// whole stack is seeded once.  The fork-seeding contract that makes any
/// composition bit-reproducible at any --jobs and cache temperature:
///
///   source stream   S_i     = Rng(StackSeed).fork(i)         (i = add order)
///   perturb lane    P_i(b)  = S_i.fork(LanePerturb).fork(b)  (b = run index)
///   label lane      L_i(b)  = S_i.fork(LaneLabel).fork(b)
///   drift lane      D_i     = S_i.fork(LaneDrift)
///
/// Each hook invocation receives its lane stream and forks per record /
/// epoch from there (see NoiseSource.h), so every perturbation is a pure
/// function of (StackSeed, source index, run index, record index) --
/// independent of evaluation order, parallelism, and of which other
/// sources are stacked BEFORE it only through the record values they
/// already wrote (declaration order is semantic: jitter-then-spikes and
/// spikes-then-jitter are different experiments, pinned as such by
/// tests/noise_test.cpp).
///
/// An empty stack is exactly the identity: perturbSuite leaves every run
/// byte-equal, and labelSuite labels exactly as
/// ExperimentEngine::labelSuite does.  A non-empty stack labels through
/// the same labeler (ml/Labeler.h's labelRecordSets), with its label
/// lanes as the per-run transform.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_NOISE_NOISESTACK_H
#define SCHEDFILTER_NOISE_NOISESTACK_H

#include "io/ParseResult.h"
#include "noise/NoiseSource.h"
#include "support/TaskPool.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace schedfilter {

class NoiseStack {
public:
  explicit NoiseStack(uint64_t Seed = 0) : Seed(Seed) {}

  NoiseStack(NoiseStack &&) = default;
  NoiseStack &operator=(NoiseStack &&) = default;

  /// Appends \p S; declaration order is application order.  Returns
  /// *this for builder chaining.
  NoiseStack &add(std::unique_ptr<NoiseSource> S);

  size_t size() const { return Sources.size(); }
  bool empty() const { return Sources.empty(); }
  uint64_t seed() const { return Seed; }

  /// Comma-joined canonical spellings ("jitter:0.1,spikes:0.05"), or
  /// "none" for the empty stack -- report headers print this.
  std::string describe() const;

  /// Applies every source's record-level hook to \p Run, in order.
  /// \p RunIndex must be the run's index in its suite -- it selects the
  /// per-run lane, so perturbing runs in any order (or in parallel)
  /// reproduces the serial result bit for bit.
  void perturbRun(BenchmarkRun &Run, size_t RunIndex) const;

  /// perturbRun over a whole suite, parallel by run on \p Pool; the
  /// result is identical at any job count (a one-job pool is the serial
  /// path).
  void perturbSuite(std::vector<BenchmarkRun> &Suite, TaskPool &Pool) const;

  /// The Labeler boundary: labels every run of \p Suite at
  /// \p ThresholdPct through labelRecordSets, with every source's label
  /// hook applied in order after the threshold rule (run B on its lane
  /// L_i(B)).  One dataset per run, in suite order, all rows of one rank
  /// table over the suite's records; parallel by run on \p Pool with
  /// identical results at any job count.
  std::vector<Dataset> labelSuite(const std::vector<BenchmarkRun> &Suite,
                                  double ThresholdPct, TaskPool &Pool) const;

  /// The composed mix-drift function for MultiAppService::setMixDrift:
  /// the product of every drifting source's factor.  Null when no source
  /// drifts, so a drift-free stack leaves the service on its exact
  /// pre-noise path.  The function BORROWS this stack's sources -- it
  /// must not outlive the stack it came from.
  std::function<double(uint64_t Epoch, size_t AppIndex)> mixDrift() const;

private:
  /// Lane discriminators between a source's hook families (kept distinct
  /// so a source using two hooks never correlates their draws).
  enum Lane : uint64_t { LanePerturb = 0, LaneLabel = 1, LaneDrift = 2 };

  Rng laneStream(size_t SourceIndex, Lane L) const {
    return Rng(Seed).fork(SourceIndex).fork(L);
  }

  uint64_t Seed;
  std::vector<std::unique_ptr<NoiseSource>> Sources;
};

/// Parses a --noise specification "src:param[,src:param...]" into a
/// stack seeded with \p Seed.  Known sources and parameters:
///   jitter:SIGMA     multiplicative timing noise, SIGMA in [0, 2]
///   mistune:MODEL    serve-side machine model (MachineModel::byName)
///   labelflip:P      label-flip probability, P in [0, 1]
///   spikes:P         cost-spike probability, P in [0, 1]
///   drift:A          mix-drift amplitude, A in [0, 4]
/// Every source requires its parameter; numbers are parseDecimal
/// decimals (no hex, no whitespace, no trailing junk) and must be
/// finite.  Sources may repeat (two jitter passes compose).  An
/// empty \p Spec is the empty stack.  Errors carry a message naming what
/// is accepted; ParseError::Line is the 1-based comma-separated item
/// ordinal.
ParseResult<NoiseStack> parseNoiseStack(const std::string &Spec,
                                        uint64_t Seed);

/// The comma-joined list of source spellings parseNoiseStack accepts,
/// for diagnostics and --help text.
std::string knownNoiseSources();

} // namespace schedfilter

#endif // SCHEDFILTER_NOISE_NOISESTACK_H
