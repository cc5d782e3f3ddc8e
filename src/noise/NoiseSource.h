//===- noise/NoiseSource.h - Composable trace perturbation ------*- C++ -*-===//
///
/// \file
/// The trace-perturbation interface: every way the training/serving
/// signal can be imperfect in production -- timer jitter, a mis-tuned
/// machine model, mislabeled instances, cache-miss cost spikes, a
/// drifting traffic mix -- is one NoiseSource.  Sources compose into a
/// NoiseStack (noise/NoiseStack.h) that applies them in declaration
/// order, and the robustness suite (noise/Robustness.h,
/// bench_robustness) sweeps stacks of increasing severity to measure how
/// far the induced filter's benefit degrades before the always-schedule
/// baseline wins.
///
/// A source may act at up to three boundaries, each an overridable hook
/// with a no-op default:
///   - perturb(): mutate a traced BenchmarkRun's records/reports before
///     labeling and evaluation (jitter, spikes, model mis-tuning);
///   - perturbLabel(): transform the verdict the Labeler's threshold
///     rule produced for one record (label noise, band-handling
///     ablations);
///   - mixWeightFactor(): modulate one app's interleave weight per epoch
///     of a MultiAppService stream (workload-mix drift).
///
/// Determinism contract (pinned by tests/noise_test.cpp and the CI
/// byte-diffs): a source draws randomness ONLY from the Rng stream the
/// stack hands it, and only via random-access forks -- per record
/// Stream.fork(RecordIndex), per epoch/app Stream.fork(Epoch).fork(App)
/// -- never by advancing a shared sequential stream.  Every hook is
/// therefore a pure function of (stack seed, source index, run index,
/// record/epoch index), so any stack composition is bit-reproducible at
/// any --jobs and across corpus-cache temperatures.  Wall clocks,
/// std::random engines and hash-order iteration are banned here by
/// scripts/lint_determinism.sh like everywhere else.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_NOISE_NOISESOURCE_H
#define SCHEDFILTER_NOISE_NOISESOURCE_H

#include "harness/Experiments.h"
#include "ml/Labeler.h"
#include "support/Rng.h"

#include <memory>
#include <optional>
#include <string>

namespace schedfilter {

/// One perturbation of the training/serving signal.  Implementations
/// must be stateless after construction (parameters only): every hook is
/// const and a pure function of its arguments, so sources are shared
/// freely across threads.
class NoiseSource {
public:
  virtual ~NoiseSource() = default;

  /// Canonical parameterized spelling, e.g. "jitter:0.1" -- exactly what
  /// parseNoiseStack would accept to reconstruct this source.
  virtual std::string describe() const = 0;

  /// Record-level hook: mutate \p Run in place.  \p Stream is this
  /// source's private perturbation stream for this run; draw via
  /// Stream.fork(RecordIndex) per record.  Default: no-op.
  virtual void perturb(BenchmarkRun &Run, const Rng &Stream) const;

  /// Label-boundary hook: transform the threshold rule's verdict for
  /// record \p RecordIndex (nullopt = dropped from training).  \p Stream
  /// is this source's private label stream for the run; draw via
  /// Stream.fork(RecordIndex).  Default: identity.
  virtual std::optional<Label> perturbLabel(std::optional<Label> L,
                                            const BlockRecord &Rec,
                                            size_t RecordIndex,
                                            const Rng &Stream) const;

  /// True when mixWeightFactor is non-trivial; lets the stack hand
  /// MultiAppService no drift function at all (the exact pre-noise fast
  /// path) when no source drifts.
  virtual bool drifts() const { return false; }

  /// Mix-drift hook: the multiplicative factor on app \p AppIndex's
  /// interleave weight during epoch \p Epoch.  Must be positive and a
  /// pure function of the arguments and \p Stream (this source's private
  /// drift stream; draw via Stream.fork(Epoch).fork(AppIndex)).
  /// Default: 1.0.
  virtual double mixWeightFactor(uint64_t Epoch, size_t AppIndex,
                                 const Rng &Stream) const;
};

/// Factories of the built-in sources, each defined in its own
/// translation unit (one file per source, like the workload families).
/// Parameter ranges are enforced by parseNoiseStack; the factories
/// assert.

/// Per-record multiplicative timing noise: each cost c > 0 becomes
/// round(c * exp(N(0, Sigma))), clamped to >= 1; zero costs stay zero.
/// Models simulator/timer inaccuracy that is independent per block.
std::unique_ptr<NoiseSource> makeLatencyJitter(double Sigma);

/// Systematic model mis-tuning: the records keep the costs traced under
/// the training model, but the run's ModelName and fixed-policy reports
/// are recomputed under \p ServeModel (MachineModel::byName) -- the
/// paper's transfer experiment (train on ppc7410, measure on ppc970) as
/// a composable source.  Draws no randomness.
std::unique_ptr<NoiseSource> makeModelMisTune(std::string ServeModel);

/// Label noise: each labeled instance flips LS<->NS with probability
/// \p FlipProb at the Labeler boundary; dropped (noise-band) records
/// stay dropped.
std::unique_ptr<NoiseSource> makeLabelNoise(double FlipProb);

/// Cache-miss-style cost spikes: with probability \p Prob a record gains
/// a heavy-tailed (truncated Pareto) burst added to BOTH costs -- the
/// miss hits the block however it was scheduled -- which shrinks the
/// block's relative scheduling benefit the way a miss-dominated block's
/// real benefit shrinks.
std::unique_ptr<NoiseSource> makeCostSpikes(double Prob);

/// Drifting workload mix: app weights swing smoothly over the virtual
/// clock -- factor(epoch, app) = exp(Amplitude * sin(2*pi*epoch/period
/// + phase)) with a per-app period and phase drawn from the drift
/// stream -- so a MultiAppService mix's traffic shares change over time
/// while every draw stays a pure function of (seed, epoch, app).
std::unique_ptr<NoiseSource> makeMixDrift(double Amplitude);

} // namespace schedfilter

#endif // SCHEDFILTER_NOISE_NOISESOURCE_H
