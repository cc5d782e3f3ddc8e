//===- noise/CostSpikes.cpp - Heavy-tailed cache-miss cost bursts ---------===//
///
/// \file
/// Cache-miss-style cost spikes: with probability P a record gains a
/// truncated-Pareto burst added to BOTH costs -- a miss stalls the block
/// however it was scheduled.  Adding the same burst to numerator and
/// denominator shrinks the block's *relative* scheduling benefit, the
/// way a miss-dominated block's real benefit shrinks, so spikes push
/// borderline-LS blocks below the labeling threshold without inventing
/// benefit anywhere.
///
//===----------------------------------------------------------------------===//

#include "noise/NoiseSource.h"

#include "support/StringUtils.h"

#include <cassert>
#include <cmath>

using namespace schedfilter;

namespace {

/// Tail exponent and support of the burst distribution.  Alpha 1.5 gives
/// a finite-mean, infinite-variance tail (the classic miss-latency
/// shape); bursts span [MinBurst, MaxBurst] cycles.
constexpr double Alpha = 1.5;
constexpr double MinBurst = 8.0;
constexpr double MaxBurst = 4096.0;

class CostSpikes final : public NoiseSource {
public:
  explicit CostSpikes(double Prob) : Prob(Prob) {
    assert(Prob >= 0.0 && Prob <= 1.0 && "parseNoiseStack enforces range");
  }

  std::string describe() const override {
    return "spikes:" + formatTrimmed(Prob);
  }

  void perturb(BenchmarkRun &Run, const Rng &Stream) const override {
    for (size_t I = 0; I != Run.Records.size(); ++I) {
      BlockRecord &Rec = Run.Records[I];
      if (Rec.CostNoSched == 0)
        continue; // Empty blocks have nothing to miss on.
      Rng R = Stream.fork(I);
      if (!R.chance(Prob))
        continue;
      uint64_t Burst = sampleBurst(R);
      Rec.CostNoSched += Burst;
      Rec.CostSched += Burst;
    }
  }

private:
  /// Inverse-transform sample of a Pareto(Alpha) truncated to
  /// [MinBurst, MaxBurst]: exactly uniform in the truncated CDF, so the
  /// cap never piles mass at the endpoint.
  uint64_t sampleBurst(Rng &R) const {
    double U = R.uniform();
    double CdfAtMax = 1.0 - std::pow(MinBurst / MaxBurst, Alpha);
    double X = MinBurst * std::pow(1.0 - U * CdfAtMax, -1.0 / Alpha);
    return static_cast<uint64_t>(std::round(X));
  }

  double Prob;
};

} // namespace

std::unique_ptr<NoiseSource> schedfilter::makeCostSpikes(double Prob) {
  return std::make_unique<CostSpikes>(Prob);
}
