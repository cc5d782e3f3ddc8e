//===- noise/LatencyJitter.cpp - Multiplicative timing noise --------------===//
///
/// \file
/// Per-record multiplicative timing noise: each positive cost c becomes
/// round(c * exp(N(0, Sigma))), clamped to >= 1.  The lognormal factor
/// models a simulator/timer whose per-block error is unbiased in log
/// space -- small blocks wobble by a cycle, big blocks by a share -- and
/// the two costs of one record draw independent factors, so the
/// scheduling benefit itself gets noisy, not just its scale.
///
//===----------------------------------------------------------------------===//

#include "noise/NoiseSource.h"

#include "support/StringUtils.h"

#include <cassert>
#include <cmath>

using namespace schedfilter;

namespace {

class LatencyJitter final : public NoiseSource {
public:
  explicit LatencyJitter(double Sigma) : Sigma(Sigma) {
    assert(Sigma >= 0.0 && Sigma <= 2.0 && "parseNoiseStack enforces range");
  }

  std::string describe() const override {
    return "jitter:" + formatTrimmed(Sigma);
  }

  void perturb(BenchmarkRun &Run, const Rng &Stream) const override {
    for (size_t I = 0; I != Run.Records.size(); ++I) {
      Rng R = Stream.fork(I);
      BlockRecord &Rec = Run.Records[I];
      Rec.CostNoSched = jitterCost(Rec.CostNoSched, R);
      Rec.CostSched = jitterCost(Rec.CostSched, R);
    }
  }

private:
  /// Scales \p Cost by an independent lognormal factor; zero costs stay
  /// zero (an empty block has no latency to mis-measure).
  uint64_t jitterCost(uint64_t Cost, Rng &R) const {
    // Draw even when Cost == 0 so a record's second cost sees the same
    // stream position whether or not the first was zero.
    double Factor = std::exp(R.gaussian(0.0, Sigma));
    if (Cost == 0)
      return 0;
    double Scaled = std::round(static_cast<double>(Cost) * Factor);
    return Scaled < 1.0 ? 1 : static_cast<uint64_t>(Scaled);
  }

  double Sigma;
};

} // namespace

std::unique_ptr<NoiseSource> schedfilter::makeLatencyJitter(double Sigma) {
  return std::make_unique<LatencyJitter>(Sigma);
}
