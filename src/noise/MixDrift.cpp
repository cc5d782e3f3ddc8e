//===- noise/MixDrift.cpp - Drifting workload mix -------------------------===//
///
/// \file
/// Time-varying traffic shares for MultiAppService: app A's interleave
/// weight during epoch E is scaled by exp(Amplitude * sin(2*pi*E/period
/// + phase)), with a per-app period and phase drawn once from the drift
/// stream.  Incommensurate per-app periods keep the apps' swings out of
/// lockstep, so the *mix* genuinely rotates rather than breathing in
/// unison.  The factor is a pure function of (stream, epoch, app) --
/// fork(App), draw period and phase, evaluate -- so any epoch can be
/// priced in any order, and Amplitude 0 is exactly factor 1.0.
///
//===----------------------------------------------------------------------===//

#include "noise/NoiseSource.h"

#include "support/StringUtils.h"

#include <cassert>
#include <cmath>

using namespace schedfilter;

namespace {

/// Per-app swing periods land in [MinPeriod, MaxPeriod) epochs: long
/// enough that a mix is stable within an epoch, short enough that a
/// bench-length stream sees several full rotations.
constexpr double MinPeriod = 6.0;
constexpr double MaxPeriod = 24.0;
constexpr double TwoPi = 6.283185307179586;

class MixDrift final : public NoiseSource {
public:
  explicit MixDrift(double Amplitude) : Amplitude(Amplitude) {
    assert(Amplitude >= 0.0 && Amplitude <= 4.0 &&
           "parseNoiseStack enforces range");
  }

  std::string describe() const override {
    return "drift:" + formatTrimmed(Amplitude);
  }

  bool drifts() const override { return Amplitude != 0.0; }

  double mixWeightFactor(uint64_t Epoch, size_t AppIndex,
                         const Rng &Stream) const override {
    Rng A = Stream.fork(AppIndex);
    double Period = A.uniform(MinPeriod, MaxPeriod);
    double Phase = A.uniform(0.0, TwoPi);
    double E = static_cast<double>(Epoch);
    return std::exp(Amplitude * std::sin(TwoPi * E / Period + Phase));
  }

private:
  double Amplitude;
};

} // namespace

std::unique_ptr<NoiseSource> schedfilter::makeMixDrift(double Amplitude) {
  return std::make_unique<MixDrift>(Amplitude);
}
