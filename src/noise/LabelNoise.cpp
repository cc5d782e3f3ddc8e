//===- noise/LabelNoise.cpp - Seeded label flips --------------------------===//
///
/// \file
/// Label noise at the Labeler boundary: each instance the threshold rule
/// kept flips LS<->NS with probability P.  Records the rule dropped into
/// the (0, t] noise band stay dropped -- the source corrupts answers, it
/// does not resurrect questions -- so the training-set *size* is
/// invariant under this source and only its class assignment degrades.
///
//===----------------------------------------------------------------------===//

#include "noise/NoiseSource.h"

#include "support/StringUtils.h"

#include <cassert>

using namespace schedfilter;

namespace {

class LabelNoise final : public NoiseSource {
public:
  explicit LabelNoise(double FlipProb) : FlipProb(FlipProb) {
    assert(FlipProb >= 0.0 && FlipProb <= 1.0 &&
           "parseNoiseStack enforces range");
  }

  std::string describe() const override {
    return "labelflip:" + formatTrimmed(FlipProb);
  }

  std::optional<Label> perturbLabel(std::optional<Label> L,
                                    const BlockRecord &, size_t RecordIndex,
                                    const Rng &Stream) const override {
    if (!L)
      return L;
    Rng R = Stream.fork(RecordIndex);
    if (!R.chance(FlipProb))
      return L;
    return *L == Label::LS ? Label::NS : Label::LS;
  }

private:
  double FlipProb;
};

} // namespace

std::unique_ptr<NoiseSource> schedfilter::makeLabelNoise(double FlipProb) {
  return std::make_unique<LabelNoise>(FlipProb);
}
