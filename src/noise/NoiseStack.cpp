//===- noise/NoiseStack.cpp - Ordered composition of noise sources ----------===//

#include "noise/NoiseStack.h"

#include "support/StringUtils.h"
#include "target/MachineModel.h"

#include <cmath>

using namespace schedfilter;

void NoiseSource::perturb(BenchmarkRun &, const Rng &) const {}

std::optional<Label> NoiseSource::perturbLabel(std::optional<Label> L,
                                               const BlockRecord &, size_t,
                                               const Rng &) const {
  return L;
}

double NoiseSource::mixWeightFactor(uint64_t, size_t, const Rng &) const {
  return 1.0;
}

NoiseStack &NoiseStack::add(std::unique_ptr<NoiseSource> S) {
  Sources.push_back(std::move(S));
  return *this;
}

std::string NoiseStack::describe() const {
  if (Sources.empty())
    return "none";
  std::string Out;
  for (const std::unique_ptr<NoiseSource> &S : Sources) {
    if (!Out.empty())
      Out += ",";
    Out += S->describe();
  }
  return Out;
}

void NoiseStack::perturbRun(BenchmarkRun &Run, size_t RunIndex) const {
  for (size_t S = 0; S != Sources.size(); ++S)
    Sources[S]->perturb(Run, laneStream(S, LanePerturb).fork(RunIndex));
}

void NoiseStack::perturbSuite(std::vector<BenchmarkRun> &Suite,
                              TaskPool &Pool) const {
  if (Sources.empty())
    return;
  Pool.parallelFor(Suite.size(), [&](size_t B) { perturbRun(Suite[B], B); });
}

std::vector<Dataset>
NoiseStack::labelSuite(const std::vector<BenchmarkRun> &Suite,
                       double ThresholdPct, TaskPool &Pool) const {
  if (Sources.empty())
    return labelRecordSets(recordSets(Suite), ThresholdPct, Pool);
  // Run B's transform applies every source's label hook in order, each
  // on its own lane stream L_i(B).
  auto MakeTransform = [this](size_t RunIndex) -> LabelTransform {
    std::vector<Rng> Lanes;
    Lanes.reserve(Sources.size());
    for (size_t S = 0; S != Sources.size(); ++S)
      Lanes.push_back(laneStream(S, LaneLabel).fork(RunIndex));
    return [this, Lanes = std::move(Lanes)](std::optional<Label> L,
                                            const BlockRecord &Rec,
                                            size_t I) {
      for (size_t S = 0; S != Sources.size(); ++S)
        L = Sources[S]->perturbLabel(L, Rec, I, Lanes[S]);
      return L;
    };
  };
  return labelRecordSets(recordSets(Suite), ThresholdPct, Pool, nullptr,
                         MakeTransform);
}

std::function<double(uint64_t, size_t)> NoiseStack::mixDrift() const {
  // Lane streams are captured by value; the source pointers borrow the
  // stack (see the header: the function must not outlive it).
  std::vector<std::pair<const NoiseSource *, Rng>> Drifting;
  for (size_t S = 0; S != Sources.size(); ++S)
    if (Sources[S]->drifts())
      Drifting.emplace_back(Sources[S].get(), laneStream(S, LaneDrift));
  if (Drifting.empty())
    return nullptr;
  return [Drifting](uint64_t Epoch, size_t App) {
    double F = 1.0;
    for (const auto &[Src, Stream] : Drifting)
      F *= Src->mixWeightFactor(Epoch, App, Stream);
    return F;
  };
}

//===----------------------------------------------------------------------===//
// --noise spec parsing
//===----------------------------------------------------------------------===//

std::string schedfilter::knownNoiseSources() {
  return "jitter:SIGMA, mistune:MODEL, labelflip:P, spikes:P, drift:A";
}

namespace {

/// A parseDecimal value in [Lo, Hi]; the finite bounds also reject NaN
/// and infinities.
std::optional<double> parseParam(const std::string &V, double Lo, double Hi) {
  std::optional<double> X = parseDecimal(V);
  if (!X || !(*X >= Lo && *X <= Hi))
    return std::nullopt;
  return X;
}

} // namespace

ParseResult<NoiseStack> schedfilter::parseNoiseStack(const std::string &Spec,
                                                     uint64_t Seed) {
  NoiseStack Stack(Seed);
  if (Spec.empty())
    return Stack;

  std::vector<std::string> Items;
  size_t Start = 0;
  while (true) {
    size_t Comma = Spec.find(',', Start);
    Items.push_back(Spec.substr(Start, Comma - Start));
    if (Comma == std::string::npos)
      break;
    Start = Comma + 1;
  }

  for (size_t I = 0; I != Items.size(); ++I) {
    const std::string &Item = Items[I];
    const size_t Ordinal = I + 1;
    if (Item.empty())
      return ParseError{Ordinal, "empty noise item (known sources: " +
                                     knownNoiseSources() + ")"};
    std::string Name = Item;
    std::string Param;
    bool HasParam = false;
    size_t Colon = Item.find(':');
    if (Colon != std::string::npos) {
      Name = Item.substr(0, Colon);
      Param = Item.substr(Colon + 1);
      HasParam = true;
    }

    auto NumericParam = [&](const char *Spelling, double Lo,
                            double Hi) -> ParseResult<double> {
      if (!HasParam)
        return ParseError{Ordinal, "'" + Name + "' requires a parameter (" +
                                       std::string(Spelling) + ")"};
      std::optional<double> V = parseParam(Param, Lo, Hi);
      if (!V)
        return ParseError{Ordinal,
                          "'" + Name + "' expects a number in [" +
                              formatDouble(Lo, 0) + ", " + formatDouble(Hi, 0) +
                              "], got '" + Param + "'"};
      return *V;
    };

    if (Name == "jitter") {
      ParseResult<double> V = NumericParam("jitter:SIGMA", 0.0, 2.0);
      if (!V)
        return V.error();
      Stack.add(makeLatencyJitter(*V));
    } else if (Name == "mistune") {
      if (!HasParam)
        return ParseError{Ordinal,
                          "'mistune' requires a model name (mistune:MODEL)"};
      if (!MachineModel::byName(Param))
        return ParseError{Ordinal, "'mistune' names unknown model '" + Param +
                                       "' (" + MachineModel::knownNamesList() +
                                       ")"};
      Stack.add(makeModelMisTune(Param));
    } else if (Name == "labelflip") {
      ParseResult<double> V = NumericParam("labelflip:P", 0.0, 1.0);
      if (!V)
        return V.error();
      Stack.add(makeLabelNoise(*V));
    } else if (Name == "spikes") {
      ParseResult<double> V = NumericParam("spikes:P", 0.0, 1.0);
      if (!V)
        return V.error();
      Stack.add(makeCostSpikes(*V));
    } else if (Name == "drift") {
      ParseResult<double> V = NumericParam("drift:A", 0.0, 4.0);
      if (!V)
        return V.error();
      Stack.add(makeMixDrift(*V));
    } else {
      return ParseError{Ordinal, "unknown noise source '" + Name +
                                     "' (known: " + knownNoiseSources() + ")"};
    }
  }
  return Stack;
}
