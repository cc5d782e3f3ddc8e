//===- support/Rng.cpp - Deterministic random number generation ----------===//

#include "support/Rng.h"

#include <climits>
#include <cmath>

using namespace schedfilter;

/// SplitMix64 step used for seeding so that nearby seeds give unrelated
/// streams.
static uint64_t splitMix64(uint64_t &X) {
  X += 0x9e3779b97f4a7c15ULL;
  uint64_t Z = X;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

void Rng::reseed(uint64_t Seed) {
  uint64_t S = Seed;
  State = splitMix64(S);
  Inc = splitMix64(S) | 1ULL; // PCG requires an odd increment.
  (void)next32();
}

uint32_t Rng::below(uint32_t Bound) {
  assert(Bound != 0 && "below() requires a nonzero bound");
  // Rejection sampling to avoid modulo bias.
  uint32_t Threshold = (0u - Bound) % Bound;
  for (;;) {
    uint32_t R = next32();
    if (R >= Threshold)
      return R % Bound;
  }
}

int Rng::range(int Lo, int Hi) {
  assert(Lo <= Hi && "range() requires Lo <= Hi");
  return Lo + static_cast<int>(below(static_cast<uint32_t>(Hi - Lo + 1)));
}

double Rng::uniform() {
  // 53 random bits mapped to [0, 1).
  return static_cast<double>(next53()) * 0x1.0p-53;
}

double Rng::uniform(double Lo, double Hi) { return Lo + (Hi - Lo) * uniform(); }

bool Rng::chance(double P) {
  if (P <= 0.0)
    return false;
  if (P >= 1.0)
    return true;
  return uniform() < P;
}

int Rng::geometric(double P) {
  assert(P > 0.0 && P <= 1.0 && "geometric() requires P in (0, 1]");
  if (P >= 1.0)
    return 1;
  // Inverse transform: ceil(log(U) / log(1 - P)).
  double U = uniform();
  if (U <= 0.0)
    U = 0x1.0p-53;
  double K = std::ceil(std::log(U) / std::log1p(-P));
  if (K >= static_cast<double>(INT_MAX))
    return INT_MAX;
  return K < 1.0 ? 1 : static_cast<int>(K);
}

double Rng::gaussian(double Mean, double Stddev) {
  double Sum = 0.0;
  for (int I = 0; I < 12; ++I)
    Sum += uniform();
  return Mean + (Sum - 6.0) * Stddev;
}

size_t Rng::pickWeighted(const std::vector<double> &Weights) {
  assert(!Weights.empty() && "pickWeighted() requires at least one weight");
  double Total = 0.0;
  for (double W : Weights) {
    assert(W >= 0.0 && "weights must be nonnegative");
    Total += W;
  }
  assert(Total > 0.0 && "weights must not all be zero");
  double X = uniform() * Total;
  for (size_t I = 0, E = Weights.size(); I != E; ++I) {
    X -= Weights[I];
    if (X < 0.0)
      return I;
  }
  return Weights.size() - 1;
}

Rng Rng::split() { return Rng(next64()); }

Rng Rng::fork(uint64_t StreamId) const {
  // Hash (State, Inc, StreamId) through two SplitMix64 steps.  Unlike
  // split(), this is const: the parent stream is left untouched, so the
  // mapping StreamId -> stream does not depend on when (or whether) other
  // forks happen -- the property parallel task dispatch relies on.
  uint64_t S = State + 0x9e3779b97f4a7c15ULL * (StreamId + 1);
  uint64_t Seed = splitMix64(S);
  S ^= Inc;
  Seed ^= splitMix64(S);
  return Rng(Seed);
}
