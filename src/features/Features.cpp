//===- features/Features.cpp - Table 1 block features ----------------------===//

#include "features/Features.h"
#include "support/HotAlign.h"

#include <cassert>

using namespace schedfilter;

// extractFeatures counts category bit K toward Table 1 feature K + 1.
static_assert(CatBranch == 1u << (FeatBranch - 1) &&
                  CatCall == 1u << (FeatCall - 1) &&
                  CatLoad == 1u << (FeatLoad - 1) &&
                  CatStore == 1u << (FeatStore - 1) &&
                  CatReturn == 1u << (FeatReturn - 1) &&
                  CatIntegerFU == 1u << (FeatInteger - 1) &&
                  CatFloatFU == 1u << (FeatFloat - 1) &&
                  CatSystemFU == 1u << (FeatSystem - 1) &&
                  CatPEI == 1u << (FeatPEI - 1) &&
                  CatGCPoint == 1u << (FeatGC - 1) &&
                  CatThreadSwitch == 1u << (FeatTS - 1) &&
                  CatYieldPoint == 1u << (FeatYield - 1) &&
                  NumFeatures == 13,
              "CategoryBits bit K must be Table 1 feature K + 1");

const char *schedfilter::getFeatureName(unsigned F) {
  switch (F) {
  case FeatBBLen:
    return "bbLen";
  case FeatBranch:
    return "branches";
  case FeatCall:
    return "calls";
  case FeatLoad:
    return "loads";
  case FeatStore:
    return "stores";
  case FeatReturn:
    return "returns";
  case FeatInteger:
    return "integers";
  case FeatFloat:
    return "floats";
  case FeatSystem:
    return "systems";
  case FeatPEI:
    return "peis";
  case FeatGC:
    return "gcpoints";
  case FeatTS:
    return "tspoints";
  case FeatYield:
    return "yieldpoints";
  default:
    assert(false && "invalid feature index");
    return "?";
  }
}

SCHEDFILTER_HOT_ALIGN
FeatureVector schedfilter::extractFeatures(const BasicBlock &BB) {
  FeatureVector X{};
  if (BB.empty())
    return X;

  // One pass, counting category membership branch-free: each category
  // bit adds itself to its feature's count (see the static_assert).
  unsigned Counts[NumFeatures] = {0};
  for (const Instruction &I : BB) {
    uint16_t Cats = I.categories();
    for (unsigned K = 0; K != NumFeatures - 1; ++K)
      Counts[K + 1] += (Cats >> K) & 1;
  }

  double N = static_cast<double>(BB.size());
  X[FeatBBLen] = N;
  for (unsigned F = FeatBranch; F != NumFeatures; ++F)
    X[F] = static_cast<double>(Counts[F]) / N;
  return X;
}

uint64_t schedfilter::featureExtractionWork(const BasicBlock &BB) {
  return BB.size() + 1;
}
