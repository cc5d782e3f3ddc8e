//===- ml/Metrics.cpp - Classifier evaluation -------------------------------===//

#include "ml/Metrics.h"

using namespace schedfilter;

double schedfilter::errorRatePercent(const RuleSet &RS, const Dataset &Data) {
  size_t N = Data.size();
  if (N == 0)
    return 0.0;
  size_t Errors = 0;
  for (size_t K = 0; K != N; ++K) {
    const Instance I = Data[K];
    Errors += RS.predict(I.X) != I.Y;
  }
  return 100.0 * (static_cast<double>(Errors) / static_cast<double>(N));
}
