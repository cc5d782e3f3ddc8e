//===- ml/Metrics.cpp - Classifier evaluation -------------------------------===//

#include "ml/Metrics.h"

using namespace schedfilter;

double ConfusionMatrix::errorRate() const {
  size_t N = total();
  if (N == 0)
    return 0.0;
  return static_cast<double>(errors()) / static_cast<double>(N);
}

ConfusionMatrix schedfilter::evaluate(const RuleSet &RS, const Dataset &Data) {
  ConfusionMatrix M;
  for (size_t K = 0; K != Data.size(); ++K) {
    const Instance I = Data[K];
    Label Pred = RS.predict(I.X);
    if (I.Y == Label::LS) {
      if (Pred == Label::LS)
        ++M.TruePos;
      else
        ++M.FalseNeg;
    } else {
      if (Pred == Label::LS)
        ++M.FalsePos;
      else
        ++M.TrueNeg;
    }
  }
  return M;
}

double schedfilter::errorRatePercent(const RuleSet &RS, const Dataset &Data) {
  return 100.0 * evaluate(RS, Data).errorRate();
}
