//===- ml/Metrics.h - Classifier evaluation ----------------------*- C++ -*-===//
///
/// \file
/// Evaluation metrics for induced filters: the classification error rates
/// of the paper's Table 3 plus the supporting confusion-matrix counts used
/// by Table 6 and the tests.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_ML_METRICS_H
#define SCHEDFILTER_ML_METRICS_H

#include "ml/Rule.h"

namespace schedfilter {

/// 2x2 confusion counts for the LS/NS problem ("positive" = LS).
struct ConfusionMatrix {
  size_t TruePos = 0;  ///< actual LS, predicted LS
  size_t FalsePos = 0; ///< actual NS, predicted LS
  size_t TrueNeg = 0;  ///< actual NS, predicted NS
  size_t FalseNeg = 0; ///< actual LS, predicted NS

  size_t total() const { return TruePos + FalsePos + TrueNeg + FalseNeg; }
  size_t errors() const { return FalsePos + FalseNeg; }

  /// Fraction misclassified in [0, 1]; 0 for an empty matrix.
  double errorRate() const;
};

/// Evaluates \p RS on every instance of \p Data.
ConfusionMatrix evaluate(const RuleSet &RS, const Dataset &Data);

/// Convenience: percent misclassified (Table 3's unit).
double errorRatePercent(const RuleSet &RS, const Dataset &Data);

} // namespace schedfilter

#endif // SCHEDFILTER_ML_METRICS_H
