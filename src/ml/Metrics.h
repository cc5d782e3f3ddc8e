//===- ml/Metrics.h - Classifier evaluation ----------------------*- C++ -*-===//
///
/// \file
/// Evaluation metric for induced filters: the classification error rate
/// of the paper's Table 3 (and sf-train's training error).
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_ML_METRICS_H
#define SCHEDFILTER_ML_METRICS_H

#include "ml/Rule.h"

namespace schedfilter {

/// Percent of \p Data's instances that \p RS misclassifies (Table 3's
/// unit); 0 for an empty dataset.
double errorRatePercent(const RuleSet &RS, const Dataset &Data);

} // namespace schedfilter

#endif // SCHEDFILTER_ML_METRICS_H
