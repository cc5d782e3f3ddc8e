//===- support/Statistics.h - Small statistics helpers ---------*- C++ -*-===//
///
/// \file
/// Summary statistics used when rendering the paper's tables and figures:
/// the paper reports geometric means of ratios and medians of repeated runs.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_SUPPORT_STATISTICS_H
#define SCHEDFILTER_SUPPORT_STATISTICS_H

#include <vector>

namespace schedfilter {

/// Returns the arithmetic mean of \p Values; 0 for an empty vector.
double mean(const std::vector<double> &Values);

/// Returns the geometric mean of \p Values.  Zero entries are clamped to a
/// tiny positive epsilon first (the paper's Table 3 contains exact 0.00%
/// error rates yet still reports a geometric mean, implying the authors did
/// the same or similar).  Returns 0 for an empty vector.
double geometricMean(const std::vector<double> &Values);

/// Returns the median of \p Values (copies and sorts); 0 for empty input.
double median(std::vector<double> Values);

/// Returns Numerator / Denominator, or \p IfZero when the denominator is 0.
double safeRatio(double Numerator, double Denominator, double IfZero = 0.0);

} // namespace schedfilter

#endif // SCHEDFILTER_SUPPORT_STATISTICS_H
