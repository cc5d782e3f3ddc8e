//===- support/Statistics.cpp - Small statistics helpers -----------------===//

#include "support/Statistics.h"

#include <algorithm>
#include <cmath>

using namespace schedfilter;

double schedfilter::mean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}

double schedfilter::geometricMean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  // Clamp zeros so that a single perfect 0.00% error rate does not zero out
  // the suite-wide summary.
  const double Eps = 1e-3;
  double LogSum = 0.0;
  for (double V : Values)
    LogSum += std::log(std::max(V, Eps));
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

double schedfilter::median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  if (N % 2 == 1)
    return Values[N / 2];
  return 0.5 * (Values[N / 2 - 1] + Values[N / 2]);
}

double schedfilter::safeRatio(double Numerator, double Denominator,
                              double IfZero) {
  if (Denominator == 0.0)
    return IfZero;
  return Numerator / Denominator;
}
