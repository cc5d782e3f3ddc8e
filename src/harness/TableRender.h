//===- harness/TableRender.h - Paper-layout table printing ------*- C++ -*-===//
///
/// \file
/// Renders ThresholdResult sweeps in the layout of the paper's Tables 3-6
/// and emits the data series behind Figures 1-3 (as tables + CSV, so any
/// plotting tool can regenerate the figures).
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_HARNESS_TABLERENDER_H
#define SCHEDFILTER_HARNESS_TABLERENDER_H

#include "harness/Experiments.h"

#include <ostream>

namespace schedfilter {

/// Table 3: classification error rates (percent) per benchmark per
/// threshold, with geometric mean.
void renderTable3(const std::vector<ThresholdResult> &Sweep,
                  std::ostream &OS);

/// Table 4: predicted execution times (percent of unscheduled).
void renderTable4(const std::vector<ThresholdResult> &Sweep,
                  std::ostream &OS);

/// Table 5: effect of t on training-set size (LS row; NS is constant).
void renderTable5(const std::vector<ThresholdResult> &Sweep,
                  std::ostream &OS);

/// Table 6: effect of t on run-time classification of blocks.
void renderTable6(const std::vector<ThresholdResult> &Sweep,
                  std::ostream &OS);

/// Figure 1(a)/2(a)/3(a): scheduling effort of L/N relative to LS, in
/// deterministic work units.  Prints one row per threshold with
/// per-benchmark columns and the geometric mean.
void renderEffortFigure(const std::vector<ThresholdResult> &Sweep,
                        std::ostream &OS);

/// Figure 1(b)/2(b)/3(b): application (simulated) running time relative
/// to NS, for L/N at each threshold; also prints the LS reference row.
void renderAppTimeFigure(const std::vector<ThresholdResult> &Sweep,
                         std::ostream &OS);

/// Figure 4: prints one induced filter (rules with coverage counts).
void renderInducedFilter(const RuleSet &Filter, std::ostream &OS);

/// Headline summary (the abstract's claim): percent of LS benefit
/// retained and fraction of LS effort spent (deterministic work units),
/// at each threshold.
void renderHeadline(const std::vector<ThresholdResult> &Sweep,
                    std::ostream &OS);

} // namespace schedfilter

#endif // SCHEDFILTER_HARNESS_TABLERENDER_H
