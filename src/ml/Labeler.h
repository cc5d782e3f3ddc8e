//===- ml/Labeler.h - Threshold labeling of raw block records ---*- C++ -*-===//
///
/// \file
/// Turns raw (features, cost-without-scheduling, cost-with-scheduling)
/// block records into labeled training instances, implementing the paper's
/// threshold rule (§2.2): label LS when list scheduling is more than t%
/// better than not scheduling, NS when scheduling is not better at all, and
/// produce *no instance* when the benefit lies in (0, t] — the paper's
/// noise-filtering device.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_ML_LABELER_H
#define SCHEDFILTER_ML_LABELER_H

#include "ml/Dataset.h"

#include <functional>
#include <optional>

namespace schedfilter {

/// Raw per-block record emitted by the instrumented scheduler: features,
/// simulated cost unscheduled and list-scheduled, and the profile weight.
struct BlockRecord {
  FeatureVector X{};
  uint64_t CostNoSched = 0;
  uint64_t CostSched = 0;
  uint64_t ExecCount = 1;
};

/// Percentage improvement of scheduling for \p R:
/// 100 * (CostNoSched - CostSched) / CostNoSched.  Negative when scheduling
/// degrades the block.  Returns 0 for a zero-cost block.
double schedulingBenefitPercent(const BlockRecord &R);

/// Applies the paper's labeling rule with threshold \p ThresholdPct:
/// returns LS if benefit > t, NS if benefit <= 0, and nullopt otherwise
/// (the instance is dropped from training).
std::optional<Label> labelWithThreshold(const BlockRecord &R,
                                        double ThresholdPct);

/// Labels every record of \p Records at threshold \p ThresholdPct, dropping
/// the (0, t] band, and returns the resulting dataset named \p Name.
Dataset buildDataset(const std::vector<BlockRecord> &Records,
                     double ThresholdPct, const std::string &Name);

/// Post-threshold transform of one record's verdict (nullopt = no
/// training instance): label-noise sources and band-handling ablations
/// plug in here, downstream of the threshold rule and upstream of
/// Dataset assembly.  \p RecordIndex is the record's index in its run's
/// trace, the key deterministic noise forks per-record streams from.
using LabelTransform = std::function<std::optional<Label>(
    std::optional<Label> L, const BlockRecord &Rec, size_t RecordIndex)>;

/// buildDataset with \p Transform applied to every record's threshold
/// verdict.  A null transform is the plain overload.
Dataset buildDataset(const std::vector<BlockRecord> &Records,
                     double ThresholdPct, const std::string &Name,
                     const LabelTransform &Transform);

} // namespace schedfilter

#endif // SCHEDFILTER_ML_LABELER_H
