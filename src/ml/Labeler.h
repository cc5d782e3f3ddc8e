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
/// labelRecordSets is the one way from records to training sets: the
/// harness's suites, the noise stack's label lanes, sf-train and the
/// online serve loop's retrains all label through it, onto one RankTable
/// per call.
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

/// One run's records to label, borrowed, and the name its dataset takes.
struct RecordSet {
  std::string Name;
  const std::vector<BlockRecord> *Records = nullptr;
};

/// Post-threshold transform of one record's verdict (nullopt = no
/// training instance): label-noise sources and band-handling ablations
/// plug in here, downstream of the threshold rule and upstream of
/// Dataset assembly.  \p RecordIndex is the record's index in its run's
/// trace, the key deterministic noise forks per-record streams from.
using LabelTransform = std::function<std::optional<Label>(
    std::optional<Label> L, const BlockRecord &Rec, size_t RecordIndex)>;

/// Makes the LabelTransform of the run at \p RunIndex (its position in
/// the sets being labeled); a null result labels that run plainly.
using LabelTransformFactory = std::function<LabelTransform(size_t RunIndex)>;

/// A rank table over every record of \p Sets: rows run through the sets'
/// records in order, set by set.  Features are ranked on \p Pool.
std::shared_ptr<const RankTable>
rankRecordSets(const std::vector<RecordSet> &Sets, TaskPool &Pool);

/// Labels every record of \p Sets at threshold \p ThresholdPct, dropping
/// the (0, t] band, into one Dataset per set, in input order; parallel by
/// set on \p Pool with identical results at any job count.  The datasets
/// are rows of one rank table: \p Table when given (rankRecordSets of
/// these sets, so a sweep ranks once), else one ranked here.  With
/// \p MakeTransform, set i's verdicts pass through MakeTransform(i).
std::vector<Dataset>
labelRecordSets(const std::vector<RecordSet> &Sets, double ThresholdPct,
                TaskPool &Pool,
                std::shared_ptr<const RankTable> Table = nullptr,
                const LabelTransformFactory &MakeTransform = nullptr);

/// labelRecordSets of the one set \p Records, named \p Name, on \p Pool
/// (serially without one).
Dataset buildDataset(const std::vector<BlockRecord> &Records,
                     double ThresholdPct, const std::string &Name,
                     TaskPool *Pool = nullptr);

} // namespace schedfilter

#endif // SCHEDFILTER_ML_LABELER_H
