//===- ml/Labeler.cpp - Threshold labeling of raw block records ------------===//

#include "ml/Labeler.h"

#include "support/TaskPool.h"

#include <cassert>

using namespace schedfilter;

double schedfilter::schedulingBenefitPercent(const BlockRecord &R) {
  if (R.CostNoSched == 0)
    return 0.0;
  return 100.0 *
         (static_cast<double>(R.CostNoSched) -
          static_cast<double>(R.CostSched)) /
         static_cast<double>(R.CostNoSched);
}

std::optional<Label>
schedfilter::labelWithThreshold(const BlockRecord &R, double ThresholdPct) {
  double Benefit = schedulingBenefitPercent(R);
  if (Benefit > ThresholdPct)
    return Label::LS;
  if (Benefit <= 0.0)
    return Label::NS;
  return std::nullopt; // benefit in (0, t]: dropped as noise
}

std::shared_ptr<const RankTable>
schedfilter::rankRecordSets(const std::vector<RecordSet> &Sets,
                            TaskPool &Pool) {
  size_t Rows = 0;
  for (const RecordSet &S : Sets)
    Rows += S.Records->size();
  std::vector<double> Values(static_cast<size_t>(NumFeatures) * Rows);
  size_t Row = 0;
  for (const RecordSet &S : Sets)
    for (const BlockRecord &Rec : *S.Records) {
      for (unsigned F = 0; F != NumFeatures; ++F)
        Values[static_cast<size_t>(F) * Rows + Row] = Rec.X[F];
      ++Row;
    }
  return std::make_shared<const RankTable>(Rows, std::move(Values), &Pool);
}

std::vector<Dataset>
schedfilter::labelRecordSets(const std::vector<RecordSet> &Sets,
                             double ThresholdPct, TaskPool &Pool,
                             std::shared_ptr<const RankTable> Table,
                             const LabelTransformFactory &MakeTransform) {
  if (!Table)
    Table = rankRecordSets(Sets, Pool);
  std::vector<size_t> First(Sets.size() + 1, 0);
  for (size_t B = 0; B != Sets.size(); ++B)
    First[B + 1] = First[B] + Sets[B].Records->size();
  assert(Table->rows() == First.back() && "a table of these sets' records");

  std::vector<Dataset> Datasets(Sets.size());
  Pool.parallelFor(Sets.size(), [&](size_t B) {
    const std::vector<BlockRecord> &Records = *Sets[B].Records;
    LabelTransform Transform = MakeTransform ? MakeTransform(B) : nullptr;
    Dataset D(Sets[B].Name, Table);
    D.reserve(Records.size());
    for (size_t R = 0; R != Records.size(); ++R) {
      std::optional<Label> L = labelWithThreshold(Records[R], ThresholdPct);
      if (Transform)
        L = Transform(L, Records[R], R);
      if (L)
        D.addRow(static_cast<uint32_t>(First[B] + R), *L);
    }
    Datasets[B] = std::move(D);
  });
  return Datasets;
}

Dataset schedfilter::buildDataset(const std::vector<BlockRecord> &Records,
                                  double ThresholdPct, const std::string &Name,
                                  TaskPool *Pool) {
  TaskPool Serial(1);
  return std::move(labelRecordSets({{Name, &Records}}, ThresholdPct,
                                   Pool ? *Pool : Serial)
                       .front());
}
