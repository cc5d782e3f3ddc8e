//===- tests/labeler_test.cpp - ml/Labeler unit tests -----------------------===//

#include "ml/Labeler.h"

#include "support/Rng.h"
#include "support/TaskPool.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace schedfilter;

namespace {

BlockRecord record(uint64_t CostNo, uint64_t CostSched) {
  BlockRecord R;
  R.CostNoSched = CostNo;
  R.CostSched = CostSched;
  return R;
}

} // namespace

TEST(Labeler, BenefitPercentMath) {
  EXPECT_DOUBLE_EQ(schedulingBenefitPercent(record(100, 80)), 20.0);
  EXPECT_DOUBLE_EQ(schedulingBenefitPercent(record(100, 100)), 0.0);
  EXPECT_DOUBLE_EQ(schedulingBenefitPercent(record(100, 110)), -10.0);
  EXPECT_DOUBLE_EQ(schedulingBenefitPercent(record(0, 0)), 0.0);
}

TEST(Labeler, ZeroThresholdSplitsOnAnyImprovement) {
  EXPECT_EQ(labelWithThreshold(record(100, 99), 0.0), Label::LS);
  EXPECT_EQ(labelWithThreshold(record(100, 100), 0.0), Label::NS);
  EXPECT_EQ(labelWithThreshold(record(100, 101), 0.0), Label::NS);
}

TEST(Labeler, PositiveThresholdDropsTheNoiseBand) {
  // Benefit 10% at t=20: in (0, t], so no training instance at all.
  EXPECT_EQ(labelWithThreshold(record(100, 90), 20.0), std::nullopt);
  // Benefit exactly t is still dropped (rule is "more than t% less").
  EXPECT_EQ(labelWithThreshold(record(100, 80), 20.0), std::nullopt);
  // Above t: LS.
  EXPECT_EQ(labelWithThreshold(record(100, 79), 20.0), Label::LS);
  // "NS if scheduling is not better (at all)" regardless of t.
  EXPECT_EQ(labelWithThreshold(record(100, 100), 20.0), Label::NS);
  EXPECT_EQ(labelWithThreshold(record(100, 120), 20.0), Label::NS);
}

TEST(Labeler, BuildDatasetDropsBandOnly) {
  std::vector<BlockRecord> Records = {
      record(100, 70),  // 30% -> LS at t=20
      record(100, 90),  // 10% -> dropped at t=20
      record(100, 100), // 0%  -> NS
      record(100, 130), // -30% -> NS
  };
  Dataset D = buildDataset(Records, 20.0, "x");
  EXPECT_EQ(D.size(), 3u);
  EXPECT_EQ(D.countLabel(Label::LS), 1u);
  EXPECT_EQ(D.countLabel(Label::NS), 2u);
}

TEST(Labeler, NsCountInvariantUnderThreshold) {
  // The paper's Table 5: NS is constant as t varies, only LS shrinks.
  std::vector<BlockRecord> Records;
  for (int B = 0; B <= 50; ++B)
    Records.push_back(record(100, static_cast<uint64_t>(100 - B)));
  for (int B = 1; B <= 20; ++B)
    Records.push_back(record(100, static_cast<uint64_t>(100 + B)));

  size_t NsAt0 = buildDataset(Records, 0.0, "x").countLabel(Label::NS);
  size_t PrevLS = buildDataset(Records, 0.0, "x").countLabel(Label::LS);
  for (double T : {5.0, 10.0, 25.0, 50.0}) {
    Dataset D = buildDataset(Records, T, "x");
    EXPECT_EQ(D.countLabel(Label::NS), NsAt0);
    EXPECT_LE(D.countLabel(Label::LS), PrevLS);
    PrevLS = D.countLabel(Label::LS);
  }
}

TEST(Labeler, DatasetKeepsName) {
  EXPECT_EQ(buildDataset({}, 0.0, "compress").getName(), "compress");
}

TEST(Labeler, FeaturesCarriedThrough) {
  BlockRecord R = record(100, 50);
  R.X[FeatBBLen] = 42.0;
  Dataset D = buildDataset({R}, 0.0, "x");
  ASSERT_EQ(D.size(), 1u);
  EXPECT_EQ(D[0].X[FeatBBLen], 42.0);
  EXPECT_EQ(D[0].Y, Label::LS);

  // An instance carries its record's own bits, not its rank's value: a
  // -0.0 after a +0.0 shares their rank, whose value is the +0.0 of the
  // lower row.
  BlockRecord Pos = record(100, 50), Neg = record(100, 50);
  Pos.X[FeatLoad] = 0.0;
  Neg.X[FeatLoad] = -0.0;
  Dataset Z = buildDataset({Pos, Neg}, 0.0, "z");
  ASSERT_EQ(Z.size(), 2u);
  ASSERT_EQ(Z.rankTable()->rankValues(FeatLoad).size(), 1u);
  EXPECT_FALSE(std::signbit(Z.rankTable()->rankValues(FeatLoad)[0]));
  EXPECT_FALSE(std::signbit(Z[0].X[FeatLoad]));
  EXPECT_TRUE(std::signbit(Z[1].X[FeatLoad]));
}

TEST(Labeler, ZeroCostBlocksAreAlwaysNs) {
  // A zero-cost block has benefit defined as 0, so it is NS at every
  // threshold -- never dropped, never divided by zero.
  for (double T : {0.0, 20.0, 50.0}) {
    EXPECT_EQ(labelWithThreshold(record(0, 0), T), Label::NS);
    // Even a nonsense trace (scheduled cost without unscheduled cost)
    // falls back to the benefit-0 rule instead of misbehaving.
    EXPECT_EQ(labelWithThreshold(record(0, 7), T), Label::NS);
  }
}

TEST(Labeler, ExecCountDoesNotAffectLabeling) {
  // The threshold rule is per-block, not profile-weighted (the paper
  // labels each block once however hot it is); ExecCount matters to
  // evaluation, never to the label.
  for (uint64_t Exec : {uint64_t(1), uint64_t(1000), uint64_t(1) << 40}) {
    BlockRecord LS = record(100, 70), Band = record(100, 90),
                NS = record(100, 120);
    LS.ExecCount = Band.ExecCount = NS.ExecCount = Exec;
    EXPECT_EQ(labelWithThreshold(LS, 20.0), Label::LS);
    EXPECT_EQ(labelWithThreshold(Band, 20.0), std::nullopt);
    EXPECT_EQ(labelWithThreshold(NS, 20.0), Label::NS);
    Dataset D = buildDataset({LS, Band, NS}, 20.0, "x");
    EXPECT_EQ(D.size(), 2u);
    EXPECT_EQ(D.countLabel(Label::LS), 1u);
  }
}

TEST(Labeler, BuildDatasetAgreesWithLabelWithThresholdOnRandomRecords) {
  // buildDataset must be exactly "labelWithThreshold per record, drops
  // skipped, order preserved" -- checked on a seeded random trace across
  // several thresholds.
  Rng R(0xabcdef);
  std::vector<BlockRecord> Records;
  for (size_t I = 0; I != 500; ++I) {
    BlockRecord Rec = record(R.below(200), R.below(200));
    Rec.X[FeatBBLen] = static_cast<double>(I); // tag to verify order
    Records.push_back(Rec);
  }
  for (double T : {0.0, 5.0, 20.0, 75.0}) {
    Dataset D = buildDataset(Records, T, "rand");
    size_t Kept = 0;
    for (size_t I = 0; I != Records.size(); ++I) {
      std::optional<Label> L = labelWithThreshold(Records[I], T);
      if (!L)
        continue;
      ASSERT_LT(Kept, D.size());
      EXPECT_EQ(D[Kept].Y, *L) << "record " << I << " at t=" << T;
      EXPECT_EQ(D[Kept].X[FeatBBLen], static_cast<double>(I));
      ++Kept;
    }
    EXPECT_EQ(D.size(), Kept);
  }
}

TEST(Labeler, TransformSeesVerdictRecordAndIndex) {
  // The hook contract of the noise layer: the per-run factory is asked
  // for run i's transform, which receives the threshold rule's verdict,
  // the raw record, and the record's index in its own run's trace (the
  // key per-record noise streams fork from), and its return decides the
  // instance.
  std::vector<BlockRecord> Plain = {record(100, 70)};
  std::vector<BlockRecord> Records = {record(100, 70),   // LS
                                      record(100, 90),   // dropped at t=20
                                      record(100, 120)}; // NS
  std::vector<size_t> Runs;
  std::vector<size_t> SeenIndices;
  std::vector<std::optional<Label>> SeenVerdicts;
  LabelTransformFactory Factory = [&](size_t Run) -> LabelTransform {
    Runs.push_back(Run);
    if (Run == 0)
      return nullptr; // run 0 labels plainly
    return [&](std::optional<Label> L, const BlockRecord &Rec, size_t I) {
      SeenIndices.push_back(I);
      SeenVerdicts.push_back(L);
      EXPECT_EQ(Rec.CostNoSched, 100u);
      // Resurrect the band as LS, drop true NS: both directions of the
      // transform exercised at once.
      if (!L)
        return std::optional<Label>(Label::LS);
      if (*L == Label::NS)
        return std::optional<Label>();
      return L;
    };
  };
  TaskPool Pool(1);
  std::vector<Dataset> Labeled = labelRecordSets(
      {{"plain", &Plain}, {"x", &Records}}, 20.0, Pool, nullptr, Factory);
  EXPECT_EQ(Runs, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(SeenIndices, (std::vector<size_t>{0, 1, 2}));
  ASSERT_EQ(SeenVerdicts.size(), 3u);
  EXPECT_EQ(SeenVerdicts[0], Label::LS);
  EXPECT_EQ(SeenVerdicts[1], std::nullopt);
  EXPECT_EQ(SeenVerdicts[2], Label::NS);
  ASSERT_EQ(Labeled.size(), 2u);
  EXPECT_EQ(Labeled[0].size(), 1u);
  const Dataset &D = Labeled[1];
  ASSERT_EQ(D.size(), 2u);
  EXPECT_EQ(D[0].Y, Label::LS);
  EXPECT_EQ(D[1].Y, Label::LS); // the resurrected band record
  EXPECT_EQ(D.countLabel(Label::NS), 0u);
  // Rows index the one table over both runs' records, in input order.
  EXPECT_EQ(D.rowIds(), (std::vector<uint32_t>{1, 2}));
}

TEST(Labeler, SetsShareOneTableInInputOrder) {
  // Every set lands on one table over all records (the dropped band
  // included), at any job count; a table passed in is reused, not
  // re-ranked.
  Rng R(7);
  std::vector<std::vector<BlockRecord>> Traces(5);
  for (size_t B = 0; B != Traces.size(); ++B)
    for (size_t I = 0; I != 40 + 13 * B; ++I) {
      BlockRecord Rec = record(1 + R.below(200), R.below(200));
      Rec.X[FeatBBLen] = static_cast<double>(R.below(30));
      Traces[B].push_back(Rec);
    }
  std::vector<RecordSet> Sets;
  size_t Rows = 0;
  for (size_t B = 0; B != Traces.size(); ++B) {
    Sets.push_back({"run" + std::to_string(B), &Traces[B]});
    Rows += Traces[B].size();
  }
  TaskPool One(1), Four(4);
  std::vector<Dataset> A = labelRecordSets(Sets, 20.0, One);
  std::vector<Dataset> B = labelRecordSets(Sets, 20.0, Four);
  std::shared_ptr<const RankTable> Table = rankRecordSets(Sets, Four);
  std::vector<Dataset> C = labelRecordSets(Sets, 20.0, Four, Table);
  ASSERT_EQ(A.size(), Sets.size());
  ASSERT_EQ(A[0].rankTable()->rows(), Rows);
  for (size_t I = 0; I != Sets.size(); ++I) {
    EXPECT_EQ(A[I].getName(), Sets[I].Name);
    EXPECT_EQ(A[I].rankTable(), A[0].rankTable());
    EXPECT_EQ(C[I].rankTable(), Table);
    Dataset Alone = buildDataset(Traces[I], 20.0, Sets[I].Name);
    ASSERT_EQ(A[I].size(), Alone.size());
    EXPECT_EQ(B[I].rowIds(), A[I].rowIds());
    EXPECT_EQ(C[I].rowIds(), A[I].rowIds());
    for (size_t K = 0; K != Alone.size(); ++K) {
      EXPECT_EQ(A[I][K].X, Alone[K].X);
      EXPECT_EQ(A[I][K].Y, Alone[K].Y);
      EXPECT_EQ(B[I][K].Y, Alone[K].Y);
    }
  }
}
