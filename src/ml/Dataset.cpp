//===- ml/Dataset.cpp - Training/test instances ----------------------------===//

#include "ml/Dataset.h"

#include "support/TaskPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace schedfilter;

const char *schedfilter::getLabelName(Label L) {
  return L == Label::LS ? "LS" : "NS";
}

namespace {

/// An order-preserving integer key for a double: key(A) < key(B) iff
/// A < B, for non-NaN values; -0.0 and +0.0 share a key, and every NaN
/// takes the largest key (training data must be finite -- the trace readers
/// in io/TraceStore reject anything else -- this only keeps a NaN from
/// breaking the ranking).
/// Ranking integer keys sorts and searches without a floating-point
/// comparator.
uint64_t orderKey(double V) {
  if (std::isnan(V))
    return ~0ull;
  if (V == 0.0)
    V = 0.0;
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  return Bits >> 63 ? ~Bits : Bits | (1ull << 63);
}

} // namespace

RankTable::RankTable(size_t NumRows, std::vector<double> FeatureMajor,
                     TaskPool *Pool)
    : NumRows(NumRows), Values(std::move(FeatureMajor)),
      Ranks(Values.size()) {
  assert(Values.size() == static_cast<size_t>(NumFeatures) * NumRows &&
         "one value per (feature, row)");
  auto RankFeature = [&](size_t F) {
    const double *Col = values(static_cast<unsigned>(F));
    uint32_t *RankF = Ranks.data() + F * NumRows;
    std::vector<uint64_t> Keys(NumRows);
    for (size_t I = 0; I != NumRows; ++I)
      Keys[I] = orderKey(Col[I]);
    std::vector<uint64_t> Distinct = Keys;
    std::sort(Distinct.begin(), Distinct.end());
    Distinct.erase(std::unique(Distinct.begin(), Distinct.end()),
                   Distinct.end());
    // Walk down so the last write to each rank is its lowest-index holder.
    std::vector<double> &RV = RankValues[F];
    RV.resize(Distinct.size());
    for (size_t I = NumRows; I-- != 0;) {
      // Branchless binary search for the row's own key, which Distinct
      // holds: the lookups come in row order, not value order.
      const uint64_t *Lo = Distinct.data();
      for (size_t Len = Distinct.size(); Len > 1;) {
        size_t Half = Len / 2;
        Lo = Lo[Half - 1] < Keys[I] ? Lo + Half : Lo;
        Len -= Half;
      }
      size_t R = static_cast<size_t>(Lo - Distinct.data());
      RankF[I] = static_cast<uint32_t>(R);
      RV[R] = Col[I];
    }
    for (size_t I = 0; I != NumRows; ++I)
      if (std::memcmp(&Col[I], &RV[RankF[I]], sizeof(double)) != 0)
        Mixed[F].push_back(RankF[I]);
    std::sort(Mixed[F].begin(), Mixed[F].end());
    Mixed[F].erase(std::unique(Mixed[F].begin(), Mixed[F].end()),
                   Mixed[F].end());
  };
  if (Pool)
    Pool->parallelFor(NumFeatures, RankFeature);
  else
    for (size_t F = 0; F != NumFeatures; ++F)
      RankFeature(F);
}

FeatureVector RankTable::row(size_t I) const {
  FeatureVector X;
  for (unsigned F = 0; F != NumFeatures; ++F)
    X[F] = values(F)[I];
  return X;
}

Dataset Dataset::fromInstances(std::string Name,
                               const std::vector<Instance> &Instances) {
  size_t N = Instances.size();
  std::vector<double> Values(static_cast<size_t>(NumFeatures) * N);
  for (size_t I = 0; I != N; ++I)
    for (unsigned F = 0; F != NumFeatures; ++F)
      Values[static_cast<size_t>(F) * N + I] = Instances[I].X[F];
  Dataset D(std::move(Name),
            std::make_shared<const RankTable>(N, std::move(Values)));
  D.reserve(N);
  for (size_t I = 0; I != N; ++I)
    D.addRow(static_cast<uint32_t>(I), Instances[I].Y);
  return D;
}

void Dataset::addRow(uint32_t Row, Label Y) {
  assert(Table && Row < Table->rows() && "a row of the dataset's table");
  Instances.push_back({Table->row(Row), Y});
  RowIds.push_back(Row);
}

void Dataset::append(const Dataset &Other) {
  if (Other.empty())
    return;
  if (!Table)
    Table = Other.Table;
  else if (Table != Other.Table) {
    std::fprintf(stderr,
                 "Dataset '%s': cannot append '%s', whose rows belong to "
                 "another rank table\n",
                 Name.c_str(), Other.Name.c_str());
    std::abort();
  }
  RowIds.insert(RowIds.end(), Other.RowIds.begin(), Other.RowIds.end());
  Instances.insert(Instances.end(), Other.Instances.begin(),
                   Other.Instances.end());
}

size_t Dataset::countLabel(Label L) const {
  size_t N = 0;
  for (const Instance &I : Instances)
    if (I.Y == L)
      ++N;
  return N;
}
