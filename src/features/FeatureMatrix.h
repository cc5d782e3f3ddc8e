//===- features/FeatureMatrix.h - SoA batch feature extraction ---*- C++ -*-===//
///
/// \file
/// Structure-of-arrays storage for many blocks' feature vectors: one
/// contiguous column per Table 1 feature instead of one 13-double row per
/// block.  The compile path does not use it -- ScheduleFilter extracts
/// and evaluates one block at a time -- so it serves only perfbench's
/// replay (its features.batch and filter.batch spans) through
/// extractFeaturesBatch and CompiledFilter::evaluateBatch.
///
/// Extraction itself reuses extractFeatures verbatim, so every value
/// stored in a column is bit-identical to the per-block path by
/// construction.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_FEATURES_FEATUREMATRIX_H
#define SCHEDFILTER_FEATURES_FEATUREMATRIX_H

#include "features/Features.h"

#include <vector>

namespace schedfilter {

/// Feature vectors of N blocks, stored column-major (one contiguous
/// array per feature).  Grow-only scratch: clear() keeps capacity, so a
/// matrix reused across batches performs zero steady-state allocations.
class FeatureMatrix {
public:
  /// Number of rows (blocks) currently stored.
  size_t size() const { return NumRows; }
  bool empty() const { return NumRows == 0; }

  /// Drops all rows, keeping column capacity.
  void clear() {
    NumRows = 0;
    for (std::vector<double> &C : Columns)
      C.clear();
  }

  void reserve(size_t N) {
    for (std::vector<double> &C : Columns)
      C.reserve(N);
  }

  /// Appends one feature vector as a new row; returns its row index.
  size_t appendRow(const FeatureVector &X) {
    for (unsigned F = 0; F != NumFeatures; ++F)
      Columns[F].push_back(X[F]);
    return NumRows++;
  }

  /// Extracts \p BB's Table 1 features (bit-identical to extractFeatures)
  /// into a new row; returns its row index.
  size_t appendBlock(const BasicBlock &BB) {
    return appendRow(extractFeatures(BB));
  }

  /// Contiguous values of feature \p F for rows [0, size()).
  const double *column(unsigned F) const { return Columns[F].data(); }

  /// Row \p I gathered back into a feature vector (tests, diagnostics).
  FeatureVector row(size_t I) const {
    FeatureVector X{};
    for (unsigned F = 0; F != NumFeatures; ++F)
      X[F] = Columns[F][I];
    return X;
  }

private:
  size_t NumRows = 0;
  std::vector<double> Columns[NumFeatures];
};

/// Batch extraction pass: clears \p M and appends the features of
/// \p Blocks[0 .. N) in order.  Returns the summed featureExtractionWork
/// of the extracted blocks, so batch callers charge exactly the work units
/// the per-block path would.
uint64_t extractFeaturesBatch(const BasicBlock *const *Blocks, size_t N,
                              FeatureMatrix &M);

} // namespace schedfilter

#endif // SCHEDFILTER_FEATURES_FEATUREMATRIX_H
