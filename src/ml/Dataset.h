//===- ml/Dataset.h - Training/test instances --------------------*- C++ -*-===//
///
/// \file
/// Labeled instances for the whether-to-schedule learning problem.  Each
/// instance is one basic block: a feature vector plus a boolean class
/// label, LS (schedule) or NS (don't schedule), per the paper's §2.2.
/// Features are finite: datasets are labeled from traced or decoded
/// records, and the trace readers (io/TraceStore.h) reject NaN and inf.
/// Every non-empty dataset is a list of labeled rows of one rank table,
/// the index the RIPPER trainer sweeps (ml/Ripper.cpp): the labeler
/// (ml/Labeler.h) ranks the records it labels into one, and hand-built
/// instances get their own through Dataset::fromInstances.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_ML_DATASET_H
#define SCHEDFILTER_ML_DATASET_H

#include "features/Features.h"

#include <array>
#include <memory>
#include <string>
#include <vector>

namespace schedfilter {

class TaskPool;

/// Class labels.  NS first so that "default class" logic reads naturally.
enum class Label : uint8_t { NS = 0, LS = 1 };

/// Returns "LS" or "NS".
const char *getLabelName(Label L);

/// One labeled block.
struct Instance {
  FeatureVector X{};
  Label Y;
};

/// An immutable, feature-major rank index over a fixed set of feature
/// vectors (its rows) -- typically every traced record of one suite.  For
/// each feature it holds the rows' values bit for bit, each row's dense
/// rank among the feature's distinct values (0 = smallest; values equal
/// under operator== share a rank), and each rank's value, with the bits
/// of the lowest-index row holding it.  A dataset's instances are rows
/// of a table (see Dataset::addRow) and train on a view of it, so every
/// fold of every threshold of a sweep shares one ranking.  Read-only
/// after construction, so any number of threads may share one.
class RankTable {
public:
  /// Ranks \p NumRows rows given feature-major:
  /// FeatureMajor[F * NumRows + i] is row i's feature F.  Features are
  /// ranked on \p Pool's workers when one is given; the table is the
  /// same either way.
  RankTable(size_t NumRows, std::vector<double> FeatureMajor,
            TaskPool *Pool = nullptr);

  size_t rows() const { return NumRows; }

  /// Feature \p F of every row, in row order.
  const double *values(unsigned F) const {
    return Values.data() + static_cast<size_t>(F) * NumRows;
  }
  /// Every row's dense rank under feature \p F, in row order.
  const uint32_t *ranks(unsigned F) const {
    return Ranks.data() + static_cast<size_t>(F) * NumRows;
  }
  /// Feature \p F's distinct values in ascending order, indexed by rank.
  const std::vector<double> &rankValues(unsigned F) const {
    return RankValues[F];
  }
  /// The ranks of feature \p F whose holders do not all share one bit
  /// pattern (of finite values, a rank holding both -0.0 and +0.0).  A
  /// subset of the rows may have a different lowest-index holder for
  /// these, hence different bits.
  const std::vector<uint32_t> &mixedRanks(unsigned F) const {
    return Mixed[F];
  }

  /// Row \p I as a feature vector.
  FeatureVector row(size_t I) const;

private:
  size_t NumRows;
  std::vector<double> Values;
  std::vector<uint32_t> Ranks;
  std::array<std::vector<double>, NumFeatures> RankValues;
  std::array<std::vector<uint32_t>, NumFeatures> Mixed;
};

/// A named bag of instances (typically: all blocks of one benchmark), each
/// a labeled row of one rank table.
class Dataset {
public:
  explicit Dataset(std::string Name = "") : Name(std::move(Name)) {}

  /// An empty dataset whose instances will be rows of \p Table (addRow).
  Dataset(std::string Name, std::shared_ptr<const RankTable> Table)
      : Name(std::move(Name)), Table(std::move(Table)) {}

  /// The dataset of hand-built \p Instances on a table of their own: row
  /// i is Instances[i].
  static Dataset fromInstances(std::string Name,
                               const std::vector<Instance> &Instances);

  const std::string &getName() const { return Name; }

  /// Adds row \p Row of the rank table with label \p Y.
  void addRow(uint32_t Row, Label Y);
  /// Makes room for \p N instances and their row ids.
  void reserve(size_t N) {
    Instances.reserve(N);
    RowIds.reserve(N);
  }
  /// Appends \p Other's instances.  Both sides must sit on one rank table
  /// (a dataset with none yet takes Other's); appending rows of another
  /// table aborts, in every build type.
  void append(const Dataset &Other);

  /// The rank table every instance is a row of; null only while empty.
  const std::shared_ptr<const RankTable> &rankTable() const { return Table; }
  /// Instance i is row rowIds()[i] of rankTable().
  const std::vector<uint32_t> &rowIds() const { return RowIds; }

  size_t size() const { return Instances.size(); }
  bool empty() const { return Instances.empty(); }

  const Instance &operator[](size_t I) const { return Instances[I]; }

  std::vector<Instance>::const_iterator begin() const {
    return Instances.begin();
  }
  std::vector<Instance>::const_iterator end() const {
    return Instances.end();
  }

  /// Number of instances with label \p L.
  size_t countLabel(Label L) const;

private:
  std::string Name;
  std::vector<Instance> Instances;
  std::shared_ptr<const RankTable> Table;
  std::vector<uint32_t> RowIds;
};

} // namespace schedfilter

#endif // SCHEDFILTER_ML_DATASET_H
