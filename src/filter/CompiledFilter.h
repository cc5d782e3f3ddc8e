//===- filter/CompiledFilter.h - Branchless rule-set evaluator ---*- C++ -*-===//
///
/// \file
/// A compiler from any trained RuleSet into a flat, branch-minimal
/// evaluation form.  The interpreter (RuleSet::predict) walks a
/// vector-of-vectors of Conditions -- two pointer indirections and an
/// unpredictable branch per condition, and the serve hot path pays it
/// twice (once for predict, once for predictionWork).  The compiled form
/// is one contiguous array of condition cells:
///
///   cell c = { Feature, Sign, Threshold, OnPass, OnFail }
///
/// laid out in first-match rule order.  Every test is canonicalized to
/// one compare shape -- Sign * X[Feature] <= Threshold, with Sign = +1 for
/// "<=" conditions and Sign = -1 / Threshold negated for ">=" (exact for
/// every double, NaN and infinities included) -- so evaluation is a single
/// data-driven loop with no per-condition branch on the operator:
///
///   c = (Sign * X[Feature] <= Threshold) ? OnPass : OnFail
///
/// OnPass chains to the next cell of the rule, or to a *terminal* (an
/// index past the cell array) carrying the rule's conclusion when the
/// cell is the rule's last; OnFail skips to the first cell of the next
/// rule, or to the default terminal after the last rule.  Indices, not
/// pointers: the whole evaluator state is one cursor.
///
/// Contracts (tests/compiled_filter_test.cpp proves them on the
/// analyzer's nextafter corner grid plus randomized cross-checks):
///   * evaluate(X).ScheduleLS  == (RS.predict(X) == Label::LS) and
///     evaluate(X).Work        == RS.predictionWork(X)
///     for every FeatureVector X, NaN coordinates included -- the
///     compiled form is bit-exactly prediction- AND work-equivalent, so
///     ScheduleFilter's decision counters and every golden pin are
///     byte-identical whichever evaluator runs;
///   * evaluateBatch over a FeatureMatrix returns, row for row, exactly
///     what evaluate returns on that row.
///
/// Evaluation is one cursor walk per block: each step tests one cell and
/// follows OnPass or OnFail, so the walk touches exactly the conditions
/// the interpreter tests and the step count is the work.  There is one
/// evaluator; evaluateBatch is that walk looped over a FeatureMatrix's
/// rows.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_FILTER_COMPILEDFILTER_H
#define SCHEDFILTER_FILTER_COMPILEDFILTER_H

#include "features/FeatureMatrix.h"
#include "ml/Rule.h"

#include <cstdint>
#include <vector>

namespace schedfilter {

/// One compiled condition: Sign * X[Feature] <= Threshold.
struct FilterCell {
  double Threshold = 0.0; ///< original threshold, negated for ">=" tests
  double Sign = 1.0;      ///< +1.0 for "<=", -1.0 for ">="
  uint32_t Feature = 0;
  uint32_t OnPass = 0; ///< next cell, or a terminal when last in its rule
  uint32_t OnFail = 0; ///< first cell of the next rule, or TermDefault
};

/// A RuleSet compiled to the flat cell form.  Immutable after
/// construction; copyable and safely shared across threads.
class CompiledFilter {
public:
  /// What one evaluation decides: the class (as "schedule?") and the
  /// deterministic work units, bit-equal to RuleSet::predictionWork.
  struct Decision {
    bool ScheduleLS = false;
    uint64_t Work = 0;
  };

  /// The scratch type of evaluateBatch's signature (unread).
  using BatchScratch = std::vector<uint64_t>;

  CompiledFilter() = default; ///< empty set: always the default class (NS)
  explicit CompiledFilter(const RuleSet &RS);

  /// Scalar evaluation of one feature vector.
  Decision evaluate(const FeatureVector &X) const {
    const uint32_t End = NumCells;
    const FilterCell *Cs = Cells.data();
    uint32_t C = Entry;
    uint64_t W = 0;
    while (C < End) {
      const FilterCell &L = Cs[C];
      ++W;
      C = L.Sign * X[L.Feature] <= L.Threshold ? L.OnPass : L.OnFail;
    }
    return terminalDecision(C, W);
  }

  /// For every row I of \p M, writes evaluate(row I) into IsLS[I] /
  /// Work[I] (arrays of at least M.size()).  This and its unused
  /// \p Scratch parameter remain only for perfbench's filter.batch span;
  /// both can go once a benchmark change drops that span.
  void evaluateBatch(const FeatureMatrix &M, BatchScratch & /*Scratch*/,
                     unsigned char *IsLS, uint64_t *Work) const {
    for (size_t I = 0, N = M.size(); I != N; ++I) {
      Decision D = evaluate(M.row(I));
      IsLS[I] = D.ScheduleLS;
      Work[I] = D.Work;
    }
  }

  size_t numCells() const { return Cells.size(); }

private:
  Decision terminalDecision(uint32_t C, uint64_t W) const {
    uint32_t T = C - NumCells;
    if (T == TermDefault)
      return {Default == Label::LS, W + 1}; // predictionWork's default +1
    return {T == TermMatchLS, W};
  }

  // Terminal offsets past the cell array (cursor = NumCells + offset).
  enum : uint32_t { TermMatchLS = 0, TermMatchNS = 1, TermDefault = 2 };

  std::vector<FilterCell> Cells;
  uint32_t NumCells = 0;
  uint32_t Entry = TermDefault; ///< first cell, or a terminal (+NumCells)
  Label Default = Label::NS;
};

} // namespace schedfilter

#endif // SCHEDFILTER_FILTER_COMPILEDFILTER_H
