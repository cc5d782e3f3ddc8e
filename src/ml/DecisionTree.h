//===- ml/DecisionTree.h - C4.5-style tree induction -------------*- C++ -*-===//
///
/// \file
/// A top-down decision-tree learner over the numeric block features, in
/// the C4.5 family: binary numeric splits chosen by information gain,
/// with minimum-leaf-size and depth regularization plus bottom-up
/// pessimistic error pruning.
///
/// The paper's closest related work induced heuristics with decision
/// trees (Calder et al. for branch prediction; Monsifrot & Bodin for loop
/// unrolling), and the paper argues RIPPER's rule sets are preferable
/// because they are more compact and readable.  This learner puts that
/// claim under test: `sf-train --learner tree` induces a filter from the
/// same trace, to compare with RIPPER's on rule count and training error.
///
/// A trained tree converts to an ordered RuleSet (one rule per LS leaf,
/// conditions collected along the path), so it plugs into ScheduleFilter
/// and the experiment harness unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_ML_DECISIONTREE_H
#define SCHEDFILTER_ML_DECISIONTREE_H

#include "ml/Rule.h"

#include <memory>

namespace schedfilter {

/// Tuning knobs for tree induction.
struct DecisionTreeOptions {
  /// Nodes with fewer instances become leaves.
  size_t MinLeafSize = 8;
  /// Hard depth cap (a tree of depth d yields rules with <= d conditions).
  unsigned MaxDepth = 12;
  /// Minimum information gain (bits) required to split.
  double MinGain = 1e-4;
  /// Pessimistic-pruning confidence z-score (C4.5 uses ~0.69 for CF=25%).
  double PruneZ = 0.69;
};

/// A trained binary decision tree over FeatureVectors.
class DecisionTree {
public:
  /// Learns a tree for \p Data.  Empty data yields a leaf predicting NS.
  static DecisionTree train(const Dataset &Data,
                            DecisionTreeOptions Opts = DecisionTreeOptions());

  Label predict(const FeatureVector &X) const;

  /// Number of decision (internal) nodes.
  size_t numSplits() const;
  /// Number of leaves.
  size_t numLeaves() const;
  /// Maximum root-to-leaf depth (0 for a single leaf).
  unsigned depth() const;

  /// Flattens the tree into an ordered rule set: one rule per leaf that
  /// predicts LS (path conditions conjoined), default NS -- the classic
  /// "rules from trees" construction.  Coverage counts are annotated
  /// against \p Data.
  RuleSet toRuleSet(const Dataset &Data) const;

  /// Multi-line indented rendering for inspection.
  std::string toString() const;

  DecisionTree(DecisionTree &&) noexcept;
  DecisionTree &operator=(DecisionTree &&) noexcept;
  ~DecisionTree();

  /// Tree node; public only so the implementation's free helpers can see
  /// it -- not part of the stable API.
  struct Node;

private:
  DecisionTree();
  std::unique_ptr<Node> Root;
};

/// Learner adapter matching ml/CrossValidation's LearnerFn shape.
RuleSet learnDecisionTreeRules(const Dataset &Data);

} // namespace schedfilter

#endif // SCHEDFILTER_ML_DECISIONTREE_H
