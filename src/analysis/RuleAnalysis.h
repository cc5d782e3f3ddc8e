//===- analysis/RuleAnalysis.h - Static analysis of rule sets ---*- C++ -*-===//
///
/// \file
/// A static analyzer for induced filters.  Every rule's antecedent is a
/// conjunction of single-feature threshold tests, so it denotes an
/// axis-aligned box over feature space: "bbLen >= 7, calls <= 0.0857" is
/// the box bbLen in [7, +inf] x calls in [-inf, 0.0857].  Abstracting each
/// rule to its box (a per-feature interval domain) makes the interesting
/// questions about a RuleSet decidable by interval arithmetic:
///
///   * feasibility -- a rule whose intervals are empty on some feature
///     ("bbLen <= 3, bbLen >= 7") can never fire (a *dead* rule);
///   * condition redundancy -- within one rule, a tighter test on a
///     feature subsumes a looser same-direction test ("bbLen >= 7" makes
///     "bbLen >= 5" redundant);
///   * shadowing -- a later rule whose box is contained in an earlier
///     rule's box can never fire, because first-match semantics hand every
///     input it would match to the earlier rule; likewise the default
///     class is unreachable when the rules jointly cover all inputs;
///   * threshold hygiene -- NaN/infinite thresholds, negative thresholds
///     on nonnegative features, fraction tests outside [0, 1], and (when a
///     training Dataset is supplied) thresholds outside a feature's
///     observed range.
///
/// The analyzer emits structured findings and a removal plan; applying the
/// plan (normalizeRuleSet) deletes dead/shadowed rules and redundant
/// conditions.  The transformation is predict()-equivalent by
/// construction, and checkPredictEquivalence *proves* it for a concrete
/// pair of rule sets by exhaustive evaluation over the threshold corner
/// grid: because every test is an axis-aligned threshold comparison, the
/// outcome of every condition in either set is constant on the cells that
/// feature's thresholds cut the double line into, so evaluating one
/// representative per cell (the threshold itself and its two neighboring
/// doubles, plus NaN) covers every behaviorally distinct input -- a sound
/// and complete finite test basis.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_ANALYSIS_RULEANALYSIS_H
#define SCHEDFILTER_ANALYSIS_RULEANALYSIS_H

#include "ml/Rule.h"

#include <functional>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

namespace schedfilter {

/// Severity of a lint finding.  Errors are facts provable over *all*
/// inputs (a rule that can never fire, a non-finite threshold); warnings
/// are either removable redundancy or tests no real block can satisfy;
/// notes are advisory (e.g. a threshold outside the observed training
/// range).
enum class LintSeverity { Note, Warning, Error };

/// "note", "warning" or "error".
const char *getSeverityName(LintSeverity S);

/// What kind of defect a finding reports.
enum class LintKind {
  DeadRule,           ///< Antecedent infeasible: the rule can never fire.
  NonFiniteThreshold, ///< NaN or infinite threshold.
  ShadowedRule,       ///< Box contained in an earlier rule's box.
  RedundantCondition, ///< Subsumed by a tighter test in the same rule.
  UnreachableDefault, ///< No real-valued input reaches the default class.
  DomainMismatch,     ///< Threshold outside the feature's domain.
  OutOfObservedRange, ///< Threshold outside the supplied training range.
};

/// One diagnostic.  RuleIndex/CondIndex locate the subject (npos = the
/// rule set as a whole, e.g. default-class findings); OtherRule names the
/// earlier rule for shadowing findings.
struct LintFinding {
  static constexpr size_t npos = std::numeric_limits<size_t>::max();

  LintKind Kind = LintKind::DeadRule;
  LintSeverity Severity = LintSeverity::Error;
  size_t RuleIndex = npos;
  size_t CondIndex = npos;
  size_t OtherRule = npos;
  std::string Message; ///< Human text, no severity/position prefix.
};

/// The analyzer's full output: findings plus the removal plan that
/// normalizeRuleSet applies.
struct RuleAnalysis {
  std::vector<LintFinding> Findings;

  /// RemoveRule[i]: rule i is dead or shadowed (removal is
  /// predict()-equivalent).
  std::vector<char> RemoveRule;
  /// RemoveCondition[i][c]: condition c of rule i is subsumed by a
  /// tighter same-feature test in the same rule.
  std::vector<std::vector<char>> RemoveCondition;

  size_t numFindings(LintSeverity S) const;
  bool hasErrors() const { return numFindings(LintSeverity::Error) != 0; }
  /// True when there is nothing to report at any severity.
  bool clean() const { return Findings.empty(); }

  /// Rules / conditions the removal plan deletes.  RemovedConditions
  /// counts only conditions of surviving rules (a removed rule's
  /// conditions disappear with it).
  size_t removedRules() const;
  size_t removedConditions() const;
};

/// Statically analyzes \p RS.  When \p Observed is non-null, threshold
/// hygiene additionally checks each condition against the feature ranges
/// observed in that dataset (the training corpus).  \p MaxGridPoints
/// bounds the corner-grid default-reachability check; when the grid is
/// larger the check is skipped with a note (every other analysis is
/// grid-free interval arithmetic and always runs).
RuleAnalysis analyzeRuleSet(const RuleSet &RS,
                            const Dataset *Observed = nullptr,
                            uint64_t MaxGridPoints = 1u << 22);

/// Applies \p A's removal plan to \p RS: dead and shadowed rules are
/// dropped, redundant conditions of surviving rules are dropped, order
/// and the default class are preserved, and per-rule coverage counts are
/// carried over.  The result is predict()-equivalent to \p RS on every
/// input (including NaN features: a removed rule could never fire, and a
/// removed condition always leaves a tighter test on the same feature in
/// place).
RuleSet normalizeRuleSet(const RuleSet &RS, const RuleAnalysis &A);

/// Outcome of the corner-grid equivalence check.
struct EquivalenceCheck {
  bool Equivalent = true;
  /// True when the whole corner grid was evaluated: the verdict is a
  /// proof.  False when GridSize exceeded the cap and a deterministic
  /// sample of the grid was evaluated instead.
  bool Exhaustive = true;
  uint64_t GridSize = 0;      ///< Corner-grid cardinality (saturated).
  uint64_t PointsChecked = 0; ///< Inputs actually evaluated.
  /// When !Equivalent: an input the two sets classify differently.
  FeatureVector Counterexample{};
};

/// Result of enumerating a threshold corner grid with forEachCornerPoint.
struct CornerGridWalk {
  /// True when every grid point was offered to the visitor (or it exited
  /// early): conclusions drawn from the walk hold for *all* inputs.
  /// False when the grid exceeded the cap and a deterministic sample was
  /// visited instead.
  bool Exhaustive = true;
  uint64_t GridSize = 0;      ///< Corner-grid cardinality (saturated).
  uint64_t PointsVisited = 0; ///< Points actually offered to the visitor.
};

/// Enumerates the threshold corner grid of the union of \p Sets'
/// conditions: per feature, each threshold and its two neighboring
/// doubles (plus, when \p WithNaN, a NaN coordinate), i.e. one
/// representative per behaviorally distinct cell of feature space -- a
/// sound and complete finite test basis for any predicate built from
/// those thresholds.  Calls \p Visit on every point until it returns
/// false (early exit).  When the grid exceeds \p MaxPoints, visits a
/// deterministic pseudo-random sample of MaxPoints grid points instead
/// and reports Exhaustive = false.
CornerGridWalk
forEachCornerPoint(const std::vector<const RuleSet *> &Sets, bool WithNaN,
                   uint64_t MaxPoints,
                   const std::function<bool(const FeatureVector &)> &Visit);

/// Decides predict()-equivalence of \p A and \p B over every double-valued
/// feature vector (NaN coordinates included) by evaluating both on the
/// threshold corner grid of the union of their conditions.  Exhaustive --
/// a proof of equivalence -- whenever the grid fits in \p MaxPoints;
/// otherwise falls back to a deterministic sample of the grid and reports
/// Exhaustive = false.
EquivalenceCheck checkPredictEquivalence(const RuleSet &A, const RuleSet &B,
                                         uint64_t MaxPoints = 1u << 22);

/// Renders findings one per line to \p OS in the file:line discipline of
/// src/io/: "PATH:LINE: severity: message" when \p Path and \p RuleLines
/// (1-based source line per rule, from readRuleSetFile) are supplied,
/// "rule #N: severity: message" otherwise.  Returns the number of
/// findings printed.
size_t printFindings(const RuleAnalysis &A, std::ostream &OS,
                     const std::string &Path = "",
                     const std::vector<size_t> *RuleLines = nullptr);

} // namespace schedfilter

#endif // SCHEDFILTER_ANALYSIS_RULEANALYSIS_H
