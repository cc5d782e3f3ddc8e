//===- ml/Ripper.h - RIPPER rule induction -----------------------*- C++ -*-===//
///
/// \file
/// An implementation of Cohen's RIPPER (Repeated Incremental Pruning to
/// Produce Error Reduction, ICML'95), the rule-set induction algorithm the
/// paper uses to learn its whether-to-schedule filters (§2.3).
///
/// Structure, for a binary problem with target class = minority class:
///   1. IREP*: repeatedly grow a rule on a 2/3 "grow" split (adding the
///      condition with the best FOIL information gain until the rule covers
///      no negatives), prune it against the 1/3 "prune" split (deleting
///      final condition sequences to maximize (p-n)/(p+n)), and add it,
///      removing the instances it covers.  Stop on an MDL criterion: when
///      the total description length exceeds the best seen by more than
///      64 bits, or the pruned rule's error exceeds 50%.
///   2. Optimization (k passes): for each rule, consider the original, a
///      grown-from-scratch *replacement*, and a grown-from-the-rule
///      *revision*; keep whichever minimizes the ruleset's description
///      length.  Then mop up any still-uncovered positives with more IREP*
///      rules and delete rules that increase the description length.
///
/// All randomness (grow/prune splits) comes from a seeded Rng, so training
/// is fully deterministic.
///
/// The trainer is the repository's *indexed* engine (see Ripper.cpp): it
/// trains on a view of a RankTable -- the suite-wide table a labeled
/// suite's datasets share, or one built from the dataset itself when it
/// has none -- and sweeps candidate conditions over rank-indexed (P, N)
/// histograms of the covered instances, instead of re-sorting every
/// feature column for every candidate condition.  Coverage masks ride
/// along with the rules, so the MDL bookkeeping is popcounts.  The pooled
/// overload fans the per-feature sweeps across a shared TaskPool; output
/// is bit-for-bit identical to the serial overload at any job count.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_ML_RIPPER_H
#define SCHEDFILTER_ML_RIPPER_H

#include "ml/Rule.h"
#include "support/Rng.h"

namespace schedfilter {

class TaskPool;

/// Tunable knobs; the defaults mirror Cohen's published settings.
struct RipperOptions {
  /// Seed for grow/prune splits.
  uint64_t Seed = 0x5eedULL;
  /// Number of optimization passes (Cohen's k; RIPPER2 uses 2).
  unsigned OptimizePasses = 2;
  /// Fraction of instances used for growing (rest prune).
  double GrowFraction = 2.0 / 3.0;
  /// MDL slack in bits before rule addition stops.
  double MdlSlackBits = 64.0;
  /// Safety caps to bound worst-case training time.
  unsigned MaxConditionsPerRule = 24;
  unsigned MaxRules = 96;
};

/// RIPPER learner: induces an ordered RuleSet for the minority class with
/// the majority class as default.
class Ripper {
public:
  explicit Ripper(RipperOptions Opts = RipperOptions());

  /// Trains on \p Data and returns the induced filter.  The returned rule
  /// set has per-rule coverage counts annotated against \p Data (Figure 4
  /// style).  An empty or single-class dataset yields an empty rule set
  /// whose default class is the majority (or NS when empty).  A dataset
  /// on a rank table trains on a view of it (no ranking); any other is
  /// ranked first.  The RuleSet is the same either way.
  RuleSet train(const Dataset &Data) const;

  /// Pooled variant: fans the per-feature candidate-condition sweeps of
  /// the grow phase out across \p Pool's workers, with a deterministic
  /// argmax reduction (lowest feature index wins ties).  Bit-for-bit the
  /// same RuleSet as the serial overload at any job count; safe to call
  /// from inside a pool task (nested loops run inline).
  RuleSet train(const Dataset &Data, TaskPool &Pool) const;

private:
  RipperOptions Opts;
};

} // namespace schedfilter

#endif // SCHEDFILTER_ML_RIPPER_H
