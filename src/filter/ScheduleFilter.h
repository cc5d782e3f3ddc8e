//===- filter/ScheduleFilter.h - Online whether-to-schedule ------*- C++ -*-===//
///
/// \file
/// The installed heuristic: given a basic block, compute its Table 1
/// features and evaluate the induced rule set; the first matching rule
/// (conclusion LS) means "run the list scheduler on this block", the
/// default (NS) means "leave it alone".  Mirrors §2.2's final step of
/// installing the learned function in the compiler and applying it online.
///
/// Every ScheduleFilter borrows an immutable FilterArtifact (rule set +
/// CompiledFilter + fast-path constants; see filter/FilterVersion.h), so
/// all callers (sf-apply, sf-serve, the serving engine, the bench
/// drivers) get the flat branchless evaluator for free, and a rule set is
/// compiled once per *version* rather than once per filter instance.
/// Construction from a plain RuleSet wraps it in a fresh unversioned
/// artifact; the online-serving loop instead shares one versioned
/// artifact across every per-task filter and swaps the shared handle at
/// epoch boundaries -- in-flight borrowers keep the version they
/// captured, which is what makes the hot-swap safe.  The compiled
/// evaluator is bit-exactly equivalent to the RuleSet::predict /
/// predictionWork interpreter in predictions AND work units; the
/// interpreter survives only as that oracle in
/// tests/compiled_filter_test.cpp.
///
/// MethodCompiler calls shouldSchedule once per block inside its timed
/// scheduling phase: one decision path, whose cost is charged to
/// scheduling like the paper's (§3.1).
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_FILTER_SCHEDULEFILTER_H
#define SCHEDFILTER_FILTER_SCHEDULEFILTER_H

#include "features/Features.h"
#include "filter/FilterVersion.h"

namespace schedfilter {

/// Wraps an induced RuleSet as an online block filter.
class ScheduleFilter {
public:
  /// Compiles \p RS into a fresh unversioned artifact.
  explicit ScheduleFilter(RuleSet RS)
      : ScheduleFilter(makeFilterArtifact(std::move(RS))) {}

  /// Borrows an existing (possibly shared) artifact: no recompilation,
  /// just a shared_ptr copy.  This is the per-version swap-safe path the
  /// runtime services use -- each parallel compile task constructs one of
  /// these from the service's current artifact, and a concurrent install
  /// of a newer version cannot perturb it.
  explicit ScheduleFilter(FilterArtifactRef Artifact)
      : Art(std::move(Artifact)) {}

  /// True if the filter predicts the block benefits from scheduling.
  /// Accumulates decision counters and deterministic work units.
  ///
  /// Fast path: blocks shorter than the rule set's minimum matchable
  /// length resolve to the default class with a single comparison and no
  /// feature extraction (see RuleSet::minMatchableBBLen).
  bool shouldSchedule(const BasicBlock &BB) {
    CompiledFilter::Decision D = decide(BB);
    record(D);
    return D.ScheduleLS;
  }

  /// Const query without statistics (for tests).  Same decide() path as
  /// the stat-accumulating overloads -- the variants cannot diverge.
  bool shouldSchedule(const BasicBlock &BB) const {
    return decide(BB).ScheduleLS;
  }

  const RuleSet &ruleSet() const { return Art->Rules; }

  /// Decision counters (since construction or resetStats()).
  uint64_t numScheduleDecisions() const { return NumLS; }
  uint64_t numSkipDecisions() const { return NumNS; }

  /// Deterministic cost of all decisions so far: feature-pass units plus
  /// rule conditions evaluated; comparable with scheduler work units.
  uint64_t workUnits() const { return Work; }

  void resetStats() { NumLS = NumNS = Work = 0; }

private:
  /// The one evaluation path every overload shares: gate, extract,
  /// evaluate.  Work includes the feature pass (or the single gate
  /// comparison), matching the historical accounting bit for bit.
  CompiledFilter::Decision decide(const BasicBlock &BB) const {
    if (static_cast<double>(BB.size()) < Art->BBLenGate)
      return {Art->DefaultIsLS, 1};
    CompiledFilter::Decision D = Art->Compiled.evaluate(extractFeatures(BB));
    D.Work += featureExtractionWork(BB);
    return D;
  }

  void record(const CompiledFilter::Decision &D) {
    Work += D.Work;
    if (D.ScheduleLS)
      ++NumLS;
    else
      ++NumNS;
  }

  FilterArtifactRef Art; ///< never null; shared and immutable
  uint64_t NumLS = 0;
  uint64_t NumNS = 0;
  uint64_t Work = 0;
};

} // namespace schedfilter

#endif // SCHEDFILTER_FILTER_SCHEDULEFILTER_H
