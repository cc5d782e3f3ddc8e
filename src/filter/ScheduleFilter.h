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
/// predictionWork interpreter in predictions AND work units
/// (tests/compiled_filter_test.cpp).  The interpreter stays the
/// offline evaluator: it computes Table 3 (errorRatePercent) and the
/// run-time classification behind Tables 4 and 6 (evaluateBenchmark), it
/// is sf-lint --fix's equivalence proof and prices sf-lint's
/// predictionWork line, and it is the compiled form's test oracle.
///
/// A ScheduleFilter only decides: it keeps no statistics.  MethodCompiler
/// calls decide() once per block inside its timed scheduling phase and
/// charges the decision and its work to the CompileReport, which is
/// where the filter's cost meets scheduling like the paper's (§3.1).
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

  /// The one evaluation path: gate, extract, evaluate.  Work includes the
  /// feature pass (or the single gate comparison) and is comparable with
  /// scheduler work units.
  ///
  /// Fast path: blocks shorter than the rule set's minimum matchable
  /// length resolve to the default class with a single comparison and no
  /// feature extraction (see RuleSet::minMatchableBBLen).
  CompiledFilter::Decision decide(const BasicBlock &BB) const {
    if (static_cast<double>(BB.size()) < Art->BBLenGate)
      return {Art->DefaultIsLS, 1};
    CompiledFilter::Decision D = Art->Compiled.evaluate(extractFeatures(BB));
    D.Work += featureExtractionWork(BB);
    return D;
  }

  /// True if the filter predicts the block benefits from scheduling.
  bool shouldSchedule(const BasicBlock &BB) const {
    return decide(BB).ScheduleLS;
  }

private:
  FilterArtifactRef Art; ///< never null; shared and immutable
};

} // namespace schedfilter

#endif // SCHEDFILTER_FILTER_SCHEDULEFILTER_H
