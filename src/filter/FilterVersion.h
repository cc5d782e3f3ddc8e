//===- filter/FilterVersion.h - Versioned immutable filter artifact -*- C++ -*-===//
///
/// \file
/// The unit the online-serving loop hot-swaps: one immutable bundle of
/// (RuleSet, CompiledFilter, fast-path constants) stamped with a
/// monotone version and its training provenance (parent version, the
/// virtual tick of the retrain trigger, the corpus size it was trained
/// on).  ScheduleFilter instances borrow an artifact through a
/// shared_ptr, so
///   - compiling the rule set happens once per *version*, not once per
///     per-task filter copy (the service used to recompile the same
///     rules for every drained method);
///   - swapping the service's current artifact between epochs can never
///     mutate a filter some in-flight compile task already captured --
///     the old version stays alive until its last borrower drops it.
/// Everything in an artifact is const after construction and evaluation
/// is const, so one artifact is safely shared across TaskPool workers.
///
/// Version numbers are per serving session, starting at 1 for the
/// initial (factory) filter; 0 means "unversioned" -- a plain
/// ScheduleFilter built outside any online session.  The provenance
/// fields are exactly what io/FilterRegistry.h persists per version.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_FILTER_FILTERVERSION_H
#define SCHEDFILTER_FILTER_FILTERVERSION_H

#include "filter/CompiledFilter.h"
#include "ml/Rule.h"

#include <cstdint>
#include <memory>

namespace schedfilter {

/// One immutable filter version: the rule set, its compiled form, the
/// scalar fast-path constants every evaluation reads, and provenance.
struct FilterArtifact {
  RuleSet Rules;
  CompiledFilter Compiled;
  double BBLenGate;  ///< RuleSet::minMatchableBBLen of Rules
  bool DefaultIsLS;  ///< default class == LS

  uint32_t Version = 0;       ///< monotone per session; 0 = unversioned
  uint32_t ParentVersion = 0; ///< version this one retrained from
  uint64_t TriggerTick = 0;   ///< virtual tick of the retrain trigger
  uint64_t CorpusRecords = 0; ///< corpus size the version trained on

  explicit FilterArtifact(RuleSet RS, uint32_t Version = 0,
                          uint32_t ParentVersion = 0,
                          uint64_t TriggerTick = 0,
                          uint64_t CorpusRecords = 0)
      : Rules(std::move(RS)), Compiled(Rules),
        BBLenGate(Rules.minMatchableBBLen()),
        DefaultIsLS(Rules.getDefaultClass() == Label::LS), Version(Version),
        ParentVersion(ParentVersion), TriggerTick(TriggerTick),
        CorpusRecords(CorpusRecords) {}
};

/// Shared immutable handle: how services, per-task filters, and stats
/// reference a version.
using FilterArtifactRef = std::shared_ptr<const FilterArtifact>;

/// Builds a shared artifact (the one constructor every caller uses, so
/// the shared_ptr discipline is uniform).
FilterArtifactRef makeFilterArtifact(RuleSet RS, uint32_t Version = 0,
                                     uint32_t ParentVersion = 0,
                                     uint64_t TriggerTick = 0,
                                     uint64_t CorpusRecords = 0);

/// Content fingerprint of a rule set: FNV-1a over its v1 text
/// serialization (thresholds print %.17g, so the hash covers every bit
/// of every threshold).  ServiceStats pins each hot-swap with this, and
/// tests compare registry round-trips by it.
uint64_t rulesFingerprint(const RuleSet &RS);

} // namespace schedfilter

#endif // SCHEDFILTER_FILTER_FILTERVERSION_H
