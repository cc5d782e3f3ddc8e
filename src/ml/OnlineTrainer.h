//===- ml/OnlineTrainer.h - Serve-time corpus + retrain policy --*- C++ -*-===//
///
/// \file
/// The learning half of the online-adaptation loop (ROADMAP item 4): the
/// optimizing tier traces the methods it compiles (runtime/MethodCompiler
/// traceMethod), those raw BlockRecords accumulate here, and a
/// RetrainPolicy driven purely by the virtual clock decides when the
/// corpus is retrained into the next filter version.  Nothing in this
/// file reads wall time or a std engine: a given (seed, config) pair
/// reproduces the exact sequence of retrain triggers, which is what makes
/// the serving loop's swap sequence byte-identical at any --jobs.
///
/// Layering: this is ml/ code -- it knows Labeler's threshold rule and
/// Ripper, but nothing about epochs, queues, or services.  The runtime
/// layer owns *when* absorb/maybeRetrain are called (always from its
/// serial install path); persistence of the resulting versions is
/// io/FilterRegistry's job.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_ML_ONLINETRAINER_H
#define SCHEDFILTER_ML_ONLINETRAINER_H

#include "filter/FilterVersion.h"
#include "ml/Labeler.h"
#include "ml/Ripper.h"

namespace schedfilter {

class TaskPool;

/// Grow-only store of raw labeled-trace material.  Records append in the
/// caller's (deterministic) order; the accumulator never reorders or
/// dedups, so the labeled dataset it yields is a pure function of the
/// append sequence.
class CorpusAccumulator {
public:
  /// Installs the pre-serve training corpus (e.g. the records the initial
  /// factory filter trained on), replacing any current contents.
  void seed(std::vector<BlockRecord> Records) {
    Store = std::move(Records);
    TrainedMark = Store.size();
  }

  /// Appends serve-time records (one optimizing-tier compile's trace).
  void append(const std::vector<BlockRecord> &Records) {
    Store.insert(Store.end(), Records.begin(), Records.end());
  }

  size_t size() const { return Store.size(); }

  /// Records appended since the last markTrained() (what a retrain would
  /// newly learn from).
  size_t newSinceTrain() const { return Store.size() - TrainedMark; }

  /// Labels the whole corpus at \p ThresholdPct (the paper's threshold
  /// rule, (0, t] band dropped) into a dataset named \p Name, on \p Pool.
  Dataset label(double ThresholdPct, const std::string &Name,
                TaskPool &Pool) const {
    return buildDataset(Store, ThresholdPct, Name, &Pool);
  }

  /// Marks the current contents as consumed by a train.
  void markTrained() { TrainedMark = Store.size(); }

private:
  std::vector<BlockRecord> Store;
  size_t TrainedMark = 0;
};

/// When to retrain, as a pure function of the virtual clock.  No wall
/// time, no randomness: the trigger sequence is replayable from config.
struct RetrainPolicy {
  /// Minimum virtual ticks between retrain triggers (and before the
  /// first, measured from tick 0 where the initial version installed).
  uint64_t RetrainEvery = 8192;

  /// Fires once RetrainEvery ticks have passed and at least one new
  /// record arrived (an idle interval with nothing new to learn from
  /// retrains nothing).
  bool shouldRetrain(uint64_t Tick, uint64_t LastTriggerTick,
                     size_t NewRecords) const {
    return Tick - LastTriggerTick >= RetrainEvery && NewRecords != 0;
  }
};

/// Bundles the accumulator and policy into the object a serving loop
/// holds: feed it traces, ask it at epoch boundaries whether a new filter
/// version is due, and it trains one (on the shared pool -- bit-identical
/// at any job count) stamped with full provenance.
class OnlineTrainer {
public:
  /// \p Pool is borrowed for Ripper's pooled training; \p ThresholdPct is
  /// the labeling threshold every retrain uses (the serve run's -t).
  OnlineTrainer(TaskPool &Pool, double ThresholdPct, RetrainPolicy Policy)
      : Pool(Pool), ThresholdPct(ThresholdPct), Policy(Policy) {}

  /// Installs the pre-serve corpus (see CorpusAccumulator::seed).
  void seedCorpus(std::vector<BlockRecord> Records) {
    Corpus.seed(std::move(Records));
  }

  /// Absorbs one compile's trace records.  Call from a serial,
  /// deterministic-order path only (the service's install loop).
  void absorb(const std::vector<BlockRecord> &Records) {
    Corpus.append(Records);
  }

  /// If the policy fires at virtual tick \p Tick, trains version
  /// CurrentVersion+1 on the full corpus and returns it; otherwise null.
  /// The artifact records the trigger tick and corpus size as provenance.
  FilterArtifactRef maybeRetrain(uint64_t Tick, uint32_t CurrentVersion);

private:
  TaskPool &Pool;
  double ThresholdPct;
  RetrainPolicy Policy;
  CorpusAccumulator Corpus;
  uint64_t LastTriggerTick = 0;
};

} // namespace schedfilter

#endif // SCHEDFILTER_ML_ONLINETRAINER_H
