//===- ml/OnlineTrainer.cpp - Serve-time corpus + retrain policy ------------===//

#include "ml/OnlineTrainer.h"

#include "support/TaskPool.h"

using namespace schedfilter;

FilterArtifactRef OnlineTrainer::maybeRetrain(uint64_t Tick,
                                              uint32_t CurrentVersion) {
  if (!Policy.shouldRetrain(Tick, LastTriggerTick, Corpus.newSinceTrain()))
    return nullptr;
  LastTriggerTick = Tick;

  // Retrain on the *whole* corpus (seed + everything served so far), not
  // just the new tail: RIPPER is a batch learner, and the full-corpus
  // retrain keeps each version a pure function of the append sequence up
  // to its trigger -- no hidden incremental state to replay.
  Dataset Labeled = Corpus.label(ThresholdPct, "online", Pool);
  RuleSet RS = Ripper().train(Labeled, Pool);
  Corpus.markTrained();
  return makeFilterArtifact(std::move(RS), CurrentVersion + 1, CurrentVersion,
                            Tick, Corpus.size());
}
