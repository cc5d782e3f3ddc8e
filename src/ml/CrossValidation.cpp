//===- ml/CrossValidation.cpp - Leave-one-out over benchmarks ---------------===//

#include "ml/CrossValidation.h"

#include "support/TaskPool.h"

using namespace schedfilter;

namespace {

/// Trains fold \p Held: the learner sees every benchmark except the
/// held-out one.  Pure function of its inputs, so folds may run in any
/// order or concurrently.
LoocvFold trainFold(const std::vector<Dataset> &PerBenchmark, size_t Held,
                    const LearnerFn &Learner) {
  Dataset Train("train-without-" + PerBenchmark[Held].getName());
  size_t Size = 0;
  for (const Dataset &D : PerBenchmark)
    Size += D.size();
  Train.reserve(Size - PerBenchmark[Held].size());
  for (size_t J = 0; J != PerBenchmark.size(); ++J)
    if (J != Held)
      Train.append(PerBenchmark[J]);
  return {PerBenchmark[Held].getName(), Learner(Train)};
}

} // namespace

std::vector<LoocvFold>
schedfilter::leaveOneOut(const std::vector<Dataset> &PerBenchmark,
                         const LearnerFn &Learner) {
  std::vector<LoocvFold> Folds;
  Folds.reserve(PerBenchmark.size());
  for (size_t Held = 0; Held != PerBenchmark.size(); ++Held)
    Folds.push_back(trainFold(PerBenchmark, Held, Learner));
  return Folds;
}

std::vector<LoocvFold>
schedfilter::leaveOneOut(const std::vector<Dataset> &PerBenchmark,
                         const LearnerFn &Learner, TaskPool &Pool) {
  std::vector<LoocvFold> Folds(PerBenchmark.size());
  Pool.parallelFor(PerBenchmark.size(), [&](size_t Held) {
    Folds[Held] = trainFold(PerBenchmark, Held, Learner);
  });
  return Folds;
}
