//===- ml/CrossValidation.h - Leave-one-out over benchmarks -----*- C++ -*-===//
///
/// \file
/// The paper's evaluation methodology (§3): leave-one-out cross-validation
/// *by benchmark program* — to evaluate on benchmark i, train on the
/// instances of the other n-1 benchmarks, never on benchmark i's own.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_ML_CROSSVALIDATION_H
#define SCHEDFILTER_ML_CROSSVALIDATION_H

#include "ml/Rule.h"

#include <functional>
#include <vector>

namespace schedfilter {

class TaskPool;

/// A learner: trains a RuleSet from a dataset.  Every tool and bench
/// passes RIPPER (harness/Experiments.h's ripperLearner); the indirection
/// lets tests substitute a fake learner that records what each fold saw.
using LearnerFn = std::function<RuleSet(const Dataset &)>;

/// One leave-one-out fold result.
struct LoocvFold {
  /// Name of the held-out benchmark (== its dataset's name).
  std::string HeldOut;
  /// Filter trained on the other benchmarks.
  RuleSet Filter;
};

/// Runs leave-one-out cross-validation: for each dataset i in
/// \p PerBenchmark, trains \p Learner on the concatenation of all others
/// and pairs the result with dataset i's name.  Order follows the input.
/// The folds train on \p Pool's workers (a one-job pool is the serial
/// path).  Each fold is a pure function of its training set (learners
/// seed their own Rng), so the result is bit-for-bit identical at any job
/// count.  \p Learner must be safe to invoke concurrently from multiple
/// threads.  A learner that itself fans out on the same pool (e.g.
/// ripperLearner(Pool)) is fine: nested parallelFor calls run inline on
/// the worker that owns the fold.
std::vector<LoocvFold> leaveOneOut(const std::vector<Dataset> &PerBenchmark,
                                   const LearnerFn &Learner, TaskPool &Pool);

} // namespace schedfilter

#endif // SCHEDFILTER_ML_CROSSVALIDATION_H
