//===- harness/Experiments.cpp - Paper experiment data types ----------------===//

#include "harness/Experiments.h"

#include "ml/Ripper.h"

using namespace schedfilter;

std::vector<RecordSet>
schedfilter::recordSets(const std::vector<BenchmarkRun> &Suite) {
  std::vector<RecordSet> Sets;
  Sets.reserve(Suite.size());
  for (const BenchmarkRun &Run : Suite)
    Sets.push_back({Run.Name, &Run.Records});
  return Sets;
}

std::vector<double> schedfilter::paperThresholds() {
  std::vector<double> T;
  for (int V = 0; V <= 50; V += 5)
    T.push_back(static_cast<double>(V));
  return T;
}

LearnerFn schedfilter::ripperLearner() {
  return [](const Dataset &Train) { return Ripper().train(Train); };
}

LearnerFn schedfilter::ripperLearner(TaskPool &Pool) {
  return [&Pool](const Dataset &Train) { return Ripper().train(Train, Pool); };
}
