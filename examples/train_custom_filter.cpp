//===- examples/train_custom_filter.cpp - Offline training walkthrough -----===//
//
// Walks through the paper's full offline procedure (§2.2) the way a
// compiler team would run it "at the factory":
//
//   1. Compile a benchmark suite with the instrumented scheduler, writing
//      a trace of (features, cost unscheduled, cost scheduled) per block.
//   2. Label the trace at a chosen threshold t, dropping the (0, t] noise
//      band.
//   3. Induce a rule set with RIPPER and inspect it.
//   4. Evaluate with leave-one-out cross-validation before shipping.
//
// Run: ./build/examples/train_custom_filter [threshold-percent]
//
//===----------------------------------------------------------------------===//

#include "harness/ParallelExperiments.h"
#include "ml/Metrics.h"
#include "ml/Ripper.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"

#include <cstdlib>
#include <iostream>

using namespace schedfilter;

int main(int argc, char **argv) {
  double Threshold = 20.0;
  if (argc > 1)
    Threshold = std::strtod(argv[1], nullptr);

  MachineModel Model = MachineModel::ppc7410();

  // Step 1: the instrumented-scheduler pass over the suite.
  std::cout << "== Step 1: tracing the SPECjvm98 suite ==\n";
  std::vector<BenchmarkSpec> Suite = specjvm98Suite();
  for (BenchmarkSpec &S : Suite)
    S.NumMethods = 60; // reduced for example runtime
  ExperimentEngine Engine;
  std::vector<BenchmarkRun> Runs = Engine.generateSuiteData(Suite, Model);
  size_t Blocks = 0;
  for (const BenchmarkRun &R : Runs)
    Blocks += R.Records.size();
  std::cout << "traced " << Blocks << " blocks from " << Runs.size()
            << " benchmarks\n\n";

  // Step 2: threshold labeling.
  std::cout << "== Step 2: labeling at t = " << Threshold << "% ==\n";
  std::vector<Dataset> Labeled = Engine.labelSuite(Runs, Threshold);
  Dataset All("all");
  for (const Dataset &D : Labeled)
    All.append(D);
  std::cout << All.size() << " training instances ("
            << All.countLabel(Label::LS) << " LS, "
            << All.countLabel(Label::NS) << " NS); "
            << (Blocks - All.size())
            << " blocks dropped as noise (benefit in (0, t])\n\n";

  // Step 3: induce and inspect.
  std::cout << "== Step 3: RIPPER rule induction ==\n";
  RuleSet Filter = Ripper().train(All);
  std::cout << Filter.toString() << '\n';

  // Step 4: honest evaluation -- leave-one-out by benchmark.
  std::cout << "== Step 4: leave-one-out cross-validation ==\n";
  std::vector<LoocvFold> Folds = leaveOneOut(Labeled, ripperLearner());
  std::vector<double> Errors;
  for (size_t B = 0; B != Folds.size(); ++B) {
    double Err = errorRatePercent(Folds[B].Filter, Labeled[B]);
    Errors.push_back(Err);
    std::cout << padRight(Folds[B].HeldOut, 10) << " error "
              << formatDouble(Err, 2) << "%\n";
  }
  std::cout << "geometric mean " << formatDouble(geometricMean(Errors), 2)
            << "%\n";
  return 0;
}
