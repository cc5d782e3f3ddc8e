//===- examples/inspect_rules.cpp - Understanding an induced filter --------===//
//
// The paper argues that rule sets, unlike neural networks or genetic
// programs, are something a compiler writer can *read* (§4.6).  This
// example leans into that: it trains filters at several thresholds,
// prints them, explains the first rule in prose, and reports which
// features the rules actually use -- reproducing the paper's observation
// that block size and the call/system/load/store fractions carry most of
// the signal.
//
// Run: ./build/examples/inspect_rules
//
//===----------------------------------------------------------------------===//

#include "harness/ParallelExperiments.h"
#include "ml/Ripper.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <iostream>
#include <map>

using namespace schedfilter;

namespace {

void explainFirstRule(const RuleSet &RS) {
  if (RS.rules().empty()) {
    std::cout << "(no rules: the filter never schedules)\n";
    return;
  }
  const Rule &R = RS.rules().front();
  std::cout << "In prose, the first rule schedules a block when:";
  for (const Condition &C : R.Conditions) {
    std::cout << "\n  - ";
    if (C.Feature == FeatBBLen)
      std::cout << "it has " << (C.IsLessEqual ? "at most " : "at least ")
                << formatDouble(C.Threshold, 0) << " instructions";
    else
      std::cout << (C.IsLessEqual ? "at most " : "at least ")
                << formatPercent(C.Threshold, 1) << " of it is "
                << getFeatureName(C.Feature);
  }
  std::cout << "\nand it claimed " << R.NumCorrect << " blocks correctly ("
            << R.NumIncorrect << " incorrectly) in training.\n";
}

} // namespace

int main() {
  MachineModel Model = MachineModel::ppc7410();
  std::vector<BenchmarkSpec> Suite = specjvm98Suite();
  for (BenchmarkSpec &S : Suite)
    S.NumMethods = 60;
  ExperimentEngine Engine;
  std::vector<BenchmarkRun> Runs = Engine.generateSuiteData(Suite, Model);

  std::map<std::string, size_t> FeatureUse;
  for (double T : {0.0, 20.0, 40.0}) {
    std::vector<Dataset> Labeled = Engine.labelSuite(Runs, T);
    Dataset All("all");
    for (const Dataset &D : Labeled)
      All.append(D);
    RuleSet RS = Ripper().train(All);

    std::cout << "== Filter induced at t = " << T << " ==\n"
              << RS.toString() << '\n';
    explainFirstRule(RS);
    std::cout << '\n';

    for (const Rule &R : RS.rules())
      for (const Condition &C : R.Conditions)
        ++FeatureUse[getFeatureName(C.Feature)];
  }

  std::cout << "== Feature usage across all induced rules ==\n";
  TablePrinter T({"Feature", "Conditions"});
  for (const auto &[Name, Count] : FeatureUse)
    T.addRow({Name, std::to_string(Count)});
  T.print(std::cout);
  std::cout << "\nAs in the paper's Figure 4, block size and the memory/"
               "call-related\nfractions dominate; hazard fractions fine-tune."
            << '\n';
  return 0;
}
