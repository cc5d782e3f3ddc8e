//===- examples/jit_pipeline.cpp - Online use inside a JIT ------------------===//
//
// Shows the filter where it actually lives: inside a JIT's compilation
// pipeline.  Compiles the mpegaudio stand-in (the SPECjvm98 member that
// benefits most from scheduling) under the paper's three policies --
// never schedule, always schedule, and filtered -- and reports the
// efficiency/effectiveness trade-off for each.
//
// Run: ./build/examples/jit_pipeline
//
//===----------------------------------------------------------------------===//

#include "harness/ParallelExperiments.h"
#include "ml/Ripper.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <iostream>

using namespace schedfilter;

int main() {
  MachineModel Model = MachineModel::ppc7410();

  // Train the filter on the six *other* SPECjvm98 benchmarks, exactly as
  // the paper's leave-one-out methodology prescribes: the JIT ships with
  // a filter that has never seen the program it is compiling.
  std::vector<BenchmarkSpec> Suite = specjvm98Suite();
  for (BenchmarkSpec &S : Suite)
    S.NumMethods = 60;
  std::vector<BenchmarkRun> Runs =
      ExperimentEngine().generateSuiteData(Suite, Model);

  Dataset Train("train");
  const BenchmarkRun *Target = nullptr;
  for (size_t B = 0; B != Runs.size(); ++B) {
    if (Runs[B].Name == "mpegaudio") {
      Target = &Runs[B];
      continue;
    }
    Train.append(buildDataset(Runs[B].Records, /*ThresholdPct=*/0.0,
                              Runs[B].Name));
  }
  RuleSet Rules = Ripper().train(Train);
  std::cout << "filter trained on " << Train.size()
            << " blocks from the other benchmarks; " << Rules.size()
            << " rules\n\n";

  // Compile mpegaudio under the three policies.
  ScheduleFilter Filter(Rules);
  CompileReport NS = compileProgram(Target->Prog, Model,
                                    SchedulingPolicy::Never);
  CompileReport LS = compileProgram(Target->Prog, Model,
                                    SchedulingPolicy::Always);
  CompileReport LN = compileProgram(Target->Prog, Model,
                                    SchedulingPolicy::Filtered, &Filter);

  TablePrinter T({"Policy", "Blocks scheduled", "Sched work units",
                  "Sched wall (ms)", "App time vs NS"});
  auto Row = [&](const CompileReport &R) {
    T.addRow({getPolicyName(R.Policy),
              std::to_string(R.NumScheduled) + "/" +
                  std::to_string(R.NumBlocks),
              std::to_string(R.SchedulingWork),
              formatDouble(R.SchedulingSeconds * 1e3, 3),
              formatDouble(R.SimulatedTime / NS.SimulatedTime, 4)});
  };
  Row(NS);
  Row(LS);
  Row(LN);
  T.print(std::cout);

  double EffortSaved =
      100.0 * (1.0 - static_cast<double>(LN.SchedulingWork) /
                         static_cast<double>(LS.SchedulingWork));
  double BenefitKept = 100.0 * (NS.SimulatedTime - LN.SimulatedTime) /
                       (NS.SimulatedTime - LS.SimulatedTime);
  std::cout << "\nThe filter kept " << formatDouble(BenefitKept, 1)
            << "% of the scheduling benefit while avoiding "
            << formatDouble(EffortSaved, 1) << "% of the scheduling work.\n";
  return 0;
}
