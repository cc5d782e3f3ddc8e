//===- bench/bench_adaptive_jit.cpp - Hot-method-only compilation ----------===//
//
// Paper §3.1: "we did not apply our filters to a compilation approach
// that identifies and optimizes only frequently executed (or hot)
// methods.  Applying filters to this approach would still save a lot of
// scheduling time ... but the savings will be smaller as a fraction of
// application running time (because compile time will be smaller
// overall)."
//
// This bench reproduces that discussion quantitatively: for several
// hot-method fractions it compiles SPECjvm98 under LS and L/N (filter at
// t = 0, LOOCV) restricted to hot methods, and reports scheduling work
// and application (simulated) time.
//
//===----------------------------------------------------------------------===//

#include "harness/ParallelExperiments.h"
#include "runtime/MethodCompiler.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "support/CommandLine.h"

#include "EngineOption.h"

#include <iostream>

using namespace schedfilter;

int main(int argc, char **argv) {
  CommandLine CL(argc, argv);
  std::optional<EngineHandle> Handle = parseEngineOptions(CL);
  if (!Handle)
    return 1;
  ExperimentEngine &Engine = **Handle;

  MachineModel Model = MachineModel::ppc7410();
  std::vector<BenchmarkRun> Suite =
      Engine.generateSuiteData(specjvm98Suite(), Model);
  std::vector<Dataset> Labeled = Engine.labelSuite(Suite, 0.0);
  std::vector<LoocvFold> Folds =
      leaveOneOut(Labeled, ripperLearner(), Engine.pool());

  std::cout << "Adaptive (hot-method-only) JIT regime: filter savings at "
               "each hot fraction\n(SPECjvm98 geometric means; t = 0 "
               "filters, LOOCV)\n\n";
  TablePrinter T({"Hot fraction", "LS work", "L/N work", "L/N / LS",
                  "App time LS", "App time L/N"});

  for (double Hot : {1.0, 0.5, 0.25, 0.1}) {
    std::vector<double> LsWork, LnWork, Ratio, AppLS, AppLN;
    for (size_t B = 0; B != Suite.size(); ++B) {
      const BenchmarkRun &Run = Suite[B];
      CompileReport NS =
          compileProgramAdaptive(Run.Prog, Model, SchedulingPolicy::Never,
                                 nullptr, Hot);
      CompileReport LS =
          compileProgramAdaptive(Run.Prog, Model, SchedulingPolicy::Always,
                                 nullptr, Hot);
      ScheduleFilter F(Folds[B].Filter);
      CompileReport LN = compileProgramAdaptive(
          Run.Prog, Model, SchedulingPolicy::Filtered, &F, Hot);
      LsWork.push_back(static_cast<double>(LS.SchedulingWork));
      LnWork.push_back(static_cast<double>(LN.SchedulingWork));
      Ratio.push_back(safeRatio(static_cast<double>(LN.SchedulingWork),
                                static_cast<double>(LS.SchedulingWork)));
      AppLS.push_back(LS.SimulatedTime / NS.SimulatedTime);
      AppLN.push_back(LN.SimulatedTime / NS.SimulatedTime);
    }
    T.addRow({formatPercent(Hot, 0),
              formatDouble(geometricMean(LsWork) / 1e3, 0) + "k",
              formatDouble(geometricMean(LnWork) / 1e3, 0) + "k",
              formatPercent(geometricMean(Ratio), 1),
              formatDouble(geometricMean(AppLS), 4),
              formatDouble(geometricMean(AppLN), 4)});
  }
  T.print(std::cout);

  std::cout << "\nAs the paper argues: the filter's *relative* savings "
               "persist at every hot\nfraction (the L/N / LS column), while "
               "the absolute amount of scheduling work\nit avoids shrinks "
               "with the amount of scheduling done at all.\n";
  return 0;
}
