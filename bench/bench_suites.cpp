//===- bench/bench_suites.cpp - Tables 2 & 7: benchmark inventories --------===//
//
// Prints the two benchmark suites (the paper's Tables 2 and 7) together
// with the population statistics of their synthetic stand-ins: block
// counts, instruction counts, and the fraction of blocks that benefit from
// scheduling at t = 0.
//
//===----------------------------------------------------------------------===//

#include "harness/ParallelExperiments.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "support/CommandLine.h"

#include "EngineOption.h"

#include <iostream>

using namespace schedfilter;

static void printSuite(ExperimentEngine &Engine, const char *Title,
                       const std::vector<BenchmarkSpec> &Suite) {
  std::cout << Title << "\n\n";
  MachineModel Model = MachineModel::ppc7410();
  std::vector<BenchmarkRun> Runs = Engine.generateSuiteData(Suite, Model);

  TablePrinter T({"Benchmark", "Description", "Methods", "Blocks", "Insts",
                  "LS blocks (t=0)", "LS frac"});
  for (size_t I = 0; I != Runs.size(); ++I) {
    const BenchmarkRun &R = Runs[I];
    size_t NumLS = 0;
    for (const BlockRecord &Rec : R.Records)
      NumLS += schedulingBenefitPercent(Rec) > 0.0;
    T.addRow({R.Name, Suite[I].Description,
              std::to_string(R.Prog.size()),
              std::to_string(R.Prog.totalBlocks()),
              std::to_string(R.Prog.totalInstructions()),
              std::to_string(NumLS),
              formatPercent(static_cast<double>(NumLS) /
                            static_cast<double>(R.Records.size()))});
  }
  T.print(std::cout);
  std::cout << '\n';
}

int main(int argc, char **argv) {
  std::optional<CommandLine> CL = parseCommandLine(
      argc, argv, {"no-cache"}, {"jobs", "corpus-dir"});
  if (!CL)
    return 1;
  std::optional<EngineHandle> Handle = parseEngineOptions(*CL);
  if (!Handle)
    return 1;
  ExperimentEngine &Engine = **Handle;

  printSuite(Engine, "Table 2: SPECjvm98 benchmark stand-ins",
             specjvm98Suite());
  printSuite(Engine,
             "Table 7: benchmarks that benefit from scheduling (FP suite)",
             fpSuite());
  return 0;
}
