//===- tools/sf-apply.cpp - Deploy a filter in the JIT pipeline -------------===//
//
// Loads a serialized filter (written by sf-train) and compiles a
// benchmark under the paper's three policies, reporting scheduling effort
// and simulated application time -- the online half of the procedure.
//
// Usage:
//   sf-apply --rules RULES.txt --benchmark mpegaudio
//            [--model ppc7410|ppc970|simple-scalar]
//
//===----------------------------------------------------------------------===//

#include "analysis/RuleAnalysis.h"
#include "harness/Experiments.h"
#include "ml/Serialization.h"
#include "runtime/MethodCompiler.h"
#include "support/CommandLine.h"

#include "ModelOption.h"
#include "RulesOption.h"
#include "VersionOption.h"
#include "WorkloadOption.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <iostream>

using namespace schedfilter;

static void printUsage(std::ostream &OS) {
  OS << "usage: sf-apply --rules RULES.txt --benchmark NAME\n"
        "                [--model ppc7410|ppc970|simple-scalar]\n"
        "       sf-apply --list\n"
        "       sf-apply --help | --version\n";
}

int main(int argc, char **argv) {
  std::optional<CommandLine> CL = parseCommandLine(
      argc, argv, {"help", "version", "list"},
      {"rules", "benchmark", "model"});
  if (!CL)
    return 1;
  if (handleInfoOptions(*CL, "sf-apply", printUsage))
    return 0;
  std::string RulesPath = CL->get("rules");
  std::string Name = CL->get("benchmark");
  if (RulesPath.empty() || Name.empty()) {
    printUsage(std::cerr);
    return 1;
  }

  // Validate every flag before touching any file, so a mistyped knob
  // fails fast regardless of the rules file's state.
  std::optional<const BenchmarkSpec *> Bench = parseBenchmarkOption(*CL);
  if (!Bench)
    return 1;
  const BenchmarkSpec *Spec = *Bench;
  std::optional<MachineModel> Model = parseModelOption(*CL);
  if (!Model)
    return 1;

  std::optional<RuleSetFile> Rules = loadRulesFileWithLint(RulesPath);
  if (!Rules)
    return 1;

  Program P = generateWorkloadProgram(*Spec);
  ScheduleFilter Filter(Rules->Rules);

  CompileReport NS = compileProgram(P, *Model, SchedulingPolicy::Never);
  CompileReport LS = compileProgram(P, *Model, SchedulingPolicy::Always);
  CompileReport LN =
      compileProgram(P, *Model, SchedulingPolicy::Filtered, &Filter);

  std::cout << Name << " on " << Model->getName() << "\n\n";
  TablePrinter T({"Policy", "Scheduled", "Work units", "App time vs NS"});
  for (const CompileReport &R : {NS, LS, LN})
    T.addRow({getPolicyName(R.Policy),
              std::to_string(R.NumScheduled) + "/" +
                  std::to_string(R.NumBlocks),
              std::to_string(R.SchedulingWork),
              formatDouble(R.SimulatedTime / NS.SimulatedTime, 4)});
  T.print(std::cout);

  if (NS.SimulatedTime > LS.SimulatedTime) {
    double Kept = 100.0 * (NS.SimulatedTime - LN.SimulatedTime) /
                  (NS.SimulatedTime - LS.SimulatedTime);
    std::cout << "\nfilter keeps " << formatDouble(Kept, 1)
              << "% of the scheduling benefit at "
              << formatPercent(
                     safeRatio(static_cast<double>(LN.SchedulingWork),
                               static_cast<double>(LS.SchedulingWork)),
                     1)
              << " of the effort\n";
  }
  // Wall time varies run to run, so it goes to stderr.
  std::cerr << "scheduling wall time (ms) for NS, LS, L/N:";
  for (const CompileReport &R : {NS, LS, LN})
    std::cerr << ' ' << formatDouble(R.SchedulingSeconds * 1e3, 3);
  std::cerr << '\n';
  return 0;
}
