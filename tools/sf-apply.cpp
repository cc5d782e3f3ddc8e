//===- tools/sf-apply.cpp - Deploy a filter in the JIT pipeline -------------===//
//
// Loads a serialized filter (written by sf-train) and compiles a
// benchmark under the paper's three policies, reporting scheduling effort
// and simulated application time -- the online half of the procedure.
//
// Usage:
//   sf-apply --rules RULES.txt --benchmark mpegaudio
//            [--model ppc7410|ppc970|simple-scalar] [--hot FRACTION]
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
        "                [--model ppc7410|ppc970|simple-scalar]"
        " [--hot FRACTION]\n"
        "       sf-apply --list\n"
        "       sf-apply --help | --version\n";
}

static int usage() {
  printUsage(std::cerr);
  return 1;
}

int main(int argc, char **argv) {
  CommandLine CL(argc, argv);
  if (CL.has("help")) {
    printUsage(std::cout);
    return 0;
  }
  if (handleVersionOption(CL, "sf-apply"))
    return 0;
  if (CL.has("list")) {
    printWorkloadList(std::cout);
    return 0;
  }
  std::string RulesPath = CL.get("rules");
  std::string Name = CL.get("benchmark");
  if (RulesPath.empty() || Name.empty())
    return usage();

  // Validate every flag before touching any file, so a mistyped knob
  // fails fast regardless of the rules file's state.
  std::optional<BenchmarkSelection> Bench = parseBenchmarkOption(CL);
  if (!Bench)
    return 1;
  const BenchmarkSpec *Spec = Bench->Spec;
  std::optional<MachineModel> Model = parseModelOption(CL);
  if (!Model)
    return 1;
  std::optional<double> HotFlag = CL.getDouble("hot", 1.0);
  if (!HotFlag)
    return 1;
  if (!(*HotFlag >= 0.0 && *HotFlag <= 1.0)) {
    std::cerr << "error: --hot expects a fraction in [0, 1] (got '"
              << CL.get("hot") << "')\n";
    return 1;
  }
  double Hot = *HotFlag;

  std::optional<RuleSetFile> Rules = loadRulesFileWithLint(RulesPath);
  if (!Rules)
    return 1;

  Program P = generateWorkloadProgram(*Spec);
  ScheduleFilter Filter(Rules->Rules);

  CompileReport NS = compileProgramAdaptive(P, *Model,
                                            SchedulingPolicy::Never,
                                            nullptr, Hot);
  CompileReport LS = compileProgramAdaptive(P, *Model,
                                            SchedulingPolicy::Always,
                                            nullptr, Hot);
  CompileReport LN = compileProgramAdaptive(
      P, *Model, SchedulingPolicy::Filtered, &Filter, Hot);

  std::cout << Name << " on " << Model->getName() << " (hot fraction "
            << formatPercent(Hot, 0) << ")\n\n";
  TablePrinter T({"Policy", "Scheduled", "Work units", "Wall (ms)",
                  "App time vs NS"});
  for (const CompileReport &R : {NS, LS, LN})
    T.addRow({getPolicyName(R.Policy),
              std::to_string(R.NumScheduled) + "/" +
                  std::to_string(R.NumBlocks),
              std::to_string(R.SchedulingWork),
              formatDouble(R.SchedulingSeconds * 1e3, 3),
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
  return 0;
}
