//===- bench/bench_serve_throughput.cpp - Single-app serving suite sweep ----===//
//
// The §3.1 adaptive regime as a suite sweep: every SPECjvm98
// stand-in is replayed as the lone app of a MultiAppService (sampling,
// bounded queue, tiered promotion under a virtual clock) with its LOOCV t = 0
// filter in the optimizing tier, against the same service with LS in the
// optimizing tier.  Reported per benchmark: promotion/queue dynamics,
// tier residency, and the scheduling work the filter recoups once
// compilation happens at run time -- the paper's §3.1 claim, measured in
// the regime it was made about.
//
// All table numbers are deterministic (bit-identical at any --jobs and
// cache temperature); wall-clock throughput goes to stderr.
//
//===----------------------------------------------------------------------===//

#include "harness/ParallelExperiments.h"
#include "runtime/MultiAppService.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "support/CommandLine.h"
#include "support/Timer.h"

#include "EngineOption.h"
#include "WorkloadOption.h"

#include <iostream>

using namespace schedfilter;

int main(int argc, char **argv) {
  std::optional<CommandLine> CL = parseCommandLine(
      argc, argv, {"no-cache"}, {"workload", "jobs", "corpus-dir"});
  if (!CL)
    return 1;
  // --workload swaps in any family mix's benchmarks (each still served as
  // its own single-app stream here; sf-serve --workload interleaves them).
  // Weights are accepted for flag symmetry but don't affect this sweep.
  std::optional<WorkloadMix> Mix = parseWorkloadOption(*CL);
  if (!Mix)
    return 1;
  std::optional<EngineHandle> Handle = parseEngineOptions(*CL);
  if (!Handle)
    return 1;
  ExperimentEngine &Engine = **Handle;

  MachineModel Model = MachineModel::ppc7410();
  std::vector<BenchmarkSpec> Specs =
      Mix->empty() ? specjvm98Suite() : appSuite(expandWorkloadMix(*Mix));
  std::vector<BenchmarkRun> Suite = Engine.generateSuiteData(Specs, Model);
  std::vector<Dataset> Labeled = Engine.labelSuite(Suite, 0.0);
  std::vector<LoocvFold> Folds =
      leaveOneOut(Labeled, ripperLearner(), Engine.pool());

  // Each benchmark is the lone app of its own service.
  std::vector<MultiAppComparison> Results;
  AccumulatingTimer Wall;
  Wall.start();
  for (size_t B = 0; B != Suite.size(); ++B) {
    ServiceConfig Cfg;
    Cfg.StreamSeed = invocationStreamSeed(Specs[B].Seed);
    std::vector<AppSpec> App{{Specs[B]}};
    std::vector<Program> Prog{Suite[B].Prog};
    Results.push_back(runMultiAppComparison(App, Prog, Model, Cfg,
                                            Folds[B].Filter, Engine.pool()));
  }
  Wall.stop();
  double Seconds = Wall.seconds();

  std::cout << "Single-app serving regime: invocation streams served under "
               "LS vs L/N optimizing tiers\n("
            << (Mix->empty() ? findWorkloadFamily("specjvm98")->displayName()
                             : formatWorkloadMix(*Mix))
            << "; t = 0 LOOCV filters; default service config)\n\n";
  TablePrinter T({"Benchmark", "Promoted", "Deferred", "Max queue",
                  "Opt residency", "LS work", "L/N work", "Recouped"});

  std::vector<double> WorkRatio, Residency;
  uint64_t TotalInvocations = 0;
  for (size_t B = 0; B != Suite.size(); ++B) {
    const ServiceStats &LS = Results[B].Always.Total;
    const ServiceStats &LN = Results[B].Filtered.Total;
    double OptResidency =
        safeRatio(static_cast<double>(LN.OptimizedInvocations),
                  static_cast<double>(LN.Invocations));
    T.addRow({Suite[B].Name, std::to_string(LN.Promotions),
              std::to_string(LN.Deferred),
              std::to_string(LN.MaxQueueDepth),
              formatPercent(OptResidency, 1),
              std::to_string(LS.SchedulingWork),
              std::to_string(LN.SchedulingWork),
              formatPercent(Results[B].RecoupedWorkFraction, 1)});
    // Geomean over the (always positive) L/N-to-LS work ratios, so a
    // benchmark whose filter *costs* work (ratio > 1, negative recoup)
    // degrades the headline instead of being clamped away.
    WorkRatio.push_back(safeRatio(static_cast<double>(LN.SchedulingWork),
                                  static_cast<double>(LS.SchedulingWork),
                                  1.0));
    Residency.push_back(OptResidency);
    TotalInvocations += LS.Invocations + LN.Invocations;
  }
  T.print(std::cout);

  std::cout << "\nrecouped scheduling work (1 - geomean work ratio): "
            << formatPercent(1.0 - geometricMean(WorkRatio), 1)
            << "; mean optimized-tier residency: "
            << formatPercent(mean(Residency), 1) << '\n';

  std::cerr << "throughput: " << TotalInvocations
            << " invocations served in " << formatDouble(Seconds * 1e3, 1)
            << " ms ("
            << formatDouble(Seconds > 0.0
                                ? static_cast<double>(TotalInvocations) /
                                      Seconds / 1e6
                                : 0.0,
                            2)
            << "M inv/s)\n";
  return 0;
}
