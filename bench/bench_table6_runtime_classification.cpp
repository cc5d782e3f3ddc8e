//===- bench/bench_table6_runtime_classification.cpp - Paper Table 6 -------===//
//
// Regenerates Table 6: how many blocks the installed (cross-validated)
// filters classify LS vs NS at run time, summed over SPECjvm98, for each
// threshold.  Every block is classified (nothing is dropped online), so
// the total is constant; as t rises the induced rules predict more blocks
// not to benefit, which is what makes filtering cheaper.
//
// Paper reference: LS falls 6064 -> 160 while NS rises correspondingly;
// total constant at 45453.
//
// A second section replays the same filters inside the serving engine
// (src/runtime/), one benchmark per service: in the adaptive regime only
// promoted-hot methods ever
// reach the optimizing tier, so the filter classifies a fraction of each
// program's blocks online -- the difference between "classify the whole
// program" (Table 6 proper) and "classify what a real adaptive system
// actually compiles" (§3.1).
//
// A third section pushes further into that regime: an interleaved
// multi-app stream (--workload, default specjvm98:3,serverloop:1) served
// by one shared service with the pooled SPECjvm98 t = 0 factory filter
// installed -- how the classifier behaves when part of the traffic is
// from families it never trained on.
//
//===----------------------------------------------------------------------===//

#include "harness/ParallelExperiments.h"
#include "harness/TableRender.h"
#include "ml/Ripper.h"
#include "runtime/MultiAppService.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include "EngineOption.h"
#include "WorkloadOption.h"

#include <iostream>

using namespace schedfilter;

int main(int argc, char **argv) {
  CommandLine CL(argc, argv);
  std::optional<WorkloadMix> MixFlag = parseWorkloadOption(CL);
  if (!MixFlag)
    return 1;
  WorkloadMix Mix = MixFlag->empty()
                        ? WorkloadMix{{"specjvm98", 3.0}, {"serverloop", 1.0}}
                        : *MixFlag;
  std::optional<EngineHandle> Handle = parseEngineOptions(CL);
  if (!Handle)
    return 1;
  ExperimentEngine &Engine = **Handle;

  MachineModel Model = MachineModel::ppc7410();
  std::vector<BenchmarkSpec> Specs = specjvm98Suite();
  std::vector<BenchmarkRun> Suite = Engine.generateSuiteData(Specs, Model);
  std::vector<ThresholdResult> Sweep =
      Engine.runThresholdSweep(Suite, paperThresholds(), ripperLearner());
  renderTable6(Sweep, std::cout);

  // Runtime regime: the t = 0 filters of the sweep, installed in the
  // optimizing tier of a one-app service per benchmark.  Only blocks of
  // promoted methods are ever classified online.
  const ThresholdResult &AtZero = Sweep.front();
  std::cout << "\nSingle-app service replay (t = 0 filters, default service "
               "config):\nblocks classified online when only promoted-hot "
               "methods reach the optimizing tier\n\n";
  TablePrinter T({"Benchmark", "Methods opt", "Blocks online", "LS", "NS",
                  "Blocks total"});
  size_t TotalLS = 0, TotalNS = 0, TotalBlocks = 0;
  for (size_t B = 0; B != Suite.size(); ++B) {
    ServiceConfig Cfg;
    Cfg.StreamSeed = invocationStreamSeed(Specs[B].Seed);
    std::vector<AppSpec> App{{Specs[B]}};
    std::vector<Program> Prog{Suite[B].Prog};
    ServiceStats St = MultiAppService(App, Prog, Model, Cfg,
                                      &AtZero.Filters[B], Engine.pool())
                          .run()
                          .Total;
    T.addRow({Suite[B].Name,
              std::to_string(St.MethodsOptimized) + "/" +
                  std::to_string(St.MethodsTotal),
              std::to_string(St.FilterLS + St.FilterNS),
              std::to_string(St.FilterLS), std::to_string(St.FilterNS),
              std::to_string(Suite[B].Prog.totalBlocks())});
    TotalLS += St.FilterLS;
    TotalNS += St.FilterNS;
    TotalBlocks += Suite[B].Prog.totalBlocks();
  }
  T.addRow({"Total", "", std::to_string(TotalLS + TotalNS),
            std::to_string(TotalLS), std::to_string(TotalNS),
            std::to_string(TotalBlocks)});
  T.print(std::cout);

  // Mixed-traffic regime: one shared service, several apps interleaved,
  // the pooled SPECjvm98 t = 0 filter (the factory artifact) classifying
  // whatever traffic reaches the optimizing tier -- including families
  // it never saw at training time.
  Dataset Pooled("specjvm98-t0");
  for (const Dataset &D : Engine.labelSuite(Suite, 0.0))
    Pooled.append(D);
  RuleSet Factory = ripperLearner(Engine.pool())(Pooled);

  std::vector<AppSpec> Apps = expandWorkloadMix(Mix);
  ServiceConfig Cfg;
  Cfg.StreamSeed = workloadMixSeed(Apps);
  std::vector<Program> Programs = generateMixPrograms(Apps);
  MultiAppComparison Cmp = runMultiAppComparison(Apps, Programs, Model, Cfg,
                                                 Factory, Engine.pool());

  std::cout << "\nmixed-traffic replay (--workload " << formatWorkloadMix(Mix)
            << "; pooled SPECjvm98 t = 0 filter, default service config):\n"
               "online classification per app of one interleaved stream\n\n";
  TablePrinter M({"App", "Family", "Blocks online", "LS", "NS", "Recouped"});
  size_t MixLS = 0, MixNS = 0;
  for (size_t A = 0; A != Apps.size(); ++A) {
    const ServiceStats &St = Cmp.Filtered.PerApp[A];
    M.addRow({Cmp.Filtered.AppNames[A], Apps[A].Spec.Family,
              std::to_string(St.FilterLS + St.FilterNS),
              std::to_string(St.FilterLS), std::to_string(St.FilterNS),
              formatPercent(Cmp.PerAppRecoup[A], 1)});
    MixLS += St.FilterLS;
    MixNS += St.FilterNS;
  }
  M.addRow({"Total", "", std::to_string(MixLS + MixNS),
            std::to_string(MixLS), std::to_string(MixNS),
            formatPercent(Cmp.RecoupedWorkFraction, 1)});
  M.print(std::cout);
  return 0;
}
