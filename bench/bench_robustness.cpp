//===- bench/bench_robustness.cpp - Effort/benefit under noise ------------===//
//
// The production question behind the paper's transfer experiment: how
// much signal corruption does the induced filter's advantage survive?
// For every registered workload family, the severity ladder of
// noise/Robustness.h is swept: each rung perturbs the traced suite
// through its noise stack, relabels through the stack's label hooks,
// LOOCV-trains RIPPER, and prices the held-out filters against the
// always-schedule baseline.
//
// The frontier per rung:
//   retention R = share of always-schedule's app-time benefit kept;
//   effort    E = share of always-schedule's scheduling work spent.
// Always-schedule sits at (1, 1), so the filter wins while R - E >= 0.
// A final section serves one family's app mix through MultiAppService
// under a static vs a drifting interleave (the drift source), comparing
// recouped scheduling work under both traffics.
//
// Every number is deterministic -- bit-identical at any --jobs and any
// corpus-cache temperature (perturbation applies downstream of the
// cache) -- which CI pins with byte-diffs of this binary's output.
//
//===----------------------------------------------------------------------===//

#include "ml/Ripper.h"
#include "noise/Robustness.h"
#include "runtime/MultiAppService.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include "BenchJson.h"
#include "EngineOption.h"
#include "NoiseOption.h"
#include "WorkloadOption.h"

#include <iostream>
#include <sstream>

using namespace schedfilter;

namespace {

/// One family's sweep: suite generated once (cache-served when warm),
/// each rung evaluated on a fresh perturbed copy.
struct FamilySweep {
  std::string Family;
  std::vector<unsigned> Levels;
  std::vector<RobustnessPoint> Points;
};

FamilySweep sweepFamily(ExperimentEngine &Engine, const WorkloadFamily &F,
                        const std::vector<unsigned> &Levels, double Threshold,
                        uint64_t Seed) {
  FamilySweep S;
  S.Family = F.name();
  S.Levels = Levels;
  std::vector<BenchmarkRun> Suite = Engine.generateSuiteData(
      F.makeBenchmarkSuite(), MachineModel::ppc7410());
  for (unsigned L : Levels)
    S.Points.push_back(runRobustnessPoint(Engine, Suite,
                                          robustnessStack(L, Seed), Threshold));
  return S;
}

/// True when the win margin never increases as severity does.
bool monotoneMargins(const std::vector<RobustnessPoint> &Points) {
  for (size_t I = 1; I < Points.size(); ++I)
    if (Points[I].WinMargin > Points[I - 1].WinMargin + 1e-12)
      return false;
  return true;
}

} // namespace

int main(int argc, char **argv) {
  std::optional<CommandLine> CL = parseCommandLine(
      argc, argv, {"quick", "no-cache"},
      {"jobs", "corpus-dir", "noise-seed", "threshold", "suite", "out"});
  if (!CL)
    return 1;
  std::optional<EngineHandle> Handle = parseEngineOptions(*CL);
  if (!Handle)
    return 1;
  ExperimentEngine &Engine = **Handle;

  std::optional<uint64_t> Seed =
      parseCountOption(*CL, "noise-seed", DefaultNoiseSeed, 0, UINT64_MAX);
  if (!Seed)
    return 1;
  std::optional<double> Threshold = parseThresholdOption(*CL, 20.0);
  if (!Threshold)
    return 1;
  const bool Quick = CL->has("quick");

  // Which families and which rungs.  --quick keeps CI's smoke cheap: one
  // family, the ladder endpoints plus one middle rung.
  std::vector<const WorkloadFamily *> Families =
      WorkloadRegistry::instance().families();
  if (CL->has("suite") || Quick) {
    const WorkloadFamily *F = parseSuiteOption(*CL, "specjvm98");
    if (!F)
      return 1;
    Families = {F};
  }
  std::vector<unsigned> Levels;
  if (Quick) {
    Levels = {0, 2, numRobustnessLevels() - 1};
  } else {
    for (unsigned L = 0; L != numRobustnessLevels(); ++L)
      Levels.push_back(L);
  }

  std::cout << "Robustness frontier: effort vs benefit retention under the "
               "noise ladder\n(t = " << formatTrimmed(*Threshold)
            << ", LOOCV RIPPER, noise seed " << *Seed
            << "; win margin = retention - effort)\n";

  std::ostringstream OS;
  OS << "{\n  \"bench\": \"robustness\",\n"
     << "  \"threshold\": " << formatTrimmed(*Threshold) << ",\n"
     << "  \"noise_seed\": " << *Seed << ",\n  \"families\": [\n";

  bool AllMonotone = true;
  for (size_t FI = 0; FI != Families.size(); ++FI) {
    const WorkloadFamily &F = *Families[FI];
    FamilySweep S = sweepFamily(Engine, F, Levels, *Threshold, *Seed);

    std::cout << "\n" << F.displayName() << " (" << F.description() << ")\n";
    TablePrinter T({"Level", "Stack", "Train LS/NS", "Effort vs LS",
                    "App time vs NS", "Retention", "Win margin", "Verdict"});
    OS << "    {\"family\": \"" << S.Family << "\", \"points\": [\n";
    for (size_t I = 0; I != S.Points.size(); ++I) {
      const RobustnessPoint &P = S.Points[I];
      T.addRow({"L" + std::to_string(S.Levels[I]),
                P.Stack,
                std::to_string(P.TrainLS) + "/" + std::to_string(P.TrainNS),
                formatPercent(P.EffortRatio, 1), formatDouble(P.AppTimeLN, 4),
                formatPercent(P.Retention, 1),
                formatDouble(P.WinMargin, 3),
                P.WinMargin >= 0.0 ? "filter wins" : "always-LS wins"});
      OS << "      {\"level\": " << S.Levels[I] << ", \"stack\": \"" << P.Stack
         << "\", \"train_ls\": " << P.TrainLS
         << ", \"train_ns\": " << P.TrainNS
         << ", \"effort\": " << P.EffortRatio
         << ", \"app_ln\": " << P.AppTimeLN << ", \"app_ls\": " << P.AppTimeLS
         << ", \"retention\": " << P.Retention
         << ", \"win_margin\": " << P.WinMargin << "}"
         << (I + 1 == S.Points.size() ? "\n" : ",\n");
    }
    T.print(std::cout);
    bool Monotone = monotoneMargins(S.Points);
    AllMonotone = AllMonotone && Monotone;
    std::cout << "frontier monotone (win margin non-increasing): "
              << (Monotone ? "yes" : "NO") << '\n';
    OS << "    ], \"monotone\": " << (Monotone ? "true" : "false") << "}"
       << (FI + 1 == Families.size() ? "\n" : ",\n");
  }
  OS << "  ],\n";

  // Drifting-mix section: the same interleaved stream served with a
  // static vs a drifting app mix, under the first family's pooled
  // filter.  Drift reshapes *which* apps own the clock, not any app's
  // own method draws, so the comparison isolates traffic shape.
  {
    const WorkloadFamily &F = *Families.front();
    std::vector<AppSpec> Apps = expandWorkloadMix({{F.name(), 1.0}});
    std::vector<Program> Programs = generateMixPrograms(Apps);
    std::vector<BenchmarkRun> Suite =
        Engine.generateSuiteData(appSuite(Apps), MachineModel::ppc7410());
    Dataset Pooled("pooled");
    for (const Dataset &D : Engine.labelSuite(Suite, *Threshold))
      Pooled.append(D);
    RuleSet Rules = Ripper().train(Pooled, Engine.pool());

    ServiceConfig Cfg;
    Cfg.StreamSeed = workloadMixSeed(Apps);
    if (Quick)
      Cfg.Invocations = 40000;
    const double Amplitude = 1.0;
    ParseResult<NoiseStack> Parsed =
        parseNoiseStack("drift:" + formatTrimmed(Amplitude), *Seed);
    NoiseStack Drift = std::move(*Parsed);

    MultiAppComparison Static = runMultiAppComparison(
        Apps, Programs, MachineModel::ppc7410(), Cfg, Rules, Engine.pool());
    MultiAppComparison Drifting =
        runMultiAppComparison(Apps, Programs, MachineModel::ppc7410(), Cfg,
                              Rules, Engine.pool(), Drift.mixDrift());

    std::cout << "\nDrifting mix (" << F.displayName() << " x "
              << Apps.size() << " apps, " << Drift.describe()
              << "): recouped scheduling work\n  static mix:   "
              << formatPercent(Static.RecoupedWorkFraction, 1)
              << "\n  drifting mix: "
              << formatPercent(Drifting.RecoupedWorkFraction, 1) << '\n';
    OS << "  \"drift\": {\"family\": \"" << F.name()
       << "\", \"stack\": \"" << Drift.describe()
       << "\", \"static_recoup\": " << Static.RecoupedWorkFraction
       << ", \"drifting_recoup\": " << Drifting.RecoupedWorkFraction
       << "},\n";
  }

  OS << "  \"all_monotone\": " << (AllMonotone ? "true" : "false") << "\n}\n";
  std::string OutPath = benchOutPath(*CL, "BENCH_robustness.json");
  if (!writeBenchJson(OutPath, OS.str()))
    return 1;
  return 0;
}
