//===- bench/bench_ablation_noise.cpp - Threshold noise-filter ablation ----===//
//
// The paper's §4.4 insight, which it encourages others to reuse: when
// labels come from comparing a predicted metric under two treatments,
// *dropping* instances whose difference is inside a threshold band
// improves both the efficiency and the effectiveness of the induced
// heuristic.
//
// This ablation isolates the device.  At t = 20, the band (0, 20] can be
// handled three ways:
//   drop      - the paper's method: no training instance at all;
//   label-NS  - keep the block, call it NS ("not worth it");
//   label-LS  - keep the block, call it LS (any improvement counts).
// Each variant is one configuration of the noise layer: a band-filling
// label source appended to the (optionally --noise-corrupted) stack, run
// through the same perturb/label/LOOCV/price pipeline as the robustness
// ladder (noise/Robustness.h).  The paper's claim to verify: "drop"
// dominates "label-LS" on efficiency while matching (or beating) both on
// the effort/benefit frontier.
//
//===----------------------------------------------------------------------===//

#include "noise/Robustness.h"
#include "support/CommandLine.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include "EngineOption.h"
#include "NoiseOption.h"
#include "WorkloadOption.h"

#include <iostream>

using namespace schedfilter;

namespace {

/// The band-handling variants as a label-boundary noise source: records
/// the threshold rule dropped get \p Fill instead.  Appended after any
/// --noise sources, so it sees the verdicts they already transformed.
class BandFill final : public NoiseSource {
public:
  explicit BandFill(Label Fill) : Fill(Fill) {}

  std::string describe() const override {
    return std::string("band-fill:") + getLabelName(Fill);
  }

  std::optional<Label> perturbLabel(std::optional<Label> L,
                                    const BlockRecord &, size_t,
                                    const Rng &) const override {
    return L ? L : std::optional<Label>(Fill);
  }

private:
  Label Fill;
};

} // namespace

int main(int argc, char **argv) {
  std::optional<CommandLine> CL = parseCommandLine(
      argc, argv, {"no-cache"},
      {"jobs", "corpus-dir", "noise", "noise-seed", "suite"});
  if (!CL)
    return 1;
  std::optional<EngineHandle> Handle = parseEngineOptions(*CL);
  if (!Handle)
    return 1;
  ExperimentEngine &Engine = **Handle;

  // Validate the shared --noise surface once up front; per variant the
  // spec is re-parsed so each stack owns its sources.
  std::optional<NoiseStack> Probe = parseNoiseOption(*CL);
  if (!Probe)
    return 1;
  const std::string NoiseSpec = CL->get("noise");
  const uint64_t NoiseSeed = Probe->seed();

  const double T = 20.0;
  // --suite picks any registered workload family (default specjvm98, the
  // paper's population); the ablation itself is family-agnostic.
  const WorkloadFamily *Family = parseSuiteOption(*CL, "specjvm98");
  if (!Family)
    return 1;
  std::vector<BenchmarkRun> Suite = Engine.generateSuiteData(
      Family->makeBenchmarkSuite(), MachineModel::ppc7410());

  std::cout << "Noise-filtering ablation at t = " << T << " ("
            << Family->displayName() << " geometric means, LOOCV"
            << (NoiseSpec.empty() ? "" : "; noise " + Probe->describe())
            << ")\n\n";
  TablePrinter Table({"Band handling", "Train size", "Runtime LS share",
                      "Effort vs LS", "App time vs NS",
                      "LS benefit retained"});

  const std::pair<const char *, std::optional<Label>> Variants[] = {
      {"drop (paper)", std::nullopt},
      {"label as NS", Label::NS},
      {"label as LS", Label::LS},
  };

  for (const auto &[Name, Fill] : Variants) {
    ParseResult<NoiseStack> Stack = parseNoiseStack(NoiseSpec, NoiseSeed);
    if (!Stack) { // validated above; re-parse cannot fail
      std::cerr << "error: --noise: " << Stack.error().Message << '\n';
      return 1;
    }
    if (Fill)
      Stack->add(std::make_unique<BandFill>(*Fill));
    RobustnessPoint P = runRobustnessPoint(Engine, Suite, *Stack, T);
    Table.addRow(
        {Name, std::to_string(P.TrainLS + P.TrainNS),
         formatPercent(safeRatio(static_cast<double>(P.RuntimeLS),
                                 static_cast<double>(P.RuntimeBlocks)),
                       1),
         formatPercent(P.EffortRatio, 1), formatDouble(P.AppTimeLN, 4),
         formatDouble(100.0 * P.Retention, 1) + "%"});
  }
  Table.print(std::cout);

  std::cout << "\n'label as LS' recreates t = 0 (maximal effort); "
               "'label as NS' loses benefit\nby teaching the filter that "
               "mildly-improvable blocks are worthless; dropping\nthe band "
               "gives the learner a clean signal -- the paper's point.\n";
  return 0;
}
