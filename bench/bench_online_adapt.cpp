//===- bench/bench_online_adapt.cpp - Online recovery after a shift -------===//
//
// The headline experiment for online self-training: a mixed stream whose
// traffic *shifts* mid-run (step change in the app interleave at
// ShiftEpoch), served under three filters over the bit-identical drifting
// stream:
//
//   static  -- a fixed filter trained only on the pre-shift family; after
//              the shift it keeps judging the new traffic with stale
//              rules and forfeits most of the scheduling benefit;
//   online  -- starts from the *same* stale filter (its v1) and the same
//              training corpus, but retrains from its own serve-time
//              traces and hot-swaps new versions at epoch boundaries;
//   oracle  -- a fixed filter trained on both families upfront: the
//              ceiling a post-shift-aware factory filter would reach.
//
// The recovery metric is app-time based.  Each run recoups
// (BaselineAppTime - AppTime) SIM units versus the never-optimized
// baseline; the Always policy over the same stream is the scheduling
// ceiling.  With Benefit(x) = BaselineAppTime - AppTime of variant x:
//
//   retention(x) = Benefit(x) / Benefit(always)
//   recovered    = (Benefit(online) - Benefit(static))
//                / (Benefit(oracle) - Benefit(static))
//
// i.e. how much of the benefit the stale filter lost the online trainer
// won back.  The acceptance gate -- recovered >= 0.5 while the static
// filter stays behind the oracle -- is enforced by exit status, so CI
// fails if a regression ever makes the trainer stop adapting.
//
// The per-compile pins (ServiceStats::Compiles) double as an alignment
// proof: promotion dynamics are policy-independent, so all three runs
// drain the same (epoch, method) sequence and their Always sides are
// bit-identical; the bench asserts both before quoting any number.
//
// Deterministic like every bench here: bit-identical output at any
// --jobs and cache temperature (the stream, the drift, the retrain
// schedule and the learned rules are all pure functions of seeds).
//
//===----------------------------------------------------------------------===//

#include "ml/Ripper.h"
#include "runtime/MultiAppService.h"
#include "support/CommandLine.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include "BenchJson.h"
#include "EngineOption.h"
#include "WorkloadOption.h"

#include <iostream>
#include <sstream>

using namespace schedfilter;

namespace {

/// Scheduling work drained strictly after the shift epoch, from the
/// per-compile version pins.
uint64_t postShiftWork(const ServiceStats &St, uint64_t ShiftEpoch) {
  uint64_t W = 0;
  for (const ServiceStats::CompilePinStat &C : St.Compiles)
    if (C.Epoch > ShiftEpoch)
      W += C.SchedulingWork;
  return W;
}

/// True when both runs drained the same (epoch, method) sequence -- the
/// alignment that makes per-variant comparisons like-for-like.
bool sameDrainSequence(const ServiceStats &A, const ServiceStats &B) {
  if (A.Compiles.size() != B.Compiles.size())
    return false;
  for (size_t I = 0; I != A.Compiles.size(); ++I)
    if (A.Compiles[I].Epoch != B.Compiles[I].Epoch ||
        A.Compiles[I].Method != B.Compiles[I].Method)
      return false;
  return true;
}

struct Variant {
  std::string Name;
  MultiAppComparison Run;
  double Benefit = 0.0;   ///< BaselineAppTime - AppTime, Filtered side
  double Retention = 0.0; ///< Benefit / Benefit(always)
  uint64_t PostWork = 0;  ///< post-shift scheduling work, Filtered side
};

} // namespace

int main(int argc, char **argv) {
  std::optional<CommandLine> CL = parseCommandLine(
      argc, argv, {"quick", "no-cache"},
      {"jobs", "corpus-dir", "threshold", "out"});
  if (!CL)
    return 1;
  std::optional<EngineHandle> Handle = parseEngineOptions(*CL);
  if (!Handle)
    return 1;
  ExperimentEngine &Engine = **Handle;
  TaskPool &Pool = Engine.pool();
  const bool Quick = CL->has("quick");

  std::optional<double> ThresholdFlag = parseThresholdOption(*CL, 20.0);
  if (!ThresholdFlag)
    return 1;
  const double Threshold = *ThresholdFlag;

  // The two sides of the shift.  Pre-shift traffic is pointer-chasing
  // (scheduling barely pays; a filter trained here learns to decline);
  // post-shift traffic is the fp-heavy SPECjvm98 stand-ins (scheduling
  // pays; declining forfeits the benefit).
  const std::string PreFamily = "ptrchase";
  const std::string PostFamily = "specjvm98";

  MachineModel Model = MachineModel::ppc7410();
  const WorkloadMix Mix = {{PreFamily, 1.0}, {PostFamily, 1.0}};
  std::vector<AppSpec> Apps = expandWorkloadMix(Mix);
  std::vector<Program> Programs = generateMixPrograms(Apps);
  const size_t NumPreApps =
      findWorkloadFamily(PreFamily)->makeBenchmarkSuite().size();

  ServiceConfig Cfg;
  Cfg.StreamSeed = workloadMixSeed(Apps);
  Cfg.Invocations = Quick ? 60000 : 200000;
  Cfg.HotThreshold = 24;
                        // not tier policy, and a mixed stream dilutes
                        // per-method heat
  Cfg.RetrainEvery = 4096;
  Cfg.RetrainThreshold = Threshold;
  const uint64_t Epochs = Cfg.Invocations / Cfg.EpochLen;
  const uint64_t ShiftEpoch = Epochs / 3;

  // The step shift: before ShiftEpoch the pre-family owns the interleave
  // 20:1, after it the post-family does.  Pure in (epoch, app), so the
  // drifting stream stays bit-identical at any --jobs.
  auto Drift = [NumPreApps, ShiftEpoch](uint64_t Epoch, size_t App) {
    bool IsPre = App < NumPreApps;
    bool Shifted = Epoch >= ShiftEpoch;
    return (IsPre != Shifted) ? 1.0 : 0.05;
  };

  // Factory corpora.  The stale/online starting filter sees only the
  // pre-shift family; the oracle sees both.
  std::cerr << "tracing " << PreFamily << " + " << PostFamily
            << " factory corpora (cache-served when warm)...\n";
  std::vector<BenchmarkRun> Runs =
      Engine.generateSuiteData(appSuite(Apps), Model);

  // Both families labeled in one call: the pre-shift runs come first.
  std::vector<Dataset> Labeled = Engine.labelSuite(Runs, Threshold);
  Dataset PreSet("pre");
  for (size_t I = 0; I != NumPreApps; ++I)
    PreSet.append(Labeled[I]);
  Dataset BothSet("both");
  for (const Dataset &D : Labeled)
    BothSet.append(D);

  RuleSet StaleRules = Ripper().train(PreSet, Pool);
  RuleSet OracleRules = Ripper().train(BothSet, Pool);

  std::vector<BlockRecord> SeedCorpus;
  for (size_t I = 0; I != NumPreApps; ++I)
    SeedCorpus.insert(SeedCorpus.end(), Runs[I].Records.begin(),
                      Runs[I].Records.end());

  std::cout << "Online adaptation after a workload shift ("
            << PreFamily << " -> " << PostFamily << " at epoch "
            << ShiftEpoch << " of " << Epochs << ", t = "
            << formatTrimmed(Threshold) << ", retrain every "
            << Cfg.RetrainEvery << " ticks)\n";

  // The three variants over the bit-identical drifting stream.
  std::vector<Variant> Variants(3);
  Variants[0].Name = "static";
  Variants[0].Run = runMultiAppComparison(Apps, Programs, Model, Cfg,
                                          StaleRules, Pool, Drift);
  {
    ServiceConfig OnlineCfg = Cfg;
    OnlineCfg.Online = true;
    Variants[1].Name = "online";
    Variants[1].Run =
        runMultiAppComparison(Apps, Programs, Model, OnlineCfg, StaleRules,
                              Pool, Drift, SeedCorpus);
  }
  Variants[2].Name = "oracle";
  Variants[2].Run = runMultiAppComparison(Apps, Programs, Model, Cfg,
                                          OracleRules, Pool, Drift);

  // Alignment proof before any number is quoted: the Always side is
  // filter-independent, so all three must agree bit-for-bit, and every
  // Filtered side must drain the same (epoch, method) sequence.
  const ServiceStats &Always = Variants[0].Run.Always.Total;
  for (const Variant &V : Variants) {
    if (!(V.Run.Always.Total == Always)) {
      std::cerr << "error: Always-side stats diverged across variants "
                   "(determinism bug)\n";
      return 1;
    }
    if (!sameDrainSequence(V.Run.Filtered.Total, Always)) {
      std::cerr << "error: drain sequences diverged across policies "
                   "(alignment bug)\n";
      return 1;
    }
  }

  const double AlwaysBenefit = Always.BaselineAppTime - Always.AppTime;
  const uint64_t AlwaysPostWork = postShiftWork(Always, ShiftEpoch);
  for (Variant &V : Variants) {
    const ServiceStats &St = V.Run.Filtered.Total;
    V.Benefit = St.BaselineAppTime - St.AppTime;
    V.Retention = safeRatio(V.Benefit, AlwaysBenefit);
    V.PostWork = postShiftWork(St, ShiftEpoch);
  }

  const ServiceStats &Online = Variants[1].Run.Filtered.Total;
  TablePrinter T({"Filter", "Retention", "Post-shift work vs LS",
                  "Retrains", "Final version"});
  T.addRow({"always-LS", formatPercent(1.0, 1), formatPercent(1.0, 1), "-",
            "-"});
  for (const Variant &V : Variants) {
    const ServiceStats &St = V.Run.Filtered.Total;
    T.addRow({V.Name, formatPercent(V.Retention, 1),
              formatPercent(safeRatio(static_cast<double>(V.PostWork),
                                      static_cast<double>(AlwaysPostWork)),
                            1),
              St.Retrains ? std::to_string(St.Retrains) : "-",
              St.FinalFilterVersion ? "v" + std::to_string(St.FinalFilterVersion)
                                    : "-"});
  }
  T.print(std::cout);

  // The headline: how much of the benefit the stale filter forfeited did
  // online training win back?
  const double Lost = Variants[2].Benefit - Variants[0].Benefit;
  const double Recovered =
      safeRatio(Variants[1].Benefit - Variants[0].Benefit, Lost);
  const double StaticGap = Variants[2].Retention - Variants[0].Retention;

  std::cout << "\nstale filter forfeits "
            << formatPercent(StaticGap, 1)
            << " of the ceiling's retention after the shift; online "
               "training recovers " << formatPercent(Recovered, 1)
            << " of the forfeited benefit over " << Online.Retrains
            << " retrains\n";

  const bool ShiftHurts = StaticGap >= 0.05;
  const bool OnlineRecovers = Recovered >= 0.5;
  std::cout << "gate: shift costs the static filter >= 5% retention: "
            << (ShiftHurts ? "yes" : "NO")
            << "; online recovers >= 50% of it: "
            << (OnlineRecovers ? "yes" : "NO") << '\n';

  std::ostringstream OS;
  OS << "{\n  \"bench\": \"online_adapt\",\n"
     << "  \"pre_family\": \"" << PreFamily << "\",\n"
     << "  \"post_family\": \"" << PostFamily << "\",\n"
     << "  \"threshold\": " << formatTrimmed(Threshold) << ",\n"
     << "  \"invocations\": " << Cfg.Invocations << ",\n"
     << "  \"shift_epoch\": " << ShiftEpoch << ",\n"
     << "  \"retrain_every\": " << Cfg.RetrainEvery << ",\n"
     << "  \"always_benefit\": " << AlwaysBenefit << ",\n"
     << "  \"variants\": [\n";
  for (size_t I = 0; I != Variants.size(); ++I) {
    const Variant &V = Variants[I];
    const ServiceStats &St = V.Run.Filtered.Total;
    OS << "    {\"name\": \"" << V.Name << "\", \"benefit\": " << V.Benefit
       << ", \"retention\": " << V.Retention
       << ", \"post_shift_work\": " << V.PostWork
       << ", \"retrains\": " << St.Retrains
       << ", \"final_version\": " << St.FinalFilterVersion
       << ", \"corpus_records\": " << St.CorpusRecords << "}"
       << (I + 1 == Variants.size() ? "\n" : ",\n");
  }
  OS << "  ],\n"
     << "  \"post_shift_work_always\": " << AlwaysPostWork << ",\n"
     << "  \"static_retention_gap\": " << StaticGap << ",\n"
     << "  \"recovered_fraction\": " << Recovered << ",\n"
     << "  \"gate_passed\": "
     << ((ShiftHurts && OnlineRecovers) ? "true" : "false") << "\n}\n";

  std::string OutPath = benchOutPath(*CL, "BENCH_online_adapt.json");
  if (!writeBenchJson(OutPath, OS.str()))
    return 1;
  return (ShiftHurts && OnlineRecovers) ? 0 : 1;
}
