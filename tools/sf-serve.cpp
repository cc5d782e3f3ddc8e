//===- tools/sf-serve.cpp - Serve a method-invocation stream ----------------===//
//
// The runtime half of the reproduction: replay a benchmark's method
// invocation stream through the MultiAppService as its lone app (baseline
// tier, sampling based hotness counters, bounded recompilation queue,
// optimizing tier)
// and report what the induced filter recoups once scheduling cost is paid
// at run time -- the regime of the paper's host JIT (§3.1).
//
// The service runs the identical stream twice: optimizing tier = LS
// (schedule every block of every promoted method) and optimizing tier =
// L/N (the filter decides per block).  Promotion dynamics are identical
// in both runs, so the work delta is purely the filter's doing.
//
// Everything printed to stdout is deterministic: bit-identical at any
// --jobs value and with a cold or warm corpus cache.  Wall-clock
// throughput goes to stderr.
//
// Usage:
//   sf-serve --benchmark NAME [--rules RULES.txt | --threshold T]
//            [--model ppc7410|ppc970|simple-scalar]
//            [--invocations N] [--hot-threshold N] [--queue-cap N]
//            [--sample-every N] [--epoch-len N] [--drain N]
//            [--online [--retrain-every N] [--registry DIR]]
//            [--jobs N] [--corpus-dir DIR | --no-cache]
//   sf-serve --workload FAMILY[:WEIGHT][,FAMILY[:WEIGHT]...] [...]
//   sf-serve --list
//   sf-serve --help | --version
//
// Without --rules the filter is trained on the benchmark's own trace at
// --threshold (default 0) -- the self-training upper bound; the trace
// comes from the corpus cache when warm.
//
// --online closes the loop while serving: the optimizing tier traces the
// methods it compiles, the records accumulate, and every --retrain-every
// virtual ticks (default 8192) the filter retrains in the background and
// hot-swaps at the next epoch boundary; the run's swap lineage prints
// after the tables.  --registry DIR persists every installed version as
// an SFFR1 file (inspect/export with sf-train --from-registry).  All of
// it is deterministic: the swap sequence, the stats, and the registry
// bytes are identical at any --jobs and cache temperature.  --online is
// incompatible with --rules (a fixed rules file cannot hot-swap).
//
// --workload serves an interleaved multi-app stream through the same
// engine: every benchmark of each named family becomes one app, the
// family weight is its share of the interleave, and one shared service
// (one clock, one hotness sampler, one bounded queue) serves them all --
// the multi-tenant regime of a server JIT.  Per-app tier residency and
// recouped work print alongside the aggregate; without --rules the
// filter self-trains on the mix's own traces.  Output is bit-identical
// at any --jobs and cache temperature, like the single-app mode.
//
//===----------------------------------------------------------------------===//

#include "analysis/RuleAnalysis.h"
#include "harness/ParallelExperiments.h"
#include "io/FilterRegistry.h"
#include "ml/Serialization.h"
#include "runtime/MultiAppService.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"

#include "EngineOption.h"
#include "ModelOption.h"
#include "RulesOption.h"
#include "VersionOption.h"
#include "WorkloadOption.h"

#include <iostream>

using namespace schedfilter;

namespace {

void printUsage(std::ostream &OS) {
  OS << "usage: sf-serve --benchmark NAME [--rules RULES.txt |"
        " --threshold T]\n"
        "                [--model ppc7410|ppc970|simple-scalar]\n"
        "                [--invocations N] [--hot-threshold N]"
        " [--queue-cap N]\n"
        "                [--sample-every N] [--epoch-len N] [--drain N]\n"
        "                [--online [--retrain-every N] [--registry DIR]]\n"
        "                [--jobs N] [--corpus-dir DIR | --no-cache]\n"
        "       sf-serve --workload FAMILY[:WEIGHT][,...] [...]\n"
        "       sf-serve --list\n"
        "       sf-serve --help | --version\n";
}

std::string formatKiloUnits(uint64_t Units) {
  return formatDouble(static_cast<double>(Units) / 1e3, 1) + "k";
}

/// Resolves --rules when present: the shared checked-load-with-lint
/// (tools/RulesOption.h) plus this tool's conflict checks.  Returns false
/// after a printed diagnostic -- bad file, or --threshold / --online
/// given alongside.
bool loadRulesOption(const CommandLine &CL, RuleSet &Rules, bool &Loaded) {
  Loaded = false;
  std::string RulesPath = CL.get("rules");
  if (RulesPath.empty())
    return true;
  if (CL.has("threshold")) {
    std::cerr << "error: --rules and --threshold are mutually exclusive "
                 "(the threshold labels the self-training trace)\n";
    return false;
  }
  if (CL.has("online")) {
    std::cerr << "error: --rules and --online are mutually exclusive "
                 "(--online self-trains its own v1 filter and adapts it; "
                 "a fixed rules file cannot hot-swap)\n";
    return false;
  }
  std::optional<RuleSetFile> Parsed = loadRulesFileWithLint(RulesPath);
  if (!Parsed)
    return false;
  Rules = std::move(Parsed->Rules);
  Loaded = true;
  return true;
}

/// Resolves --online / --retrain-every / --registry into \p Cfg and
/// \p RegistryDir.  The dependent flags require --online.
bool parseOnlineOptions(const CommandLine &CL, ServiceConfig &Cfg,
                        std::string &RegistryDir) {
  if (!CL.has("online")) {
    if (CL.has("retrain-every") || CL.has("registry")) {
      std::cerr << "error: --retrain-every and --registry require --online\n";
      return false;
    }
    return true;
  }
  Cfg.Online = true;
  std::optional<uint64_t> RetrainEvery =
      parseCountOption(CL, "retrain-every", Cfg.RetrainEvery, 1, 1000000000);
  if (!RetrainEvery)
    return false;
  Cfg.RetrainEvery = *RetrainEvery;
  RegistryDir = CL.get("registry");
  return true;
}

/// The online-mode stdout tail: retrain counters and the run's full swap
/// lineage.  Every field is deterministic -- part of the byte-identical
/// stdout contract at any --jobs and cache temperature.
void printOnlineReport(const ServiceStats &LN) {
  std::cout << "\nonline self-training: " << LN.Retrains << " retrains, "
            << LN.CorpusRecords << " records absorbed, final filter v"
            << LN.FinalFilterVersion << "\n";
  std::cout << "filter lineage (swap sequence):\n";
  for (const ServiceStats::FilterSwapStat &S : LN.Swaps)
    std::cout << "  v" << S.Version << " <- v" << S.ParentVersion
              << " installed epoch " << S.Epoch << " tick " << S.Tick
              << " (trigger tick " << S.TriggerTick << ", corpus "
              << S.CorpusRecords << ", rules " << formatHex64(S.RulesHash)
              << ")\n";
}

/// After a run that persisted a registry: fail loudly if any store
/// failed -- a half-written lineage must not look like success.
bool checkRegistryHealth(const FilterRegistry *Reg) {
  if (!Reg)
    return true;
  FilterRegistry::Stats S = Reg->stats();
  std::cerr << "registry: " << S.Stores << " versions persisted to "
            << Reg->directory() << "\n";
  if (S.StoreFailures) {
    std::cerr << "error: " << S.StoreFailures
              << " registry store(s) failed (disk full or unwritable "
                 "directory?)\n";
    return false;
  }
  return true;
}

/// Resolves the filter (--rules, or self-trained on the apps' own
/// traces), replays the stream under both optimizing-tier policies, and
/// reports.  \p Session names the workload -- the benchmark, or the mix
/// spelling -- in the diagnostics, the registry metadata and the report;
/// \p IsMix selects the per-app report shape.  Everything on stdout is a
/// pure function of (apps, model, config).
int serve(const CommandLine &CL, const std::vector<AppSpec> &Apps,
          const std::string &Session, bool IsMix, const MachineModel &Model,
          ExperimentEngine &Engine, ServiceConfig Cfg,
          const std::string &RegistryDir) {
  RuleSet Rules(Label::NS);
  bool RulesFromFile = false;
  if (!loadRulesOption(CL, Rules, RulesFromFile))
    return 1;

  std::vector<Program> Programs;
  std::vector<BlockRecord> SeedRecords;
  if (RulesFromFile) {
    Programs = generateMixPrograms(Apps);
  } else {
    // Self-train on the apps' own traces (corpus-cache-served when warm):
    // the factory filter for exactly the population this service is about
    // to serve.  Reuse the synthesized programs instead of generating them
    // a second time.
    std::optional<double> Threshold = parseThresholdOption(CL);
    if (!Threshold)
      return 1;
    std::vector<BenchmarkSpec> Suite;
    Suite.reserve(Apps.size());
    for (const AppSpec &A : Apps)
      Suite.push_back(A.Spec);
    std::cerr << "training filter on " << Session << "'s own traces (t = "
              << *Threshold << "; tracing on cache miss)...\n";
    std::vector<BenchmarkRun> Runs = Engine.generateSuiteData(Suite, Model);
    std::vector<Dataset> Labeled = Engine.labelSuite(Runs, *Threshold);
    Dataset Train(Session);
    for (const Dataset &D : Labeled)
      Train.append(D);
    Rules = ripperLearner(Engine.pool())(Train);
    RuleAnalysis Lint = analyzeRuleSet(Rules, &Train);
    if (!Lint.clean())
      printFindings(Lint, std::cerr);
    Cfg.RetrainThreshold = *Threshold;
    Programs.reserve(Runs.size());
    for (BenchmarkRun &Run : Runs) {
      if (Cfg.Online)
        SeedRecords.insert(SeedRecords.end(), Run.Records.begin(),
                           Run.Records.end());
      Programs.push_back(std::move(Run.Prog));
    }
  }

  std::optional<FilterRegistry> Registry;
  if (!RegistryDir.empty())
    Registry.emplace(RegistryDir);

  AccumulatingTimer Wall;
  Wall.start();
  MultiAppComparison Cmp = runMultiAppComparison(
      Apps, Programs, Model, Cfg, Rules, Engine.pool(), nullptr,
      std::move(SeedRecords), Registry ? &*Registry : nullptr, Session,
      Model.getName());
  Wall.stop();
  for (const MultiAppStats *Run : {&Cmp.Always, &Cmp.Filtered})
    if (std::optional<std::string> Broken = checkServiceStats(*Run)) {
      std::cerr << "error: the " << (Run == &Cmp.Always ? "LS" : "L/N")
                << " run broke an accounting identity: " << *Broken << "\n";
      return 1;
    }

  // --- Deterministic report (stdout). ---
  const ServiceStats &LS = Cmp.Always.Total;
  const ServiceStats &LN = Cmp.Filtered.Total;
  if (IsMix) {
    std::cout << "workload mix " << Session << " on " << Model.getName()
              << ": " << Apps.size() << " apps, " << LS.Invocations
              << " invocations interleaved,\nsample every "
              << Cfg.SampleEvery << ", hot threshold " << Cfg.HotThreshold
              << ", queue cap " << Cfg.QueueCap << ", drain "
              << Cfg.DrainPerEpoch << "/epoch, epoch " << Cfg.EpochLen
              << " (" << LS.Epochs << " epochs)\n\n";

    TablePrinter PerApp({"App", "Family", "Invocations", "Optimized inv",
                         "Methods opt", "LS work", "L/N work", "Recouped"});
    for (size_t A = 0; A != Apps.size(); ++A) {
      const ServiceStats &ALS = Cmp.Always.PerApp[A];
      const ServiceStats &ALN = Cmp.Filtered.PerApp[A];
      PerApp.addRow({Cmp.Filtered.AppNames[A], Apps[A].Spec.Family,
                     std::to_string(ALN.Invocations),
                     std::to_string(ALN.OptimizedInvocations),
                     std::to_string(ALN.MethodsOptimized) + "/" +
                         std::to_string(ALN.MethodsTotal),
                     std::to_string(ALS.SchedulingWork),
                     std::to_string(ALN.SchedulingWork),
                     formatPercent(Cmp.PerAppRecoup[A], 1)});
    }
    PerApp.print(std::cout);
    std::cout << "\nrecompilation queue (L/N run, shared): ";
  } else {
    std::cout << Session << " on " << Model.getName() << ": "
              << LS.Invocations << " invocations, sample every "
              << Cfg.SampleEvery << ", hot threshold " << Cfg.HotThreshold
              << ",\nqueue cap " << Cfg.QueueCap << ", drain "
              << Cfg.DrainPerEpoch << "/epoch, epoch " << Cfg.EpochLen
              << " (" << LS.Epochs << " epochs)\n\n";
    std::cout << "tier residency (L/N run): " << LN.BaselineInvocations
              << " baseline / " << LN.OptimizedInvocations
              << " optimized invocations; " << LN.MethodsOptimized << "/"
              << LN.MethodsTotal << " methods optimized\n";
    std::cout << "recompilation queue: ";
  }
  std::cout << "max depth " << LN.MaxQueueDepth << ", mean "
            << formatDouble(LN.MeanQueueDepth, 2) << ", " << LN.Deferred
            << " deferred (backpressure), " << LN.FinalQueueDepth
            << " still queued\n\n";

  TablePrinter T({"Opt tier", "Compiled", "Blocks", "Scheduled",
                  "Work units", "Filter work", "App time vs baseline"});
  for (const ServiceStats *St : {&LS, &LN})
    T.addRow({St == &LS ? "LS" : "L/N", std::to_string(St->CompiledMethods),
              std::to_string(St->BlocksCompiled),
              std::to_string(St->BlocksScheduled),
              std::to_string(St->SchedulingWork),
              std::to_string(St->FilterWork),
              formatDouble(St->AppTime / St->BaselineAppTime, 4)});
  T.print(std::cout);

  std::cout << "\nonline filter decisions (optimizing tier): " << LN.FilterLS
            << " LS, " << LN.FilterNS << " NS\n";
  std::cout << "recouped scheduling work: "
            << formatPercent(Cmp.RecoupedWorkFraction, 1) << " (LS "
            << formatKiloUnits(LS.SchedulingWork) << " units -> L/N "
            << formatKiloUnits(LN.SchedulingWork) << " units)\n";
  if (Cfg.Online)
    printOnlineReport(LN);

  // --- Wall-clock throughput (stderr: varies run to run, backs nothing
  // deterministic). ---
  double Seconds = Wall.seconds();
  double Served = 2.0 * static_cast<double>(LS.Invocations);
  std::cerr << "throughput: " << Served << " invocations served in "
            << formatDouble(Seconds * 1e3, 1) << " ms ("
            << formatDouble(Seconds > 0.0 ? Served / Seconds / 1e6 : 0.0, 2)
            << "M inv/s across both runs)\n";
  return checkRegistryHealth(Registry ? &*Registry : nullptr) ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  std::optional<CommandLine> CL = parseCommandLine(
      argc, argv, {"help", "version", "list", "no-cache", "online"},
      {"benchmark", "workload", "model", "jobs", "corpus-dir", "invocations",
       "hot-threshold", "queue-cap", "sample-every", "epoch-len", "drain",
       "retrain-every", "registry", "rules", "threshold"});
  if (!CL)
    return 1;
  if (handleInfoOptions(*CL, "sf-serve", printUsage))
    return 0;

  std::optional<BenchmarkSelection> Bench = parseBenchmarkOption(*CL);
  if (!Bench)
    return 1;
  std::optional<WorkloadMix> Mix = parseWorkloadOption(*CL);
  if (!Mix)
    return 1;
  if (Bench->Present == !Mix->empty()) {
    std::cerr << "error: give exactly one of --benchmark or --workload\n";
    printUsage(std::cerr);
    return 1;
  }
  std::optional<MachineModel> Model = parseModelOption(*CL);
  if (!Model)
    return 1;
  std::optional<EngineHandle> Handle = parseEngineOptions(*CL);
  if (!Handle)
    return 1;
  ExperimentEngine &Engine = **Handle;

  ServiceConfig Cfg;
  std::optional<uint64_t> Invocations =
      parseCountOption(*CL, "invocations", Cfg.Invocations, 1, 1000000000);
  std::optional<uint64_t> HotThreshold =
      parseCountOption(*CL, "hot-threshold", Cfg.HotThreshold, 1, 1000000);
  std::optional<uint64_t> QueueCap =
      parseCountOption(*CL, "queue-cap", Cfg.QueueCap, 1, 1000000);
  std::optional<uint64_t> SampleEvery =
      parseCountOption(*CL, "sample-every", Cfg.SampleEvery, 1, 1000000);
  std::optional<uint64_t> EpochLen =
      parseCountOption(*CL, "epoch-len", Cfg.EpochLen, 1, 100000000);
  std::optional<uint64_t> Drain =
      parseCountOption(*CL, "drain", Cfg.DrainPerEpoch, 1, 1000000);
  if (!Invocations || !HotThreshold || !QueueCap || !SampleEvery ||
      !EpochLen || !Drain)
    return 1;
  Cfg.Invocations = *Invocations;
  Cfg.HotThreshold = static_cast<uint32_t>(*HotThreshold);
  Cfg.QueueCap = static_cast<uint32_t>(*QueueCap);
  Cfg.SampleEvery = static_cast<uint32_t>(*SampleEvery);
  Cfg.EpochLen = static_cast<uint32_t>(*EpochLen);
  Cfg.DrainPerEpoch = static_cast<uint32_t>(*Drain);

  std::string RegistryDir;
  if (!parseOnlineOptions(*CL, Cfg, RegistryDir))
    return 1;

  // A benchmark is the one-app case of the same engine; its stream seed
  // is the benchmark's own, a mix's is the hash of every app's identity.
  std::vector<AppSpec> Apps;
  std::string Session;
  if (Mix->empty()) {
    Apps = {{*Bench->Spec}};
    Session = Bench->Spec->Name;
    Cfg.StreamSeed = invocationStreamSeed(Bench->Spec->Seed);
  } else {
    Apps = expandWorkloadMix(*Mix);
    Session = formatWorkloadMix(*Mix);
    Cfg.StreamSeed = workloadMixSeed(Apps);
  }
  return serve(*CL, Apps, Session, !Mix->empty(), *Model, Engine, Cfg,
               RegistryDir);
}
