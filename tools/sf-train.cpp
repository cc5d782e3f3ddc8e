//===- tools/sf-train.cpp - Induce a filter from traces ---------------------===//
//
// Labels one or more traces (written by sf-trace, CSV or SFTB1 binary --
// auto-detected per file) at a threshold, induces a filter with RIPPER,
// prints it with coverage counts, and optionally serializes it for
// installation in the compiler -- the paper's offline "at the factory"
// procedure end to end.
//
// Usage:
//   sf-train [TRACE ...] [--workload FAMILY[,FAMILY...]] [--threshold T]
//            [--out RULES.txt] [--model ppc7410|ppc970|simple-scalar]
//            [--jobs N] [--corpus-dir DIR | --no-cache]
//
// Training data comes from trace files, from --workload, or both:
// --workload traces every benchmark of the named families itself
// (corpus-cache-served when warm) and appends them after the files, so
// "sf-train --workload specjvm98,serverloop" is the factory procedure
// for a mixed deployment with no intermediate trace files.
//
// Every source is one run: the files in command-line order, then the
// --workload benchmarks.  The runs are perturbed (--noise) and labeled
// together, onto one rank table, exactly as sf-report labels a suite.
// --jobs N reads and labels the traces on N workers and fans the RIPPER
// grow phase's per-feature candidate scans across the same pool; runs
// are merged in order and the learner reduces its argmax in feature
// order, so the induced filter is byte-identical at any N.
//
// --from-registry DIR inspects a filter lineage persisted by
// `sf-serve --online --registry DIR` instead of training: it lists every
// version's provenance (parent, trigger tick, corpus size) and prints the
// selected version's rules (--filter-version N; default newest).  --out
// exports that version as a plain rules file, ready for --rules in any
// tool.  Incompatible with trace files and --workload (the registry IS
// the training provenance).
//
//===----------------------------------------------------------------------===//

#include "analysis/RuleAnalysis.h"
#include "io/FilterRegistry.h"
#include "io/TraceStore.h"
#include "ml/Metrics.h"
#include "ml/Ripper.h"
#include "ml/Serialization.h"
#include "support/CommandLine.h"
#include "support/TaskPool.h"

#include "EngineOption.h"
#include "ModelOption.h"
#include "NoiseOption.h"
#include "RulesOption.h"
#include "VersionOption.h"
#include "WorkloadOption.h"

#include <iostream>

using namespace schedfilter;

static void printUsage(std::ostream &OS) {
  OS << "usage: sf-train [TRACE ...] [--workload FAMILY[,FAMILY...]]\n"
        "                [--threshold T] [--out RULES.txt]\n"
        "                [--model ppc7410|ppc970|simple-scalar]\n"
        "                [--jobs N] [--corpus-dir DIR | --no-cache]\n"
        "                [--noise SRC:PARAM[,...]] [--noise-seed N]\n"
        "       sf-train --from-registry DIR [--filter-version N]\n"
        "                [--out RULES.txt]\n"
        "       sf-train --help | --version\n";
}

static int usage() {
  printUsage(std::cerr);
  return 1;
}

/// The --from-registry mode: list a persisted lineage's provenance
/// (stderr), print the selected version's rules (stdout), optionally
/// export with --out.  No training happens here.
static int inspectRegistry(const CommandLine &CL) {
  if (!CL.positional().empty() || CL.has("workload")) {
    std::cerr << "error: --from-registry is incompatible with trace files "
                 "and --workload (the registry is the training "
                 "provenance)\n";
    return 1;
  }
  std::string Dir = CL.get("from-registry");
  FilterRegistry Registry(Dir);
  std::vector<uint32_t> Versions = Registry.listVersions();
  if (Versions.empty()) {
    std::cerr << "error: no filter versions found in '" << Dir << "'\n";
    return 1;
  }

  std::optional<uint64_t> Selected =
      parseCountOption(CL, "filter-version", Versions.back(), 1, 0xFFFFFFFFull);
  if (!Selected)
    return 1;
  uint32_t Want = static_cast<uint32_t>(*Selected);

  // Lineage listing: every version's provenance, loaded and validated
  // (a corrupt entry fails the listing -- never silently skipped).
  std::cerr << "registry " << Dir << ": " << Versions.size()
            << " versions\n";
  std::optional<RegistryEntry> Chosen;
  for (uint32_t V : Versions) {
    ParseResult<RegistryEntry> E = Registry.load(V);
    if (!E) {
      std::cerr << "error: " << E.error().str() << '\n';
      return 1;
    }
    std::cerr << "  v" << E->Meta.Version << " <- v" << E->Meta.ParentVersion
              << ": trigger tick " << E->Meta.TriggerTick << ", corpus "
              << E->Meta.CorpusRecords << " records, t = "
              << E->Meta.ThresholdPct << ", " << E->Rules.size()
              << " rules (model " << E->Meta.Model << ", workload "
              << E->Meta.Workload << ")\n";
    if (V == Want)
      Chosen = std::move(*E);
  }
  if (!Chosen) {
    std::cerr << "error: version " << Want << " not found in '" << Dir
              << "'\n";
    return 1;
  }

  std::cout << Chosen->Rules.toString();

  std::string Out = CL.get("out");
  if (!Out.empty()) {
    if (!writeRulesFile(Out, Chosen->Rules))
      return 1;
    std::cerr << "\nwrote v" << Chosen->Meta.Version << " to " << Out << '\n';
  }
  return 0;
}

int main(int argc, char **argv) {
  std::optional<CommandLine> CL = parseCommandLine(
      argc, argv, {"help", "version", "no-cache"},
      {"from-registry", "filter-version", "workload", "threshold", "out",
       "model", "jobs", "corpus-dir", "noise", "noise-seed"},
      Positionals::Allowed);
  if (!CL)
    return 1;
  if (handleInfoOptions(*CL, "sf-train", printUsage))
    return 0;
  if (CL->has("from-registry"))
    return inspectRegistry(*CL);
  if (CL->has("filter-version")) {
    std::cerr << "error: --filter-version only applies with "
                 "--from-registry\n";
    return 1;
  }
  std::optional<WorkloadMix> Mix = parseWorkloadOption(*CL);
  if (!Mix)
    return 1;
  if (CL->positional().empty() && Mix->empty())
    return usage();

  std::optional<double> Threshold = parseThresholdOption(*CL);
  if (!Threshold)
    return 1;
  std::optional<MachineModel> Model = parseModelOption(*CL);
  if (!Model)
    return 1;
  std::optional<EngineHandle> Handle = parseEngineOptions(*CL);
  if (!Handle)
    return 1;
  std::optional<NoiseStack> Noise = parseNoiseOption(*CL);
  if (!Noise)
    return 1;
  ExperimentEngine &Engine = **Handle;
  TaskPool &Pool = Engine.pool();

  // One run per source, numbered by position: the files, then the
  // --workload benchmarks.  The position is the run's noise lane index.
  const std::vector<std::string> &Paths = CL->positional();
  std::vector<BenchmarkRun> Runs(Paths.size());
  std::vector<std::string> Errors(Paths.size());
  Pool.parallelFor(Paths.size(), [&](size_t I) {
    ParseResult<std::vector<BlockRecord>> Records = readTraceFile(Paths[I]);
    if (!Records) {
      const ParseError &E = Records.error();
      Errors[I] = "error: " + Paths[I] +
                  (E.Line ? ":" + std::to_string(E.Line) : "") + ": " +
                  E.Message;
      return;
    }
    Runs[I].Name = Paths[I];
    Runs[I].Records = std::move(*Records);
  });
  for (const std::string &E : Errors)
    if (!E.empty()) {
      std::cerr << E << '\n';
      return 1;
    }

  // --workload: trace (or cache-load) each named family, in suite order.
  if (!Mix->empty()) {
    std::vector<BenchmarkSpec> Suite = appSuite(expandWorkloadMix(*Mix));
    std::cerr << "tracing " << Suite.size() << " benchmarks from --workload "
              << formatWorkloadMix(*Mix)
              << " (cache-served when warm)...\n";
    for (BenchmarkRun &Run : Engine.generateSuiteData(Suite, *Model))
      Runs.push_back(std::move(Run));
  }

  Noise->perturbSuite(Runs, Pool);
  Dataset Train("train");
  size_t TotalBlocks = 0;
  for (const BenchmarkRun &Run : Runs)
    TotalBlocks += Run.Records.size();
  for (const Dataset &D : Noise->labelSuite(Runs, *Threshold, Pool))
    Train.append(D);

  std::cerr << "labeled " << Train.size() << " of " << TotalBlocks
            << " blocks at t = " << *Threshold << " ("
            << Train.countLabel(Label::LS) << " LS, "
            << Train.countLabel(Label::NS) << " NS)\n";

  RuleSet Filter = Ripper().train(Train, Pool);

  std::cerr << "training error "
            << errorRatePercent(Filter, Train) << "%\n\n";
  std::cout << Filter.toString();

  // Surface analyzer findings on the induced filter (dead/shadowed rules,
  // redundant conditions, thresholds outside the training range) before
  // anyone installs it; sf-lint gives the same report for saved files.
  RuleAnalysis Lint = analyzeRuleSet(Filter, &Train);
  if (!Lint.clean())
    printFindings(Lint, std::cerr);

  std::string Out = CL->get("out");
  if (!Out.empty()) {
    if (!writeRulesFile(Out, Filter))
      return 1;
    std::cerr << "\nwrote filter to " << Out << '\n';
  }
  return 0;
}
