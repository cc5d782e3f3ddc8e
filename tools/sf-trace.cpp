//===- tools/sf-trace.cpp - Emit an instrumented-scheduler trace ------------===//
//
// Generates one benchmark's program, runs the instrumented scheduler over
// every block (§2.2), and writes the raw trace: per block, the Table 1
// features, the simulated cost without and with list scheduling, and the
// profile weight.  The trace feeds sf-train.
//
// Two formats (io/TraceStore.h): CSV (human readable, the default) and
// the SFTB1 binary interchange format; both round-trip records exactly
// and every reader auto-detects.  With a warm corpus cache the records
// are loaded instead of retraced.
//
// Usage:
//   sf-trace --benchmark mpegaudio [--model ppc7410|ppc970|simple-scalar]
//            [--out FILE] [--format csv|binary] [--jobs N]
//            [--corpus-dir DIR | --no-cache]
//   sf-trace --workload specjvm98,serverloop [...]
//   sf-trace --list
//
// --format defaults to csv, or binary when --out ends in ".sftb".
// --workload traces every benchmark of the named families (any registered
// workload family; see --list) and concatenates the records in suite
// order -- one trace covering the whole mix, ready for sf-train.
//
//===----------------------------------------------------------------------===//

#include "harness/ParallelExperiments.h"
#include "io/TraceStore.h"
#include "support/CommandLine.h"

#include "EngineOption.h"
#include "ModelOption.h"
#include "NoiseOption.h"
#include "VersionOption.h"
#include "WorkloadOption.h"

#include <fstream>
#include <iostream>

using namespace schedfilter;

static void printUsage(std::ostream &OS) {
  OS << "usage: sf-trace --benchmark NAME"
        " [--model ppc7410|ppc970|simple-scalar] [--out FILE]\n"
        "                [--format csv|binary] [--jobs N]"
        " [--corpus-dir DIR | --no-cache]\n"
        "                [--noise SRC:PARAM[,...]] [--noise-seed N]\n"
        "       sf-trace --workload FAMILY[,FAMILY...] [...]\n"
        "       sf-trace --list\n"
        "       sf-trace --help | --version\n";
}

static int usage() {
  printUsage(std::cerr);
  return 1;
}

int main(int argc, char **argv) {
  std::optional<CommandLine> CL = parseCommandLine(
      argc, argv, {"help", "version", "list", "no-cache"},
      {"benchmark", "workload", "model", "out", "format", "jobs",
       "corpus-dir", "noise", "noise-seed"});
  if (!CL)
    return 1;
  if (handleInfoOptions(*CL, "sf-trace", printUsage))
    return 0;

  std::optional<BenchmarkSelection> Bench = parseBenchmarkOption(*CL);
  if (!Bench)
    return 1;
  std::optional<WorkloadMix> Mix = parseWorkloadOption(*CL);
  if (!Mix)
    return 1;
  if (Bench->Present == !Mix->empty()) {
    std::cerr << "error: give exactly one of --benchmark or --workload\n";
    return usage();
  }
  std::vector<BenchmarkSpec> Suite = Bench->Present
                                         ? std::vector<BenchmarkSpec>{*Bench->Spec}
                                         : workloadMixSuite(*Mix);

  std::optional<MachineModel> Model = parseModelOption(*CL);
  if (!Model)
    return 1;
  std::optional<EngineHandle> Handle = parseEngineOptions(*CL);
  if (!Handle)
    return 1;

  std::string Out = CL->get("out");
  std::string FormatName = CL->get("format");
  TraceFormat Format = TraceFormat::Csv;
  if (FormatName.empty()) {
    if (Out.size() >= 5 && Out.compare(Out.size() - 5, 5, ".sftb") == 0)
      Format = TraceFormat::Binary;
  } else if (FormatName == "csv") {
    Format = TraceFormat::Csv;
  } else if (FormatName == "binary") {
    Format = TraceFormat::Binary;
  } else {
    std::cerr << "error: --format expects 'csv' or 'binary' (got '"
              << FormatName << "')\n";
    return 1;
  }

  std::optional<NoiseStack> Noise = parseNoiseOption(*CL);
  if (!Noise)
    return 1;

  ExperimentEngine &Engine = **Handle;
  std::vector<BenchmarkRun> Runs = Engine.generateSuiteData(Suite, *Model);
  // Perturbation applies downstream of the corpus cache, so noisy runs
  // never pollute cached corpora and warm/cold traces stay identical.
  Noise->perturbSuite(Runs, Engine.pool());
  std::vector<BlockRecord> Records;
  for (BenchmarkRun &Run : Runs) {
    if (Records.empty())
      Records = std::move(Run.Records);
    else
      Records.insert(Records.end(), Run.Records.begin(), Run.Records.end());
  }

  // A trace that was silently cut short by a full disk poisons every
  // downstream training run, so both sinks are flushed and checked.
  if (Out.empty()) {
    writeTrace(Records, std::cout, Format);
    std::cout.flush();
    if (!std::cout) {
      std::cerr << "error: failed writing trace to stdout\n";
      return 1;
    }
  } else {
    std::ofstream OS(Out, std::ios::binary | std::ios::trunc);
    if (!OS) {
      std::cerr << "error: cannot open '" << Out << "' for writing\n";
      return 1;
    }
    writeTrace(Records, OS, Format);
    OS.flush();
    if (!OS) {
      std::cerr << "error: failed writing trace to '" << Out
                << "' (disk full or device error)\n";
      return 1;
    }
    std::cerr << "wrote " << Records.size() << " block records to " << Out
              << (Format == TraceFormat::Binary ? " (SFTB1)" : " (CSV)")
              << '\n';
  }
  return 0;
}
