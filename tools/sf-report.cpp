//===- tools/sf-report.cpp - One-shot reproduction report -------------------===//
//
// Runs the paper's whole evaluation in one command and prints every table
// and figure in order (Tables 3-6, Figures 1-4), plus the headline
// benefit/effort frontier, for the chosen suite.  This is the one program
// that prints the paper's tables: Figure 1 is the t = 0 column of the
// Figure 2 sweep, and Figure 3 is `sf-report --suite fp`.
//
// Paper reference values (SPECjvm98; the shapes are what reproduce, the
// synthetic suite's absolute numbers differ):
//   Table 3   geomean LOOCV error 7.86% at t=0, falling to 0.06% at t=50.
//   Table 4   geomean predicted time 91.85% of NS at t=0, 99.64% at t=50.
//   Table 5   LS instances fall 8173 -> 49 over t=0..50; NS constant.
//   Figure 1  L/N effort 38% of LS; app time LS 0.977, L/N 0.979 of NS.
//   Figure 2  effort geomean falls from ~0.39 at t=0 to ~0.06 at t=50.
//   Figure 3  on the FP suite L/N keeps nearly all of LS's benefit while
//             effort falls less than on SPECjvm98.
//
// Usage:
//   sf-report [--suite FAMILY] [--model ppc7410|ppc970|simple-scalar]
//             [--fig4-holdout NAME] [--jobs N] [--corpus-dir DIR | --no-cache]
//
// --suite accepts any registered workload family (specjvm98 by default;
// fp, serverloop, fpkernel, ptrchase, ... -- see sf-serve --list).
//
// --jobs N fans the tracing, the threshold sweep and the Figure 4
// training out over N workers.  Stdout is bit-for-bit identical at any N
// -- and whether the suite was traced fresh or loaded from a warm corpus
// cache.  The measured wall-time effort (its Figure (a) and the
// headline's wall column) varies run to run, so it goes to stderr with
// the progress lines.
//
//===----------------------------------------------------------------------===//

#include "harness/ParallelExperiments.h"
#include "harness/TableRender.h"
#include "support/CommandLine.h"

#include "EngineOption.h"
#include "ModelOption.h"
#include "VersionOption.h"
#include "WorkloadOption.h"

#include <iostream>

using namespace schedfilter;

static void printUsage(std::ostream &OS) {
  OS << "usage: sf-report [--suite FAMILY]"
        " [--model ppc7410|ppc970|simple-scalar]\n"
        "                 [--fig4-holdout NAME] [--jobs N]"
        " [--corpus-dir DIR | --no-cache]\n"
        "       sf-report --help | --version\n";
}

int main(int argc, char **argv) {
  std::optional<CommandLine> CL = parseCommandLine(
      argc, argv, {"help", "version", "no-cache"},
      {"suite", "model", "fig4-holdout", "jobs", "corpus-dir"});
  if (!CL)
    return 1;
  if (handleInfoOptions(*CL, "sf-report", printUsage))
    return 0;
  std::string SuiteName = CL->get("suite", "specjvm98");
  const WorkloadFamily *Family = findWorkloadFamily(SuiteName);
  if (!Family) {
    std::cerr << "error: unknown suite: got '" << SuiteName
              << "', known: " << knownFamilyNames() << '\n';
    return 1;
  }
  std::vector<BenchmarkSpec> Suite = Family->makeBenchmarkSuite();
  // Figure 4 holds out one benchmark of the suite; any other name would
  // hold out nothing.
  std::string Holdout = CL->get("fig4-holdout", Suite.back().Name);
  std::string Names;
  bool Known = false;
  for (const BenchmarkSpec &S : Suite) {
    Names += (Names.empty() ? "" : ", ") + S.Name;
    Known = Known || S.Name == Holdout;
  }
  if (!Known) {
    std::cerr << "error: unknown --fig4-holdout: got '" << Holdout << "', "
              << SuiteName << " has: " << Names << '\n';
    return 1;
  }

  std::optional<MachineModel> Model = parseModelOption(*CL);
  if (!Model)
    return 1;
  std::optional<EngineHandle> Handle = parseEngineOptions(*CL);
  if (!Handle)
    return 1;
  ExperimentEngine &Engine = **Handle;

  std::cerr << "preparing " << Suite.size() << " benchmarks on "
            << Model->getName() << " (" << Engine.jobs() << " job"
            << (Engine.jobs() == 1 ? "" : "s")
            << "; tracing on cache miss)...\n";
  std::vector<BenchmarkRun> Runs = Engine.generateSuiteData(Suite, *Model);
  if (CorpusCache *C = Engine.corpusCache()) {
    CorpusCache::Stats St = C->stats();
    std::cerr << "corpus cache: " << St.Hits << " hit"
              << (St.Hits == 1 ? "" : "s") << ", " << St.Misses << " miss"
              << (St.Misses == 1 ? "" : "es") << " (" << C->directory()
              << ")\n";
  }
  std::cerr << "running the threshold sweep (11 x LOOCV RIPPER)...\n";
  std::vector<ThresholdResult> Sweep =
      Engine.runThresholdSweep(Runs, paperThresholds(), ripperLearner());

  renderTable3(Sweep, std::cout);
  std::cout << '\n';
  renderTable4(Sweep, std::cout);
  std::cout << '\n';
  renderTable5(Sweep, std::cout);
  std::cout << '\n';
  renderTable6(Sweep, std::cout);
  std::cout << '\n';
  renderEffortFigure(Sweep, /*UseWallTime=*/false, std::cout);
  std::cout << '\n';
  renderAppTimeFigure(Sweep, std::cout);
  std::cout << '\n';
  renderHeadline(Sweep, /*UseWallTime=*/false, std::cout);
  std::cout << '\n';
  std::cerr << '\n';
  renderEffortFigure(Sweep, /*UseWallTime=*/true, std::cerr);
  std::cerr << '\n';
  renderHeadline(Sweep, /*UseWallTime=*/true, std::cerr);
  std::cerr << '\n';

  // Figure 4: train on all but one benchmark at t = 0.
  std::vector<Dataset> Labeled = Engine.labelSuite(Runs, 0.0);
  Dataset Train("all-minus-" + Holdout);
  for (const Dataset &D : Labeled)
    if (D.getName() != Holdout)
      Train.append(D);
  RuleSet Filter = ripperLearner(Engine.pool())(Train);
  renderInducedFilter(Filter, std::cout);
  return 0;
}
