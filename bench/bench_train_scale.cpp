//===- bench/bench_train_scale.cpp - Training throughput across corpus tiers -===//
//
// Tracks the payoff of the indexed RIPPER training engine (per-feature
// value ranks, rank-histogram condition sweeps -- see ml/Ripper.cpp) the
// way bench_micro_costs tracks the SchedContext arena: times the
// *reference* trainer (the original sort-per-condition implementation,
// kept verbatim in tests/ReferenceRipper.h) against the indexed engine,
// serial and pooled, over growing tiers of the repository's real training
// corpus, verifies the induced filters are byte-identical along the way,
// and writes the instances/sec comparison to BENCH_train_scale.json so
// the speedup is tracked across PRs.
//
// The corpus is the paper's own: every SPECjvm98 stand-in block traced
// through the instrumented scheduler and labeled at t = 0 (8 827
// instances; corpus-cache-served when warm).  Tiers replicate it 1x/2x/4x
// -- training cost grows superlinearly because richer corpora induce
// more rules with more conditions, which is exactly the regime that
// separates the engines: the reference re-sorts every feature column for
// every candidate condition, the indexed engine counts the covered
// instances into per-rank histograms.
//
// Usage:
//   bench_train_scale [--quick] [--jobs N] [--corpus-dir DIR | --no-cache]
//                     [--out PATH]
//
// --quick drops the largest tier for CI smoke runs.  Everything printed
// except the timings is deterministic.
//
//===----------------------------------------------------------------------===//

#include "harness/ParallelExperiments.h"
#include "ml/Ripper.h"
#include "support/Timer.h"

#include "BenchJson.h"
#include "EngineOption.h"
#include "ReferenceRipper.h"
#include "RuleSetIdentity.h"

#include <iostream>
#include <sstream>
#include <vector>

using namespace schedfilter;

namespace {

/// Times one \p Train call and returns instances/sec; the trained filter
/// goes to \p Out for the identity check.
template <typename Fn>
double throughput(const Dataset &D, const Fn &Train, RuleSet &Out) {
  AccumulatingTimer T;
  T.start();
  Out = Train();
  T.stop();
  return static_cast<double>(D.size()) / T.seconds();
}

} // namespace

int main(int argc, char **argv) {
  CommandLine CL(argc, argv);
  std::optional<EngineHandle> Handle = parseEngineOptions(CL);
  if (!Handle)
    return 1;
  ExperimentEngine &Engine = **Handle;
  bool Quick = CL.has("quick");

  std::cerr << "labeling the SPECjvm98 suite at t = 0 (tracing on cache "
               "miss)...\n";
  std::vector<BenchmarkRun> Runs =
      Engine.generateSuiteData(specjvm98Suite(), MachineModel::ppc7410());
  std::vector<Dataset> Labeled = Engine.labelSuite(Runs, 0.0);
  Dataset Suite("suite");
  for (const Dataset &D : Labeled)
    Suite.append(D);

  const std::vector<int> Tiers = Quick ? std::vector<int>{1, 2}
                                       : std::vector<int>{1, 2, 4};

  std::string OutPath = benchOutPath(CL, "out", "BENCH_train_scale.json");
  std::ostringstream OS;
  OS << "{\n  \"corpus\": \"specjvm98 @ t=0\",\n  \"base_instances\": "
     << Suite.size() << ",\n  \"jobs\": " << Engine.jobs()
     << ",\n  \"tiers\": [\n";

  double LargestTierSpeedup = 0.0;
  for (size_t TI = 0; TI != Tiers.size(); ++TI) {
    Dataset Train("tier-" + std::to_string(Tiers[TI]));
    for (int R = 0; R != Tiers[TI]; ++R)
      Train.append(Suite);

    RuleSet FromRef(Label::NS), FromIndexed(Label::NS), FromPooled(Label::NS);
    double RefRate = throughput(
        Train, [&] { return reference::trainReference(Train); }, FromRef);
    double IndexedRate = throughput(
        Train, [&] { return Ripper().train(Train); }, FromIndexed);
    double PooledRate = throughput(
        Train, [&] { return Ripper().train(Train, Engine.pool()); },
        FromPooled);

    // The speedup only counts if the engines agree bit-for-bit.
    if (!identicalRuleSets(FromIndexed, FromRef) ||
        !identicalRuleSets(FromPooled, FromRef)) {
      std::cerr << "error: engines diverged on tier " << Tiers[TI]
                << "x (run ripper_engine_test)\n";
      return 1;
    }

    double Speedup = IndexedRate / RefRate;
    double PooledSpeedup = PooledRate / RefRate;
    LargestTierSpeedup = Speedup;

    OS << "    {\"replication\": " << Tiers[TI]
       << ", \"instances\": " << Train.size()
       << ", \"rules\": " << FromRef.size()
       << ", \"conditions\": " << FromRef.totalConditions()
       << ", \"reference_inst_per_sec\": " << static_cast<uint64_t>(RefRate)
       << ", \"indexed_inst_per_sec\": " << static_cast<uint64_t>(IndexedRate)
       << ", \"indexed_jobs" << Engine.jobs()
       << "_inst_per_sec\": " << static_cast<uint64_t>(PooledRate)
       << ", \"speedup\": " << Speedup
       << ", \"pooled_speedup\": " << PooledSpeedup << "}"
       << (TI + 1 == Tiers.size() ? "\n" : ",\n");

    std::cout << "tier " << Tiers[TI] << "x = " << Train.size()
              << " instances (" << FromRef.size() << " rules, "
              << FromRef.totalConditions() << " conditions):\n"
              << "  reference:       " << static_cast<uint64_t>(RefRate)
              << " inst/sec\n"
              << "  indexed:         " << static_cast<uint64_t>(IndexedRate)
              << " inst/sec  (" << Speedup << "x)\n"
              << "  indexed, jobs=" << Engine.jobs() << ": "
              << static_cast<uint64_t>(PooledRate) << " inst/sec  ("
              << PooledSpeedup << "x)\n";
  }

  OS << "  ],\n  \"largest_tier_speedup\": " << LargestTierSpeedup << "\n}\n";
  if (!writeBenchJson(OutPath, OS.str()))
    return 1;
  std::cout << "largest tier speedup " << LargestTierSpeedup << "x\n";
  return 0;
}
