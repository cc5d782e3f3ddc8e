//===- bench/bench_micro_costs.cpp - Filter vs scheduler unit costs --------===//
//
// Microbenchmarks substantiating the paper's premise that "the filter is
// much cheaper to apply than instruction scheduling itself": per-block
// cost of (1) feature extraction, (2) rule-set evaluation (interpreted
// and compiled), (3) dependence DAG construction, (4) full list
// scheduling (one-shot and SchedContext-reused), and (5) the block timing
// simulator, across block sizes.  Uses google-benchmark.
//
// After the google-benchmark suites, the driver runs two tracked
// comparisons:
//   * one-shot vs SchedContext-reused scheduling over the fig3 FP suite
//     -> BENCH_schedcontext.json (--out-schedcontext);
//   * interpreter vs compiled evaluation of the SPECjvm98 t = 0 filter
//     over every block of the suite, with a bit-identity cross-check of
//     the two -> BENCH_filter_eval.json (--out-filter-eval).
//
// Usage:
//   bench_micro_costs [--quick] [--jobs N] [--corpus-dir DIR | --no-cache]
//                     [--out-schedcontext PATH] [--out-filter-eval PATH]
//                     [google-benchmark flags]
//
// --quick skips the google-benchmark suites and shrinks the comparison
// repetitions for CI smoke runs.  Custom flags are stripped from argv
// before google-benchmark sees it (it rejects flags it does not know).
//
//===----------------------------------------------------------------------===//

#include "features/Features.h"
#include "filter/CompiledFilter.h"
#include "harness/ParallelExperiments.h"
#include "ml/Ripper.h"
#include "sched/SchedContext.h"
#include "sim/BlockSimulator.h"
#include "support/CommandLine.h"
#include "support/Timer.h"
#include "workloads/ProgramGenerator.h"

#include "BenchJson.h"
#include "EngineOption.h"

#include <benchmark/benchmark.h>

#include <iostream>
#include <sstream>

using namespace schedfilter;

namespace {

/// Builds one block with roughly the requested number of statements from
/// the mpegaudio profile (FP-rich, the interesting case for scheduling).
BasicBlock makeBlock(int Statements) {
  const BenchmarkSpec *Spec = findBenchmarkSpec("mpegaudio");
  Rng R(0xB10C + static_cast<uint64_t>(Statements));
  return ProgramGenerator(*Spec).generateBlock(R, Statements,
                                               /*EndWithTerminator=*/true);
}

/// A realistic filter to price rule evaluation: trained on a small
/// sample of labeled blocks.
RuleSet makeFilter() {
  const BenchmarkSpec *Spec = findBenchmarkSpec("mpegaudio");
  MachineModel Model = MachineModel::ppc7410();
  ListScheduler Sched(Model);
  BlockSimulator Sim(Model);
  Rng R(0xF117);
  Dataset D("micro");
  for (int I = 0; I < 600; ++I) {
    BasicBlock BB = ProgramGenerator(*Spec).generateBlock(
        R, R.range(0, 6), /*EndWithTerminator=*/true);
    uint64_t Before = Sim.simulate(BB);
    uint64_t After = Sim.simulate(BB, Sched.schedule(BB).Order);
    D.add({extractFeatures(BB), After < Before ? Label::LS : Label::NS});
  }
  return Ripper().train(D);
}

void BM_FeatureExtraction(benchmark::State &State) {
  BasicBlock BB = makeBlock(static_cast<int>(State.range(0)));
  for (auto _ : State)
    benchmark::DoNotOptimize(extractFeatures(BB));
  State.SetLabel(std::to_string(BB.size()) + " insts");
}

void BM_FilterDecision(benchmark::State &State) {
  BasicBlock BB = makeBlock(static_cast<int>(State.range(0)));
  static const RuleSet Filter = makeFilter();
  for (auto _ : State) {
    bool Decision = Filter.predict(extractFeatures(BB)) == Label::LS;
    benchmark::DoNotOptimize(Decision);
  }
  State.SetLabel(std::to_string(BB.size()) + " insts");
}

void BM_FilterDecisionCompiled(benchmark::State &State) {
  BasicBlock BB = makeBlock(static_cast<int>(State.range(0)));
  static const RuleSet Filter = makeFilter();
  static const CompiledFilter Compiled(Filter);
  for (auto _ : State) {
    CompiledFilter::Decision D = Compiled.evaluate(extractFeatures(BB));
    benchmark::DoNotOptimize(D);
  }
  State.SetLabel(std::to_string(BB.size()) + " insts");
}

void BM_DagBuild(benchmark::State &State) {
  BasicBlock BB = makeBlock(static_cast<int>(State.range(0)));
  MachineModel Model = MachineModel::ppc7410();
  for (auto _ : State) {
    DependenceGraph Dag(BB, Model);
    benchmark::DoNotOptimize(Dag.numEdges());
  }
  State.SetLabel(std::to_string(BB.size()) + " insts");
}

void BM_ListSchedule(benchmark::State &State) {
  BasicBlock BB = makeBlock(static_cast<int>(State.range(0)));
  MachineModel Model = MachineModel::ppc7410();
  ListScheduler Sched(Model);
  for (auto _ : State) {
    ScheduleResult SR = Sched.schedule(BB);
    benchmark::DoNotOptimize(SR.Order.data());
  }
  State.SetLabel(std::to_string(BB.size()) + " insts");
}

void BM_ListScheduleReused(benchmark::State &State) {
  BasicBlock BB = makeBlock(static_cast<int>(State.range(0)));
  MachineModel Model = MachineModel::ppc7410();
  ListScheduler Sched(Model);
  SchedContext Ctx;
  std::vector<int> Order;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Sched.schedule(BB, Ctx, Order));
    benchmark::DoNotOptimize(Order.data());
  }
  State.SetLabel(std::to_string(BB.size()) + " insts");
}

void BM_BlockSimulate(benchmark::State &State) {
  BasicBlock BB = makeBlock(static_cast<int>(State.range(0)));
  MachineModel Model = MachineModel::ppc7410();
  BlockSimulator Sim(Model);
  for (auto _ : State)
    benchmark::DoNotOptimize(Sim.simulate(BB));
  State.SetLabel(std::to_string(BB.size()) + " insts");
}

/// Times one-shot vs SchedContext-reused scheduling over every block of
/// the fig3 FP suite (the suite whose blocks genuinely need scheduling)
/// and writes the blocks/sec comparison to \p JsonPath.
bool runSchedContextComparison(const std::string &JsonPath, bool Quick) {
  MachineModel Model = MachineModel::ppc7410();
  ListScheduler Sched(Model);

  std::vector<BasicBlock> Blocks;
  for (const Program &P : generateSuite(fpSuite()))
    P.forEachBlock([&](const BasicBlock &BB) { Blocks.push_back(BB); });

  // Pick a repetition count that gives stable timings (~hundreds of ms
  // per side) without inflating bench time on slow machines.
  const int Reps = Quick ? 5 : 20;
  uint64_t Guard = 0; // defeat dead-code elimination across reps

  AccumulatingTimer OneShotTimer;
  OneShotTimer.start();
  for (int R = 0; R != Reps; ++R)
    for (const BasicBlock &BB : Blocks) {
      ScheduleResult SR = Sched.schedule(BB);
      Guard += SR.WorkUnits + static_cast<uint64_t>(SR.Order.size());
    }
  OneShotTimer.stop();

  SchedContext Ctx;
  std::vector<int> Order;
  AccumulatingTimer ReusedTimer;
  ReusedTimer.start();
  for (int R = 0; R != Reps; ++R)
    for (const BasicBlock &BB : Blocks) {
      Guard += Sched.schedule(BB, Ctx, Order);
      Guard += static_cast<uint64_t>(Order.size());
    }
  ReusedTimer.stop();

  double Scheduled = static_cast<double>(Blocks.size()) * Reps;
  double OneShotRate = Scheduled / OneShotTimer.seconds();
  double ReusedRate = Scheduled / ReusedTimer.seconds();
  double Speedup = ReusedRate / OneShotRate;

  std::ostringstream OS;
  OS << "{\n"
     << "  \"suite\": \"fp\",\n"
     << "  \"blocks\": " << Blocks.size() << ",\n"
     << "  \"repetitions\": " << Reps << ",\n"
     << "  \"one_shot_blocks_per_sec\": " << static_cast<uint64_t>(OneShotRate)
     << ",\n"
     << "  \"context_reused_blocks_per_sec\": "
     << static_cast<uint64_t>(ReusedRate) << ",\n"
     << "  \"speedup\": " << Speedup << "\n"
     << "}\n";

  std::cout << "\nSchedContext reuse on the fig3 FP suite ("
            << Blocks.size() << " blocks x " << Reps << " reps):\n"
            << "  one-shot:       " << static_cast<uint64_t>(OneShotRate)
            << " blocks/sec\n"
            << "  context-reused: " << static_cast<uint64_t>(ReusedRate)
            << " blocks/sec\n"
            << "  speedup:        " << Speedup << "x  (guard " << (Guard & 1)
            << ")\n";
  return writeBenchJson(JsonPath, OS.str());
}

/// The headline comparison for the compiled filter: interpreter vs
/// compiled evaluation of the SPECjvm98 t = 0 filter over every block of
/// the suite, bit-identity checked before any timing is reported.  The
/// interpreter side pays predict + predictionWork per decision, while
/// the compiled walk returns both at once.
bool runEvaluatorComparison(ExperimentEngine &Engine,
                            const std::string &JsonPath, bool Quick) {
  std::cerr << "training the SPECjvm98 t = 0 filter (tracing on cache "
               "miss)...\n";
  std::vector<BenchmarkRun> Runs =
      Engine.generateSuiteData(specjvm98Suite(), MachineModel::ppc7410());
  std::vector<Dataset> Labeled = Engine.labelSuite(Runs, 0.0);
  Dataset Suite("suite");
  for (const Dataset &D : Labeled)
    Suite.append(D);
  RuleSet Filter = Ripper().train(Suite, Engine.pool());
  CompiledFilter Compiled(Filter);

  // Every block of the suite, features extracted once.
  std::vector<FeatureVector> Rows;
  for (const BenchmarkRun &R : Runs)
    R.Prog.forEachBlock(
        [&](const BasicBlock &BB) { Rows.push_back(extractFeatures(BB)); });
  const size_t N = Rows.size();

  // Bit-identity first: predictions and work units of both evaluators
  // must agree on every block before the timings mean anything.
  for (size_t I = 0; I != N; ++I) {
    CompiledFilter::Decision D = Compiled.evaluate(Rows[I]);
    if (D.ScheduleLS != (Filter.predict(Rows[I]) == Label::LS) ||
        D.Work != Filter.predictionWork(Rows[I])) {
      std::cerr << "error: evaluator paths diverged on block " << I
                << " (run compiled_filter_test)\n";
      return false;
    }
  }

  const int Reps = Quick ? 40 : 400;
  uint64_t Guard = 0;

  // The two evaluators are timed interleaved, one full pass each per
  // rep: external load then perturbs both about equally, so the reported
  // speedup ratio is stable even on a busy machine.
  AccumulatingTimer InterpTimer, ScalarTimer;
  for (int R = 0; R != Reps; ++R) {
    InterpTimer.start();
    for (size_t I = 0; I != N; ++I) {
      Guard += Filter.predict(Rows[I]) == Label::LS;
      Guard += Filter.predictionWork(Rows[I]);
    }
    InterpTimer.stop();

    ScalarTimer.start();
    for (size_t I = 0; I != N; ++I) {
      CompiledFilter::Decision D = Compiled.evaluate(Rows[I]);
      Guard += D.Work + D.ScheduleLS;
    }
    ScalarTimer.stop();
  }

  double Decisions = static_cast<double>(N) * Reps;
  auto NsPer = [&](const AccumulatingTimer &T) {
    return T.seconds() * 1e9 / Decisions;
  };
  auto Rate = [&](const AccumulatingTimer &T) {
    return static_cast<uint64_t>(Decisions / T.seconds());
  };
  double InterpNs = NsPer(InterpTimer);
  double ScalarNs = NsPer(ScalarTimer);

  std::ostringstream OS;
  OS << "{\n"
     << "  \"filter\": \"specjvm98 @ t=0\",\n"
     << "  \"rules\": " << Filter.size() << ",\n"
     << "  \"conditions\": " << Filter.totalConditions() << ",\n"
     << "  \"blocks\": " << N << ",\n"
     << "  \"repetitions\": " << Reps << ",\n"
     << "  \"interpreter_ns_per_decision\": " << InterpNs << ",\n"
     << "  \"compiled_ns_per_decision\": " << ScalarNs << ",\n"
     << "  \"interpreter_blocks_per_sec\": " << Rate(InterpTimer) << ",\n"
     << "  \"compiled_blocks_per_sec\": " << Rate(ScalarTimer) << ",\n"
     << "  \"compiled_speedup\": " << InterpNs / ScalarNs << "\n"
     << "}\n";

  std::cout << "\nfilter evaluation on the SPECjvm98 t = 0 filter ("
            << Filter.size() << " rules, " << Filter.totalConditions()
            << " conditions -> " << Compiled.numCells() << " cells; " << N
            << " blocks x " << Reps << " reps):\n"
            << "  interpreter: " << InterpNs << " ns/decision ("
            << Rate(InterpTimer) << " blocks/sec)\n"
            << "  compiled:    " << ScalarNs << " ns/decision ("
            << Rate(ScalarTimer) << " blocks/sec, " << InterpNs / ScalarNs
            << "x)  (guard " << (Guard & 1) << ")\n";
  return writeBenchJson(JsonPath, OS.str());
}

} // namespace

BENCHMARK(BM_FeatureExtraction)->Arg(1)->Arg(3)->Arg(6)->Arg(10);
BENCHMARK(BM_FilterDecision)->Arg(1)->Arg(3)->Arg(6)->Arg(10);
BENCHMARK(BM_FilterDecisionCompiled)->Arg(1)->Arg(3)->Arg(6)->Arg(10);
// Arg(24) is a big block: 124 instructions, the mean of the five family
// suites' blocks over 64 instructions (2.6% of blocks, 43% of DAG edges).
BENCHMARK(BM_DagBuild)->Arg(1)->Arg(3)->Arg(6)->Arg(10)->Arg(24);
BENCHMARK(BM_ListSchedule)->Arg(1)->Arg(3)->Arg(6)->Arg(10)->Arg(24);
BENCHMARK(BM_ListScheduleReused)->Arg(1)->Arg(3)->Arg(6)->Arg(10)->Arg(24);
BENCHMARK(BM_BlockSimulate)->Arg(1)->Arg(3)->Arg(6)->Arg(10)->Arg(24);

int main(int argc, char **argv) {
  CommandLine CL(argc, argv);
  std::optional<EngineHandle> Handle = parseEngineOptions(CL);
  if (!Handle)
    return 1;
  bool Quick = CL.has("quick");

  // google-benchmark rejects flags it does not recognize, so strip this
  // driver's own flags (and their space-separated values, mirroring
  // CommandLine's consumption rule) before handing argv over.
  std::vector<char *> BenchArgv;
  BenchArgv.push_back(argv[0]);
  auto IsOwnFlag = [](const std::string &A) {
    static const char *Own[] = {"--quick",           "--no-cache",
                                "--jobs",            "--corpus-dir",
                                "--out-schedcontext", "--out-filter-eval"};
    for (const char *F : Own)
      if (A == F || A.rfind(std::string(F) + "=", 0) == 0)
        return true;
    return false;
  };
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (IsOwnFlag(A)) {
      if (A.find('=') == std::string::npos && I + 1 < argc &&
          std::string(argv[I + 1]).rfind("--", 0) != 0)
        ++I; // the flag's space-separated value
      continue;
    }
    BenchArgv.push_back(argv[I]);
  }
  int BenchArgc = static_cast<int>(BenchArgv.size());

  benchmark::Initialize(&BenchArgc, BenchArgv.data());
  if (benchmark::ReportUnrecognizedArguments(BenchArgc, BenchArgv.data()))
    return 1;
  if (!Quick)
    benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!runSchedContextComparison(
          benchOutPath(CL, "out-schedcontext", "BENCH_schedcontext.json"),
          Quick))
    return 1;
  if (!runEvaluatorComparison(
          **Handle, benchOutPath(CL, "out-filter-eval", "BENCH_filter_eval.json"),
          Quick))
    return 1;
  return 0;
}
