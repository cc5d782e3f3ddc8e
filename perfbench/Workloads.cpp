//===- perfbench/Workloads.cpp - The three benchmark workloads --------------===//
//
// compile_batch  batch-compiles a five-family population under LS and L/N
// serve_mix      serves an interleaved five-family stream, static filter
// report_sweep   the sf-report path: cold trace, warm reload, 11-threshold
//                LOOCV sweep
//
// README.md beside this file says why each was chosen and which layer
// metric should move which end-to-end metric.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"
#include "Workload.h"

#include "harness/ParallelExperiments.h"
#include "runtime/MethodCompiler.h"
#include "runtime/MultiAppService.h"
#include "support/Statistics.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <optional>

using namespace perfbench;
using namespace schedfilter;
namespace fs = std::filesystem;

namespace {

/// Family \p Name's stock suite with every spec seed derived from the
/// benchmark seed; copy \p Copy > 0 is another draw, renamed.  The
/// self-test size keeps an eighth of each program.
std::vector<BenchmarkSpec> seededSuite(const std::string &Name,
                                       const Options &Opt, unsigned Copy = 0) {
  std::vector<BenchmarkSpec> Suite =
      findWorkloadFamily(Name)->makeBenchmarkSuite();
  for (BenchmarkSpec &S : Suite) {
    Rng R = Rng(Opt.Seed).fork(Copy).fork(S.Seed);
    S.Seed = R.next64();
    if (Copy)
      S.Name += "#" + std::to_string(Copy);
    if (Opt.Small)
      S.NumMethods = std::max(4, S.NumMethods / 8);
  }
  return Suite;
}

std::vector<std::string> allFamilies() {
  std::vector<std::string> Names;
  for (const WorkloadFamily *F : WorkloadRegistry::instance().families())
    Names.push_back(F->name());
  return Names;
}

std::vector<uint64_t> fingerprintsOf(const std::vector<BenchmarkSpec> &Specs) {
  std::vector<uint64_t> Out;
  for (const BenchmarkSpec &S : Specs)
    Out.push_back(specFingerprint(S));
  return Out;
}

void countInputs(Tracer &T, const std::vector<const Program *> &Progs) {
  double Methods = 0, Blocks = 0, Insts = 0;
  for (const Program *P : Progs) {
    Methods += static_cast<double>(P->size());
    Blocks += static_cast<double>(P->totalBlocks());
    Insts += static_cast<double>(P->totalInstructions());
  }
  T.set("workloads.programs", static_cast<double>(Progs.size()));
  T.set("workloads.methods", Methods);
  T.set("workloads.blocks", Blocks);
  T.set("workloads.insts", Insts);
}

/// The workloads layer timed from outside: regenerates every input and
/// checks it matches the copy set-up used.
void replayGeneration(Env &E, const std::vector<BenchmarkSpec> &Specs,
                      const std::vector<const Program *> &Progs) {
  for (size_t I = 0; I != Specs.size(); ++I) {
    std::optional<Program> P;
    timed(E.T, "workloads.generate", I + 1,
          [&] { P.emplace(generateWorkloadProgram(Specs[I])); });
    E.C.expect(P->size() == Progs[I]->size() &&
                   P->totalBlocks() == Progs[I]->totalBlocks() &&
                   P->totalInstructions() == Progs[I]->totalInstructions(),
               "regenerated program matches the set-up program");
  }
}

/// Labels \p Runs at \p ThresholdPct, pools them, and trains RIPPER on the
/// engine's pool.
RuleSet trainOnRuns(Env &E, ExperimentEngine &Engine,
                    const std::vector<BenchmarkRun> &Runs,
                    double ThresholdPct) {
  std::vector<Dataset> Labeled;
  timed(E.T, "ml.label", 0,
        [&] { Labeled = Engine.labelSuite(Runs, ThresholdPct); });
  Dataset Train("perfbench");
  for (const Dataset &D : Labeled)
    Train.append(D);
  RuleSet Rules(Label::NS);
  timed(E.T, "ml.train", 0,
        [&] { Rules = ripperLearner(Engine.pool())(Train); });
  E.T.add("ml.trainings", 1);
  E.T.add("ml.train_instances", static_cast<double>(Train.size()));
  E.T.add("ml.rules", static_cast<double>(Rules.size()));
  E.T.add("ml.conditions", static_cast<double>(Rules.totalConditions()));
  return Rules;
}

std::vector<BenchmarkRun> traceSuite(Env &E, ExperimentEngine &Engine,
                                     const std::vector<BenchmarkSpec> &Specs) {
  std::vector<BenchmarkRun> Runs;
  timed(E.T, "harness.trace", 0,
        [&] { Runs = Engine.generateSuiteData(Specs, E.Model); });
  E.T.set("harness.traced_blocks", static_cast<double>(Engine.tracedBlocks()));
  return Runs;
}

/// The paper's factory filter: RIPPER over stock SPECjvm98 traced at
/// t = 0.  It does not depend on the seed, so a self-trained filter's
/// seed-to-seed swings in size and cost stay out of the compile timings.
RuleSet factoryFilter(Env &E, ExperimentEngine &Engine) {
  return trainOnRuns(E, Engine, traceSuite(E, Engine, specjvm98Suite()), 0.0);
}

/// Deterministic fields of a report (the wall-clock one excluded).
bool sameReport(const CompileReport &A, const CompileReport &B) {
  return A.NumBlocks == B.NumBlocks && A.NumScheduled == B.NumScheduled &&
         A.SchedulingWork == B.SchedulingWork &&
         A.FilterWork == B.FilterWork && A.SimulatedTime == B.SimulatedTime;
}

void addReport(CompileReport &Sum, const CompileReport &R) {
  Sum.Policy = R.Policy;
  Sum.NumBlocks += R.NumBlocks;
  Sum.NumScheduled += R.NumScheduled;
  Sum.SchedulingWork += R.SchedulingWork;
  Sum.FilterWork += R.FilterWork;
  Sum.SimulatedTime += R.SimulatedTime;
}

double ratio(uint64_t Num, uint64_t Den) {
  return safeRatio(static_cast<double>(Num), static_cast<double>(Den));
}

/// Compiles a fixed list of methods on a pool, in a fixed number of chunks
/// (independent of the job count, so reports fold in the same order at any
/// --jobs), each chunk on its own reused context.  Under L/N every
/// compileMethod call is timed: per-method latency measured where the
/// optimizing tier runs, with all pool threads busy.
class ChunkedCompiler {
public:
  ChunkedCompiler(const MachineModel &Model, std::vector<const Method *> List)
      : Model(Model), Methods(std::move(List)), Latency(Methods.size()) {
    size_t NumChunks = std::min<size_t>(64, Methods.size());
    for (size_t C = 0; C <= NumChunks; ++C)
      Bounds.push_back(NumChunks ? Methods.size() * C / NumChunks : 0);
    for (size_t C = 0; C != NumChunks; ++C)
      Contexts.push_back(std::make_unique<SchedContext>());
  }

  /// One pass under \p Policy (\p Art is the filter for L/N); appends the
  /// per-method latencies of an L/N pass to \p LatencyUs.
  CompileReport pass(TaskPool &Pool, SchedulingPolicy Policy,
                     const FilterArtifactRef &Art,
                     std::vector<double> &LatencyUs) {
    std::vector<CompileReport> Parts(Contexts.size());
    const bool Filtered = Policy == SchedulingPolicy::Filtered;
    Pool.parallelFor(Contexts.size(), [&](size_t C) {
      MethodCompiler MC(Model, *Contexts[C]);
      std::optional<ScheduleFilter> F;
      if (Filtered)
        F.emplace(Art);
      for (size_t M = Bounds[C]; M != Bounds[C + 1]; ++M) {
        Clock::time_point Start = Clock::now();
        MC.compileMethod(*Methods[M], Policy, F ? &*F : nullptr, Parts[C]);
        Latency[M] = secondsBetween(Start, Clock::now()) * 1e6;
      }
    });
    if (Filtered)
      LatencyUs.insert(LatencyUs.end(), Latency.begin(), Latency.end());
    CompileReport Sum;
    for (const CompileReport &P : Parts)
      addReport(Sum, P);
    return Sum;
  }

  const std::vector<const Method *> &methods() const { return Methods; }

private:
  const MachineModel &Model;
  std::vector<const Method *> Methods;
  std::vector<double> Latency;
  std::vector<size_t> Bounds;
  std::vector<std::unique_ptr<SchedContext>> Contexts;
};

std::vector<const Method *> methodsOf(const std::vector<Program> &Programs) {
  std::vector<const Method *> Out;
  for (const Program &P : Programs)
    for (const Method &M : P)
      Out.push_back(&M);
  return Out;
}

std::vector<const Program *> pointersTo(const std::vector<Program> &Programs) {
  std::vector<const Program *> Out;
  for (const Program &P : Programs)
    Out.push_back(&P);
  return Out;
}

// ---------------------------------------------------------------------------
// compile_batch
// ---------------------------------------------------------------------------

/// A batch JIT: every method of a seed-derived five-family population,
/// compiled once under LS and once under L/N per round, with the paper's
/// factory filter (RIPPER on stock SPECjvm98 at t = 0).  The population
/// is four draws of every family suite (~95k blocks), so that one seed's
/// population costs about what another's does.
class CompileBatch final : public Workload {
public:
  explicit CompileBatch(Env &E) : E(E), Engine(E.Opt.Jobs) {}

  void setup() override {
    for (unsigned Copy = 0; Copy != 4; ++Copy)
      for (const std::string &F : allFamilies())
        for (BenchmarkSpec &S : seededSuite(F, E.Opt, Copy))
          Specs.push_back(std::move(S));
    Fingerprints = fingerprintsOf(Specs);
    for (const BenchmarkSpec &S : Specs)
      Programs.push_back(generateWorkloadProgram(S));
    countInputs(E.T, pointersTo(Programs));

    RuleSet Rules = factoryFilter(E, Engine);
    timed(E.T, "filter.artifact", 0,
          [&] { Art = makeFilterArtifact(std::move(Rules)); });
    Compiler.emplace(E.Model, methodsOf(Programs));
  }

  RoundTimes round() override {
    RoundTimes Out;
    CompileReport LSR, LNR;
    Out.LS = timed(E.T, "round.ls", 0,
                   [&] { LSR = pass(SchedulingPolicy::Always); });
    Out.LN = timed(E.T, "round.ln", 0,
                   [&] { LNR = pass(SchedulingPolicy::Filtered); });
    if (!First) {
      First = true;
      LS = LSR;
      LN = LNR;
      return Out;
    }
    E.C.expect(sameReport(LS, LSR) && sameReport(LN, LNR),
               "every round repeats the first round's reports");
    return Out;
  }

  void verify() override {
    NS = pass(SchedulingPolicy::Never);
    E.C.expect(LS.NumScheduled == LS.NumBlocks && NS.NumScheduled == 0,
               "LS schedules every block and NS none");
    Replayer R(E.Model, E.T, E.C);
    const std::vector<const Method *> &Methods = Compiler->methods();
    for (size_t M = 0; M != Methods.size(); ++M)
      R.compile(*Methods[M], *Art, M + 1);
    R.publish();
    const ReplayTotals &Tot = R.totals();
    E.C.expect(Tot.Blocks == LN.NumBlocks && Tot.Scheduled == LN.NumScheduled,
               "replay decides as the L/N pass did");
    E.C.expect(Tot.FilterWork == LN.FilterWork &&
                   Tot.schedulingWork() == LN.SchedulingWork,
               "replay work equals the L/N pass's work units");
    if (E.T.enabled())
      replayGeneration(E, Specs, pointersTo(Programs));
  }

  double effortRatio() const override {
    return ratio(LN.SchedulingWork, LS.SchedulingWork);
  }
  double appTimeRatio() const override {
    return safeRatio(LN.SimulatedTime, NS.SimulatedTime);
  }

private:
  CompileReport pass(SchedulingPolicy Policy) {
    return Compiler->pass(Engine.pool(), Policy, Art, LatencyUs);
  }

  Env &E;
  ExperimentEngine Engine;
  std::vector<BenchmarkSpec> Specs;
  std::vector<Program> Programs;
  FilterArtifactRef Art;
  std::optional<ChunkedCompiler> Compiler;
  bool First = false;
  CompileReport LS, LN, NS;
};

// ---------------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------------

/// The adaptive JIT: MultiAppService replays one invocation stream that
/// interleaves all five families under an LS optimizing tier and under an
/// L/N one (the sf-serve comparison), closed loop on the virtual clock,
/// with the static factory filter installed.
class ServeMix final : public Workload {
public:
  explicit ServeMix(Env &E) : E(E), Engine(E.Opt.Jobs) {}

  void setup() override {
    for (const std::string &F : allFamilies()) {
      std::vector<BenchmarkSpec> Suite = seededSuite(F, E.Opt);
      double Per = 1.0 / static_cast<double>(Suite.size());
      for (BenchmarkSpec &S : Suite) {
        Specs.push_back(S);
        Apps.push_back({std::move(S), Per});
      }
    }
    Fingerprints = fingerprintsOf(Specs);
    Cfg.StreamSeed = workloadMixSeed(Apps);
    Cfg.Invocations = E.Opt.Small ? 200000 : 2000000;

    Rules = factoryFilter(E, Engine);
    Programs = generateMixPrograms(Apps);
    for (size_t A = 0; A != Programs.size(); ++A)
      Offsets.push_back(A ? Offsets[A - 1] + Programs[A - 1].size() : 0);
    countInputs(E.T, pointersTo(Programs));
    E.T.set("workloads.invocations", static_cast<double>(Cfg.Invocations));

    ServiceConfig LSCfg = Cfg;
    LSCfg.OptimizingPolicy = SchedulingPolicy::Always;
    timed(E.T, "runtime.baseline_cost", 0, [&] {
      Always = std::make_unique<MultiAppService>(Apps, Programs, E.Model, LSCfg,
                                                 nullptr, Engine.pool());
    });
    Filtered = std::make_unique<MultiAppService>(
        Apps, Programs, E.Model, Cfg, &Rules, Engine.pool(),
        &Always->baselineCosts());
  }

  RoundTimes round() override {
    RoundTimes Out;
    MultiAppStats LSSt, LNSt;
    Out.LS = timed(E.T, "round.ls", 0, [&] { LSSt = Always->run(); });
    Out.LN = timed(E.T, "round.ln", 0, [&] { LNSt = Filtered->run(); });
    checkIdentities(LSSt);
    checkIdentities(LNSt);
    if (!First) {
      First = true;
      LS = std::move(LSSt);
      LN = std::move(LNSt);
      return Out;
    }
    E.C.expect(LS == LSSt && LN == LNSt,
               "every round repeats the first round's stats");
    return Out;
  }

  void verify() override {
    const ServiceStats &Tot = LN.Total;
    timed(E.T, "filter.artifact", 0, [&] { Art = makeFilterArtifact(Rules); });
    E.C.expect(std::all_of(Tot.Compiles.begin(), Tot.Compiles.end(),
                           [](const ServiceStats::CompilePinStat &P) {
                             return P.FilterVersion == 0;
                           }),
               "every compile pin names the static filter");
    Replayer R(E.Model, E.T, E.C);
    for (size_t I = 0; I != Tot.Compiles.size(); ++I)
      R.compile(method(Tot.Compiles[I].Method), *Art, I + 1);
    R.publish();
    const ReplayTotals &RT = R.totals();
    E.C.expect(RT.Scheduled == Tot.FilterLS && RT.Skipped == Tot.FilterNS &&
                   RT.Blocks == Tot.BlocksCompiled,
               "replay decides as the L/N service did");
    E.C.expect(RT.FilterWork == Tot.FilterWork &&
                   RT.schedulingWork() == Tot.SchedulingWork,
               "replay work equals the L/N service's work units");

    E.T.set("runtime.ticks", static_cast<double>(Tot.Invocations));
    E.T.set("runtime.compiled_methods", static_cast<double>(Tot.CompiledMethods));
    E.T.set("runtime.promotions", static_cast<double>(Tot.Promotions));
    E.T.set("runtime.deferred", static_cast<double>(Tot.Deferred));
    E.T.set("runtime.max_queue_depth", static_cast<double>(Tot.MaxQueueDepth));
    E.T.set("runtime.mean_queue_depth", Tot.MeanQueueDepth);

    double Inside = replayPins();
    if (!E.T.enabled())
      return;
    replayGeneration(E, Specs, pointersTo(Programs));
    measureDispatch(Inside);
  }

  /// The service compiles inside run(), so compile latency is timed from
  /// outside: the methods the L/N service compiled (its compile pins, in
  /// install order) under the filter that compiled them, on the pool as the
  /// service's compile tasks run, repeated for a quarter of the run after
  /// one warm-up pass.
  void probe() override {
    std::vector<const Method *> Hot;
    for (const ServiceStats::CompilePinStat &P : LN.Total.Compiles)
      Hot.push_back(&method(P.Method));
    ChunkedCompiler Probe(E.Model, std::move(Hot));
    std::vector<double> WarmUp;
    Probe.pass(Engine.pool(), SchedulingPolicy::Filtered, Art, WarmUp);
    Clock::time_point Start = Clock::now();
    double Budget = std::max(1.0, 0.25 * E.Opt.Seconds);
    do
      Probe.pass(Engine.pool(), SchedulingPolicy::Filtered, Art, LatencyUs);
    while (secondsBetween(Start, Clock::now()) < Budget);
  }

  double effortRatio() const override {
    return ratio(LN.Total.SchedulingWork, LS.Total.SchedulingWork);
  }
  double appTimeRatio() const override {
    return safeRatio(LN.Total.AppTime, LN.Total.BaselineAppTime);
  }

private:
  const Method &method(uint32_t Global) const {
    size_t A = static_cast<size_t>(
                   std::upper_bound(Offsets.begin(), Offsets.end(), Global) -
                   Offsets.begin()) -
               1;
    return Programs[A][Global - Offsets[A]];
  }

  void checkIdentities(const MultiAppStats &St) {
    const ServiceStats &Tot = St.Total;
    E.C.expect(Tot.BaselineInvocations + Tot.OptimizedInvocations ==
                   Tot.Invocations,
               "Baseline + Optimized == Invocations");
    E.C.expect(Tot.Promotions == Tot.CompiledMethods + Tot.FinalQueueDepth,
               "Promotions == CompiledMethods + FinalQueueDepth");
    E.C.expect(Tot.Compiles.size() == Tot.CompiledMethods,
               "one compile pin per compiled method");
    static constexpr uint64_t ServiceStats::*Fields[] = {
        &ServiceStats::Invocations,          &ServiceStats::Promotions,
        &ServiceStats::Deferred,             &ServiceStats::CompiledMethods,
        &ServiceStats::MethodsOptimized,     &ServiceStats::MethodsTotal,
        &ServiceStats::BaselineInvocations,  &ServiceStats::OptimizedInvocations,
        &ServiceStats::SchedulingWork,       &ServiceStats::FilterWork,
        &ServiceStats::BlocksCompiled,       &ServiceStats::BlocksScheduled,
        &ServiceStats::FilterLS,             &ServiceStats::FilterNS};
    for (uint64_t ServiceStats::*F : Fields) {
      uint64_t Sum = 0;
      for (const ServiceStats &App : St.PerApp)
        Sum += App.*F;
      E.C.expect(Sum == Tot.*F, "per-app integer fields sum to Total");
    }
  }

  /// Reissues every compile request of the L/N run, in install order, as
  /// the service's pool tasks do, checking each costs the work units its
  /// pin records.  Returns the time spent in those calls.
  double replayPins() {
    const std::vector<ServiceStats::CompilePinStat> &Pins = LN.Total.Compiles;
    double Inside = 0.0;
    for (size_t I = 0; I != Pins.size(); ++I) {
      const ServiceStats::CompilePinStat &P = Pins[I];
      SchedContext Ctx;
      MethodCompiler MC(E.Model, Ctx);
      CompileReport Rep;
      Inside += timed(E.T, "runtime.compile", I + 1, [&] {
        ScheduleFilter F(Art);
        MC.compileMethod(method(P.Method), SchedulingPolicy::Filtered, &F, Rep);
      });
      E.C.expect(Rep.SchedulingWork == P.SchedulingWork,
                 "a reissued compile costs the work units its pin records");
    }
    return Inside;
  }

  /// runtime.tick_ns: the L/N run() at one job, minus the compiles it made,
  /// replayed at one job through their public calls (\p Inside seconds);
  /// what is left is the dispatch loop.
  void measureDispatch(double Inside) {
    TaskPool One(1);
    MultiAppService Svc(Apps, Programs, E.Model, Cfg, &Rules, One,
                        &Always->baselineCosts());
    MultiAppStats One1;
    double RunS = timed(E.T, "runtime.run", 0, [&] { One1 = Svc.run(); });
    E.C.expect(One1 == LN, "one job serves the identical stream");
    E.T.note("runtime.tick_ns", (RunS - Inside) * 1e9 /
                                    static_cast<double>(LN.Total.Invocations));
  }

  Env &E;
  ExperimentEngine Engine;
  std::vector<BenchmarkSpec> Specs;
  std::vector<AppSpec> Apps;
  std::vector<Program> Programs;
  std::vector<size_t> Offsets; ///< first global method id of each app
  RuleSet Rules{Label::NS};
  ServiceConfig Cfg;
  std::unique_ptr<MultiAppService> Always;
  std::unique_ptr<MultiAppService> Filtered;
  FilterArtifactRef Art; ///< the installed filter, as verify() rebuilds it
  bool First = false;
  MultiAppStats LS, LN;
};

// ---------------------------------------------------------------------------
// report_sweep
// ---------------------------------------------------------------------------

bool sameRecords(const std::vector<BlockRecord> &A,
                 const std::vector<BlockRecord> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (std::memcmp(A[I].X.data(), B[I].X.data(), sizeof(FeatureVector)) ||
        A[I].CostNoSched != B[I].CostNoSched ||
        A[I].CostSched != B[I].CostSched || A[I].ExecCount != B[I].ExecCount)
      return false;
  return true;
}

bool sameRun(const BenchmarkRun &A, const BenchmarkRun &B) {
  return sameRecords(A.Records, B.Records) &&
         sameReport(A.NeverReport, B.NeverReport) &&
         sameReport(A.AlwaysReport, B.AlwaysReport);
}

/// The researcher's sf-report path: trace a seed-derived SPECjvm98 suite
/// into a fresh CorpusCache, reload it through a second engine, then per
/// round run the 11-threshold LOOCV sweep and recompile every program
/// under LS and under its t = 0 held-out filter -- the wall-clock effort
/// comparison timed from outside instead of read from
/// ThresholdResult::EffortRatioWall.
class ReportSweep final : public Workload {
public:
  explicit ReportSweep(Env &E) : E(E) {}

  void setup() override {
    Specs = seededSuite("specjvm98", E.Opt);
    Fingerprints = fingerprintsOf(Specs);
    CacheDir = E.Opt.TmpDir + "/corpus";
    fs::remove_all(CacheDir);

    std::vector<BenchmarkRun> ColdRuns;
    {
      ExperimentEngine Cold(E.Opt.Jobs);
      CorpusCache ColdCache(CacheDir);
      Cold.setCorpusCache(&ColdCache);
      ColdRuns = traceSuite(E, Cold, Specs);
      addCacheStats(ColdCache);
    }
    Warm = std::make_unique<ExperimentEngine>(E.Opt.Jobs);
    CorpusCache WarmCache(CacheDir);
    Warm->setCorpusCache(&WarmCache);
    timed(E.T, "io.warm_suite", 0,
          [&] { Runs = Warm->generateSuiteData(Specs, E.Model); });
    Warm->setCorpusCache(nullptr);
    addCacheStats(WarmCache);
    E.C.expect(Warm->tracedBlocks() == 0, "the warm reload traces nothing");
    for (size_t B = 0; B != Runs.size(); ++B)
      E.C.expect(sameRun(Runs[B], ColdRuns[B]),
                 "the warm reload equals the cold trace record for record");

    countInputs(E.T, programsOf());
    Thresholds = paperThresholds();
    for (size_t I = 0; I != Passes * Runs.size(); ++I)
      Contexts.push_back(std::make_unique<SchedContext>());
    TaskLatency.resize(Contexts.size());
  }

  RoundTimes round() override {
    std::vector<ThresholdResult> Sweep;
    timed(E.T, "harness.sweep", 0, [&] {
      Sweep = Warm->runThresholdSweep(Runs, Thresholds, ripperLearner());
    });
    RoundTimes Out;
    std::vector<CompileReport> LSR, LNR;
    Out.LS = timed(E.T, "round.ls", 0, [&] { LSR = pass(nullptr); });
    Out.LN = timed(E.T, "round.ln", 0, [&] { LNR = pass(&Sweep[0]); });
    for (size_t B = 0; B != Runs.size(); ++B) {
      const BenchmarkRun &Run = Runs[B];
      E.C.expect(sameReport(LSR[B], Run.AlwaysReport),
                 "recompiling under LS reproduces the cached LS report");
      E.C.expect(safeRatio(static_cast<double>(LNR[B].SchedulingWork),
                           static_cast<double>(Run.AlwaysReport.SchedulingWork)) ==
                         Sweep[0].EffortRatioWork[B] &&
                     safeRatio(LNR[B].SimulatedTime,
                               Run.NeverReport.SimulatedTime,
                               1.0) == Sweep[0].AppRatioLN[B],
                 "the outside L/N compile reproduces the sweep's t=0 ratios");
    }
    if (!First) {
      First = true;
      Result = std::move(Sweep);
      LN = std::move(LNR);
      return Out;
    }
    E.C.expect(sameSweep(Result, Sweep),
               "every round repeats the first round's sweep");
    return Out;
  }

  void verify() override {
    Replayer R(E.Model, E.T, E.C);
    uint64_t Work = 0, Scheduled = 0;
    for (size_t B = 0; B != Runs.size(); ++B) {
      FilterArtifactRef Art;
      timed(E.T, "filter.artifact", B + 1,
            [&] { Art = makeFilterArtifact(Result[0].Filters[B]); });
      uint64_t Req = (B + 1) << 32;
      for (const Method &M : Runs[B].Prog)
        R.compile(M, *Art, ++Req);
      Work += LN[B].SchedulingWork;
      Scheduled += LN[B].NumScheduled;
    }
    R.publish();
    E.C.expect(R.totals().schedulingWork() == Work &&
                   R.totals().Scheduled == Scheduled,
               "replay work and decisions equal the t=0 L/N compiles");
    E.T.set("harness.folds",
            static_cast<double>(Thresholds.size() * Runs.size()));

    if (!E.T.enabled())
      return;
    replayGeneration(E, Specs, programsOf());
    replayFolds();
    replayCorpusIO();
  }

  /// Pooled over the suite at t = 0 (the per-benchmark geometric mean
  /// swings with the smallest benchmarks from seed to seed).
  double effortRatio() const override {
    uint64_t LNWork = 0, LSWork = 0;
    for (size_t B = 0; B != Runs.size(); ++B) {
      LNWork += LN[B].SchedulingWork;
      LSWork += Runs[B].AlwaysReport.SchedulingWork;
    }
    return ratio(LNWork, LSWork);
  }
  /// Geometric mean over the suite at t = 0, sf-report's headline.
  double appTimeRatio() const override {
    return geometricMean(Result[0].AppRatioLN);
  }

private:
  std::vector<const Program *> programsOf() const {
    std::vector<const Program *> Out;
    for (const BenchmarkRun &Run : Runs)
      Out.push_back(&Run.Prog);
    return Out;
  }

  /// Compiles every program Passes times on the pool, under LS or under
  /// \p T0's held-out filters, one (pass, program) task each: a single
  /// compile of the suite is too short to time steadily.  Each task folds
  /// its program into a report from zero, as compileProgram does, so the
  /// reports stay bit-comparable with the sweep's.
  std::vector<CompileReport> pass(const ThresholdResult *T0) {
    const size_t N = Runs.size();
    std::vector<CompileReport> Reps(Contexts.size());
    Warm->pool().parallelFor(Contexts.size(), [&](size_t I) {
      const size_t B = I % N;
      MethodCompiler MC(E.Model, *Contexts[I]);
      std::optional<ScheduleFilter> F;
      if (T0)
        F.emplace(T0->Filters[B]);
      TaskLatency[I].clear();
      for (const Method &M : Runs[B].Prog) {
        Clock::time_point Start = Clock::now();
        MC.compileMethod(M,
                         F ? SchedulingPolicy::Filtered
                           : SchedulingPolicy::Always,
                         F ? &*F : nullptr, Reps[I]);
        TaskLatency[I].push_back(secondsBetween(Start, Clock::now()) * 1e6);
      }
    });
    for (size_t I = 0; I != Reps.size(); ++I) {
      if (T0)
        LatencyUs.insert(LatencyUs.end(), TaskLatency[I].begin(),
                         TaskLatency[I].end());
      E.C.expect(sameReport(Reps[I], Reps[I % N]),
                 "every pass compiles the suite identically");
    }
    Reps.resize(N);
    return Reps;
  }

  static bool sameSweep(const std::vector<ThresholdResult> &A,
                        const std::vector<ThresholdResult> &B) {
    if (A.size() != B.size())
      return false;
    for (size_t T = 0; T != A.size(); ++T) {
      const ThresholdResult &X = A[T], &Y = B[T];
      if (X.ErrorPct != Y.ErrorPct || X.PredictedTimePct != Y.PredictedTimePct ||
          X.EffortRatioWork != Y.EffortRatioWork || X.AppRatioLN != Y.AppRatioLN ||
          X.TrainLS != Y.TrainLS || X.TrainNS != Y.TrainNS ||
          X.RuntimeLS != Y.RuntimeLS || X.RuntimeNS != Y.RuntimeNS ||
          X.Filters.size() != Y.Filters.size())
        return false;
      for (size_t B = 0; B != X.Filters.size(); ++B)
        if (rulesFingerprint(X.Filters[B]) != rulesFingerprint(Y.Filters[B]))
          return false;
    }
    return true;
  }

  void addCacheStats(const CorpusCache &Cache) {
    CorpusCache::Stats S = Cache.stats();
    E.T.add("io.corpus_hits", static_cast<double>(S.Hits));
    E.T.add("io.corpus_misses", static_cast<double>(S.Misses));
    E.T.add("io.corpus_invalid", static_cast<double>(S.InvalidEntries));
    E.T.add("io.store_failures", static_cast<double>(S.StoreFailures));
  }

  /// Every LOOCV fold of every threshold, trained again from outside the
  /// sweep; each must induce the rules the sweep kept.
  void replayFolds() {
    for (size_t T = 0; T != Thresholds.size(); ++T) {
      std::vector<Dataset> Labeled;
      timed(E.T, "ml.label", 0,
            [&] { Labeled = Warm->labelSuite(Runs, Thresholds[T]); });
      for (size_t Held = 0; Held != Labeled.size(); ++Held) {
        Dataset Train("train-without-" + Labeled[Held].getName());
        for (size_t J = 0; J != Labeled.size(); ++J)
          if (J != Held)
            Train.append(Labeled[J]);
        RuleSet RS(Label::NS);
        timed(E.T, "ml.train", T * Labeled.size() + Held + 1,
              [&] { RS = Ripper().train(Train); });
        E.T.add("ml.trainings", 1);
        E.T.add("ml.train_instances", static_cast<double>(Train.size()));
        E.T.add("ml.rules", static_cast<double>(RS.size()));
        E.T.add("ml.conditions", static_cast<double>(RS.totalConditions()));
        E.C.expect(rulesFingerprint(RS) ==
                       rulesFingerprint(Result[T].Filters[Held]),
                   "a replayed LOOCV fold induces the sweep's filter");
      }
    }
  }

  /// CorpusCache store and load of every traced benchmark, into a fresh
  /// directory, timed per call.
  void replayCorpusIO() {
    std::string Dir = E.Opt.TmpDir + "/corpus-replay";
    fs::remove_all(Dir);
    CorpusCache Cache(Dir);
    uint64_t Bytes = 0;
    for (size_t B = 0; B != Runs.size(); ++B) {
      const BenchmarkSpec &S = Specs[B];
      CorpusKey Key{S.Name,
                    E.Model.getName(),
                    workloadGeneratorVersion(S),
                    TracePipelineVersion,
                    specFingerprint(S),
                    S.Family};
      const BenchmarkRun &Run = Runs[B];
      timed(E.T, "io.corpus_store", B + 1, [&] {
        Cache.store(Key, Run.Records, Run.NeverReport, Run.AlwaysReport);
      });
      std::optional<CachedRun> Back;
      timed(E.T, "io.corpus_load", B + 1,
            [&] { Back = Cache.load(Key, Run.Prog.totalBlocks()); });
      E.C.expect(Back && sameRecords(Back->Records, Run.Records),
                 "a stored corpus entry loads back unchanged");
      std::error_code EC;
      uintmax_t Size = fs::file_size(Cache.entryPath(Key), EC);
      Bytes += EC ? 0 : Size;
    }
    E.T.set("io.corpus_bytes", static_cast<double>(Bytes));
    addCacheStats(Cache);
  }

  Env &E;
  std::vector<BenchmarkSpec> Specs;
  std::string CacheDir;
  std::unique_ptr<ExperimentEngine> Warm;
  std::vector<BenchmarkRun> Runs;
  std::vector<double> Thresholds;
  static constexpr unsigned Passes = 16;
  std::vector<std::unique_ptr<SchedContext>> Contexts; ///< one per task
  std::vector<std::vector<double>> TaskLatency;        ///< one per task
  bool First = false;
  std::vector<ThresholdResult> Result;
  std::vector<CompileReport> LN;
};

} // namespace

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {
      "compile_batch", "serve_mix", "report_sweep"};
  return Names;
}

std::unique_ptr<Workload> perfbench::makeWorkload(const std::string &Name,
                                                  Env &E) {
  if (Name == "compile_batch")
    return std::make_unique<CompileBatch>(E);
  if (Name == "serve_mix")
    return std::make_unique<ServeMix>(E);
  if (Name == "report_sweep")
    return std::make_unique<ReportSweep>(E);
  return nullptr;
}
