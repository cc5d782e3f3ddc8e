//===- runtime/MultiAppService.cpp - Deterministic adaptive-JIT engine ------===//

#include "runtime/MultiAppService.h"

#include "io/FilterRegistry.h"
#include "io/TraceStore.h"
#include "runtime/MethodCompiler.h"
#include "runtime/RecompileQueue.h"
#include "sched/SchedContext.h"
#include "support/Rng.h"

#include <algorithm>
#include <cassert>

using namespace schedfilter;

bool schedfilter::operator==(const ServiceStats::FilterSwapStat &A,
                             const ServiceStats::FilterSwapStat &B) {
  return A.Epoch == B.Epoch && A.Tick == B.Tick && A.Version == B.Version &&
         A.ParentVersion == B.ParentVersion &&
         A.TriggerTick == B.TriggerTick &&
         A.CorpusRecords == B.CorpusRecords && A.RulesHash == B.RulesHash;
}

bool schedfilter::operator==(const ServiceStats::CompilePinStat &A,
                             const ServiceStats::CompilePinStat &B) {
  return A.Epoch == B.Epoch && A.Method == B.Method &&
         A.FilterVersion == B.FilterVersion &&
         A.SchedulingWork == B.SchedulingWork;
}

bool schedfilter::operator==(const ServiceStats &A, const ServiceStats &B) {
  return A.Invocations == B.Invocations && A.Epochs == B.Epochs &&
         A.SampledInvocations == B.SampledInvocations &&
         A.Promotions == B.Promotions && A.Deferred == B.Deferred &&
         A.CompiledMethods == B.CompiledMethods &&
         A.MethodsOptimized == B.MethodsOptimized &&
         A.MethodsTotal == B.MethodsTotal &&
         A.MaxQueueDepth == B.MaxQueueDepth &&
         A.MeanQueueDepth == B.MeanQueueDepth &&
         A.FinalQueueDepth == B.FinalQueueDepth &&
         A.BaselineInvocations == B.BaselineInvocations &&
         A.OptimizedInvocations == B.OptimizedInvocations &&
         A.SchedulingWork == B.SchedulingWork &&
         A.FilterWork == B.FilterWork &&
         A.BlocksCompiled == B.BlocksCompiled &&
         A.BlocksScheduled == B.BlocksScheduled &&
         A.FilterLS == B.FilterLS && A.FilterNS == B.FilterNS &&
         A.AppTime == B.AppTime && A.BaselineAppTime == B.BaselineAppTime &&
         A.Retrains == B.Retrains && A.CorpusRecords == B.CorpusRecords &&
         A.FinalFilterVersion == B.FinalFilterVersion && A.Swaps == B.Swaps &&
         A.Compiles == B.Compiles;
}

uint64_t schedfilter::invocationStreamSeed(uint64_t WorkloadSeed) {
  // Forked, not derived by ad-hoc arithmetic: the stream must be
  // statistically independent of the generator's own draws from the same
  // seed, or invocation hotness would correlate with program shape.
  return Rng(WorkloadSeed).fork(0x1457BEA7CA11ULL).next64();
}

bool schedfilter::operator==(const MultiAppStats &A, const MultiAppStats &B) {
  return A.Total == B.Total && A.AppNames == B.AppNames &&
         A.PerApp == B.PerApp;
}

namespace {

/// The integer fields an app's ServiceStats shares with the aggregate,
/// besides MethodsTotal: run() folds them per app and sums them into the
/// aggregate at stream end.
constexpr uint64_t ServiceStats::*PerAppFields[] = {
    &ServiceStats::Promotions,          &ServiceStats::Deferred,
    &ServiceStats::CompiledMethods,     &ServiceStats::MethodsOptimized,
    &ServiceStats::BaselineInvocations, &ServiceStats::OptimizedInvocations,
    &ServiceStats::SchedulingWork,      &ServiceStats::FilterWork,
    &ServiceStats::BlocksCompiled,      &ServiceStats::BlocksScheduled,
    &ServiceStats::FilterLS,            &ServiceStats::FilterNS};

} // namespace

std::optional<std::string>
schedfilter::checkServiceStats(const MultiAppStats &St) {
  const ServiceStats &Tot = St.Total;
  // An app that executed nothing may own ticks that elapse without an
  // invocation (an empty program); the aggregate still counts them.
  bool IdleApp = false;
  for (size_t A = 0; A != St.PerApp.size(); ++A) {
    const ServiceStats &App = St.PerApp[A];
    IdleApp |= App.Invocations == 0;
    if (App.BaselineInvocations + App.OptimizedInvocations != App.Invocations)
      return "Baseline + Optimized == Invocations (app " + std::to_string(A) +
             ")";
  }
  uint64_t Executed = Tot.BaselineInvocations + Tot.OptimizedInvocations;
  if (IdleApp ? Executed > Tot.Invocations : Executed != Tot.Invocations)
    return "Baseline + Optimized == Invocations";
  if (Tot.Promotions != Tot.CompiledMethods + Tot.FinalQueueDepth)
    return "Promotions == CompiledMethods + FinalQueueDepth";
  if (Tot.Compiles.size() != Tot.CompiledMethods)
    return "Compiles.size() == CompiledMethods";

  // Per-app Invocations need no check of their own: the per-app identity
  // and the tier-residency sums imply they add up to the executed ones.
  auto SumsToTotal = [&](uint64_t ServiceStats::*Field) {
    uint64_t Sum = 0;
    for (const ServiceStats &App : St.PerApp)
      Sum += App.*Field;
    return Sum == Tot.*Field;
  };
  if (!SumsToTotal(&ServiceStats::MethodsTotal) ||
      !std::all_of(std::begin(PerAppFields), std::end(PerAppFields),
                   SumsToTotal))
    return "per-app integer fields sum to Total";

  for (size_t I = 1; I < Tot.Compiles.size(); ++I)
    if (Tot.Compiles[I].FilterVersion < Tot.Compiles[I - 1].FilterVersion)
      return "compile-pin versions never decrease";
  return std::nullopt;
}

std::vector<AppSpec> schedfilter::expandWorkloadMix(
    const std::vector<std::pair<std::string, double>> &Mix) {
  std::vector<AppSpec> Apps;
  for (const auto &[FamilyName, Weight] : Mix) {
    const WorkloadFamily *F = findWorkloadFamily(FamilyName);
    assert(F && "unvalidated family name (tools check before expanding)");
    if (!F)
      continue;
    std::vector<BenchmarkSpec> Suite = F->makeBenchmarkSuite();
    assert(!Suite.empty() && "family with an empty suite");
    double Per = Weight / static_cast<double>(Suite.size());
    for (BenchmarkSpec &S : Suite)
      Apps.push_back({std::move(S), Per});
  }
  return Apps;
}

uint64_t schedfilter::workloadMixSeed(const std::vector<AppSpec> &Apps) {
  // Canonical serialization of every app's identity, hashed with the one
  // FNV-1a implementation -- the same stability contract as
  // specFingerprint.  The seed, not the mix string, is what every layer
  // forks from, so "specjvm98:1" and "specjvm98:1.0" are the same
  // session.
  std::string B;
  wire::putU64(B, Apps.size());
  for (const AppSpec &A : Apps) {
    wire::putString(B, A.Spec.Family);
    wire::putString(B, A.Spec.Name);
    wire::putU64(B, A.Spec.Seed);
    wire::putF64(B, A.Weight);
  }
  return wire::fnv1a(B.data(), B.size());
}

std::vector<Program>
schedfilter::generateMixPrograms(const std::vector<AppSpec> &Apps) {
  std::vector<Program> Programs;
  Programs.reserve(Apps.size());
  for (const AppSpec &A : Apps)
    Programs.push_back(generateWorkloadProgram(A.Spec));
  return Programs;
}

MultiAppService::MultiAppService(const std::vector<AppSpec> &Apps,
                                 const std::vector<Program> &Programs,
                                 const MachineModel &Model,
                                 const ServiceConfig &Cfg,
                                 const RuleSet *Rules, TaskPool &Pool,
                                 const std::vector<double> *SharedBaselineCost)
    : Apps(Apps), Programs(Programs), Model(Model), Cfg(Cfg), Pool(Pool) {
  assert(Apps.size() == Programs.size() && "one program per app");
  assert((Cfg.OptimizingPolicy == SchedulingPolicy::Filtered) ==
             (Rules != nullptr) &&
         "rules must be supplied exactly for the Filtered policy");
  assert((!Cfg.Online || Rules) && "online mode requires the Filtered policy");

  if (Rules)
    BaseArt = makeFilterArtifact(*Rules, Cfg.Online ? 1 : 0);

  // App-interleave CDF and, per app, the method-draw CDF: methods are
  // invoked proportionally to their total profile weight, the population
  // the generator's hotness profile encodes.  An empty program gets an
  // empty table (total 0): its ticks elapse without a method draw.
  std::vector<double> AppCum;
  double TotalAppWeight = 0.0;
  size_t NumMethods = 0;
  for (size_t A = 0; A != Apps.size(); ++A) {
    TotalAppWeight += Apps[A].Weight;
    AppCum.push_back(TotalAppWeight);

    std::vector<double> Cum;
    double Total = 0.0;
    for (const Method &M : Programs[A]) {
      double W = 0.0;
      for (const BasicBlock &BB : M)
        W += static_cast<double>(BB.getExecCount());
      Total += W;
      Cum.push_back(Total);
    }
    MethodDraw.emplace_back(Cum);

    Offset.push_back(NumMethods);
    NumMethods += Programs[A].size();
  }
  AppDraw.rebuild(AppCum);

  if (SharedBaselineCost) {
    assert(SharedBaselineCost->size() == NumMethods &&
           "shared baseline costs must come from the same apps");
    BaselineCost = *SharedBaselineCost;
    return;
  }
  // Baseline tier: per-invocation cost of every method compiled without
  // scheduling, a pure function of (programs, model).  Chunked so each
  // worker folds its contiguous range through one reused SchedContext;
  // results stay index-owned per method, identical at any job count.
  BaselineCost.resize(NumMethods);
  size_t NumChunks = std::min<size_t>(NumMethods, Pool.jobs());
  if (NumChunks) {
    size_t PerChunk = (NumMethods + NumChunks - 1) / NumChunks;
    Pool.parallelFor(NumChunks, [&](size_t C) {
      SchedContext Ctx;
      MethodCompiler MC(Model, Ctx);
      size_t End = std::min(NumMethods, (C + 1) * PerChunk);
      for (size_t I = C * PerChunk; I < End; ++I) {
        size_t A = appOf(I);
        CompileReport R;
        MC.compileMethod(Programs[A][I - Offset[A]], SchedulingPolicy::Never,
                         nullptr, R);
        BaselineCost[I] = R.SimulatedTime;
      }
    });
  }
}

size_t MultiAppService::appOf(size_t GlobalMethod) const {
  size_t A = static_cast<size_t>(
      std::upper_bound(Offset.begin(), Offset.end(), GlobalMethod) -
      Offset.begin());
  return A - 1;
}

MultiAppStats MultiAppService::run() {
  MultiAppStats St;
  St.PerApp.resize(Apps.size());
  for (size_t A = 0; A != Apps.size(); ++A) {
    St.AppNames.push_back(Apps[A].Spec.Name);
    St.PerApp[A].MethodsTotal = Programs[A].size();
    St.Total.MethodsTotal += Programs[A].size();
  }
  const size_t NumMethods = BaselineCost.size();
  if (NumMethods == 0 || AppDraw.total() <= 0.0)
    return St;

  // Where each method is on its way through the tiers.  Queued methods
  // still run baseline code; only a drain moves a method to Optimizing.
  enum class MethodState : uint8_t { Baseline, Queued, Optimizing };
  std::vector<double> Cost = BaselineCost;
  std::vector<MethodState> State(NumMethods, MethodState::Baseline);
  std::vector<uint32_t> Samples(NumMethods, 0);
  RecompileQueue Queue(Cfg.QueueCap);

  // The session's entropy: stream 0 decides *which app* owns each tick;
  // stream A+1 is app A's private method sequence.  Because the
  // substreams never interact, reweighting the mix reshuffles only the
  // schedule, never any app's own draw sequence.  A lone app owns every
  // tick without a draw, and its method sequence is stream 0 itself.
  const bool Interleaved = Apps.size() > 1;
  Rng Interleave = Rng(Cfg.StreamSeed).fork(0);
  std::vector<Rng> AppStream;
  for (size_t A = 0; A != Apps.size(); ++A)
    AppStream.push_back(Interleaved ? Rng(Cfg.StreamSeed).fork(A + 1)
                                    : Interleave);

  // Drains compile on this thread through one context reused all run: a
  // drain is a few methods, less work than a fork/join over the pool.
  SchedContext Ctx;
  MethodCompiler MC(Model, Ctx);
  std::vector<BlockRecord> Records; ///< serve trace (online mode only)
  double QueueDepthSum = 0.0;

  // Online self-training state.  Cur is the filter version the *next*
  // drain compiles with; a retrain triggered at boundary E becomes
  // PendingArt and installs at boundary E+1 -- the virtual clock's model
  // of background training latency, mirroring compile latency.  All
  // trainer calls happen on this serial path, so the swap sequence is a
  // pure function of (seed, config) at any job count.  Swaps and compile
  // pins fold into St.Total only: the filter lineage is a property of the
  // shared service, not of any single tenant.
  FilterArtifactRef Cur = BaseArt;
  FilterArtifactRef PendingArt;
  OnlineTrainer Trainer(Pool, Cfg.RetrainThreshold,
                        {Cfg.RetrainEvery, Cfg.MinRetrainRecords});
  auto InstallSwap = [&](const FilterArtifactRef &Art, uint64_t Epoch,
                         uint64_t Tick) {
    St.Total.Swaps.push_back({Epoch, Tick, Art->Version, Art->ParentVersion,
                              Art->TriggerTick, Art->CorpusRecords,
                              rulesFingerprint(Art->Rules)});
    if (Registry)
      Registry->store({Art->Version, Art->ParentVersion, Art->TriggerTick,
                       Cfg.StreamSeed, Art->CorpusRecords,
                       Cfg.RetrainThreshold, RegistryModel, RegistryWorkload},
                      Art->Rules);
  };
  if (Cfg.Online) {
    Trainer.seedCorpus(SeedCorpus);
    InstallSwap(Cur, 0, 0);
  }

  // The interleave CDF of the current epoch.  Without drift this IS the
  // static mix; with drift it is rebuilt (serially, per epoch) from the
  // pure per-epoch factors, so the drifting stream replays identically
  // at any job count.
  CdfTable EpochDraw = AppDraw;
  std::vector<double> DriftCum(Apps.size());
  // Ticks until the next sample: tick T is sampled iff T % SampleEvery
  // == 0.  Every tick counts, a degenerate app's included.
  uint32_t SampleIn = 0;

  for (uint64_t Tick = 0; Tick < Cfg.Invocations;) {
    if (MixDrift) {
      double EpochTotal = 0.0;
      for (size_t A = 0; A != Apps.size(); ++A) {
        EpochTotal += Apps[A].Weight * MixDrift(St.Total.Epochs, A);
        DriftCum[A] = EpochTotal;
      }
      assert(EpochTotal > 0.0 && "drift factors must stay positive");
      EpochDraw.rebuild(DriftCum);
    }
    uint64_t EpochEnd = std::min(Tick + Cfg.EpochLen, Cfg.Invocations);
    for (; Tick != EpochEnd; ++Tick) {
      // Whose tick is it?  One uniform draw on the interleave CDF.
      size_t A = Interleaved ? EpochDraw.index(Interleave.next53()) : 0;
      const bool Sampled = SampleIn == 0;
      SampleIn = Sampled ? Cfg.SampleEvery - 1 : SampleIn - 1;
      const CdfTable &Methods = MethodDraw[A];
      if (Methods.total() <= 0.0)
        continue; // degenerate app (empty program); tick still elapses

      // The invoked method: one profile-weighted CDF draw on the app's
      // own substream.
      size_t M = Offset[A] + Methods.index(AppStream[A].next53());

      ServiceStats &App = St.PerApp[A];
      ++App.Invocations;
      St.Total.AppTime += Cost[M];
      St.Total.BaselineAppTime += BaselineCost[M];
      App.AppTime += Cost[M];
      App.BaselineAppTime += BaselineCost[M];
      ++(State[M] == MethodState::Optimizing ? App.OptimizedInvocations
                                             : App.BaselineInvocations);

      if (Sampled) {
        ++St.Total.SampledInvocations;
        ++Samples[M];
        if (State[M] == MethodState::Baseline &&
            Samples[M] >= Cfg.HotThreshold) {
          // Backpressure: a full queue sheds the nomination; the method
          // stays hot and is re-nominated at its next sample.
          if (Queue.push(static_cast<uint32_t>(M))) {
            State[M] = MethodState::Queued;
            ++App.Promotions;
          } else {
            ++App.Deferred;
          }
        }
      }
    }

    // Epoch boundary: the shared virtual compiler drains for all apps.
    ++St.Total.Epochs;
    St.Total.MaxQueueDepth =
        std::max<uint64_t>(St.Total.MaxQueueDepth, Queue.size());
    QueueDepthSum += static_cast<double>(Queue.size());

    // Install the pending retrain before this boundary's drain (mid-epoch
    // pinning: everything compiled since the trigger kept the old version).
    if (PendingArt) {
      Cur = std::move(PendingArt);
      PendingArt = nullptr;
      InstallSwap(Cur, St.Total.Epochs, Tick);
    }

    // Retire requests in FIFO order, each folding into its app's stats as
    // it compiles.  The new tier takes effect from the next epoch's first
    // tick -- compile latency under the virtual clock.
    uint32_t M = 0;
    for (uint32_t I = 0; I != Cfg.DrainPerEpoch && Queue.pop(M); ++I) {
      size_t A = appOf(M);
      const Method &Meth = Programs[A][M - Offset[A]];
      CompileReport Report;
      uint64_t FilterLS = 0, FilterNS = 0;
      if (Cur && Cfg.OptimizingPolicy == SchedulingPolicy::Filtered) {
        ScheduleFilter F(Cur);
        MC.compileMethod(Meth, Cfg.OptimizingPolicy, &F, Report);
        FilterLS = F.numScheduleDecisions();
        FilterNS = F.numSkipDecisions();
      } else {
        MC.compileMethod(Meth, Cfg.OptimizingPolicy, nullptr, Report);
      }
      State[M] = MethodState::Optimizing;
      Cost[M] = Report.SimulatedTime;
      ServiceStats &App = St.PerApp[A];
      App.SchedulingWork += Report.SchedulingWork;
      App.FilterWork += Report.FilterWork;
      App.BlocksCompiled += Report.NumBlocks;
      App.BlocksScheduled += Report.NumScheduled;
      App.FilterLS += FilterLS;
      App.FilterNS += FilterNS;
      ++App.CompiledMethods;
      ++App.MethodsOptimized; // a method is only ever compiled once
      St.Total.Compiles.push_back({St.Total.Epochs, M,
                                   Cur ? Cur->Version : 0,
                                   Report.SchedulingWork});
      if (Cfg.Online) {
        Records.clear();
        CompileReport TracedLS; // the trace's LS report; serving uses Report
        MC.traceMethod(Meth, Records, TracedLS);
        St.Total.CorpusRecords += Records.size();
        Trainer.absorb(Records);
      }
    }

    if (Cfg.Online) {
      PendingArt = Trainer.maybeRetrain(Tick, Cur->Version);
      if (PendingArt)
        ++St.Total.Retrains;
    }
  }

  St.Total.FinalFilterVersion = Cur ? Cur->Version : 0;
  for (uint64_t ServiceStats::*Field : PerAppFields)
    for (const ServiceStats &App : St.PerApp)
      St.Total.*Field += App.*Field;

  St.Total.Invocations = Cfg.Invocations;
  St.Total.FinalQueueDepth = Queue.size();
  St.Total.MeanQueueDepth =
      St.Total.Epochs ? QueueDepthSum / static_cast<double>(St.Total.Epochs)
                      : 0.0;
  return St;
}

MultiAppComparison schedfilter::runMultiAppComparison(
    const std::vector<AppSpec> &Apps, const std::vector<Program> &Programs,
    const MachineModel &Model, ServiceConfig Cfg, const RuleSet &Rules,
    TaskPool &Pool, const std::function<double(uint64_t, size_t)> &MixDrift,
    std::vector<BlockRecord> SeedCorpus, FilterRegistry *Registry,
    const std::string &Workload, const std::string &ModelName) {
  MultiAppComparison Cmp;
  bool Online = Cfg.Online;

  Cfg.OptimizingPolicy = SchedulingPolicy::Always;
  Cfg.Online = false; // the LS tier ignores the filter; nothing to train
  MultiAppService Always(Apps, Programs, Model, Cfg, nullptr, Pool);
  Always.setMixDrift(MixDrift);
  Cmp.Always = Always.run();

  Cfg.OptimizingPolicy = SchedulingPolicy::Filtered;
  Cfg.Online = Online;
  MultiAppService Filtered(Apps, Programs, Model, Cfg, &Rules, Pool,
                           &Always.baselineCosts());
  Filtered.setMixDrift(MixDrift);
  if (Online) {
    Filtered.setSeedCorpus(std::move(SeedCorpus));
    if (Registry)
      Filtered.setFilterRegistry(Registry, Workload, ModelName);
  }
  Cmp.Filtered = Filtered.run();

  auto Recoup = [](const ServiceStats &LS, const ServiceStats &LN) {
    if (!LS.SchedulingWork)
      return 0.0;
    return (static_cast<double>(LS.SchedulingWork) -
            static_cast<double>(LN.SchedulingWork)) /
           static_cast<double>(LS.SchedulingWork);
  };
  Cmp.RecoupedWorkFraction = Recoup(Cmp.Always.Total, Cmp.Filtered.Total);
  for (size_t A = 0; A != Apps.size(); ++A)
    Cmp.PerAppRecoup.push_back(
        Recoup(Cmp.Always.PerApp[A], Cmp.Filtered.PerApp[A]));
  return Cmp;
}
