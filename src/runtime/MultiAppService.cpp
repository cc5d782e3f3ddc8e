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
    : Apps(Apps), Programs(Programs), Model(Model), Cfg(Cfg), Rules(Rules),
      Pool(Pool) {
  assert(Apps.size() == Programs.size() && "one program per app");
  assert((Cfg.OptimizingPolicy == SchedulingPolicy::Filtered) ==
             (Rules != nullptr) &&
         "rules must be supplied exactly for the Filtered policy");
  assert((!Cfg.Online || Rules) && "online mode requires the Filtered policy");

  if (Rules)
    BaseArt = makeFilterArtifact(*Rules, Cfg.Online ? 1 : 0);

  // App-interleave CDF and, per app, the method-draw CDF: methods are
  // invoked proportionally to their total profile weight, the population
  // the generator's hotness profile encodes.
  size_t NumMethods = 0;
  for (size_t A = 0; A != Apps.size(); ++A) {
    TotalAppWeight += Apps[A].Weight;
    AppCumWeight.push_back(TotalAppWeight);

    std::vector<double> Cum;
    double Total = 0.0;
    for (const Method &M : Programs[A]) {
      double W = 0.0;
      for (const BasicBlock &BB : M)
        W += static_cast<double>(BB.getExecCount());
      Total += W;
      Cum.push_back(Total);
    }
    CumWeight.push_back(std::move(Cum));
    TotalWeight.push_back(Total);

    Offset.push_back(NumMethods);
    NumMethods += Programs[A].size();
  }

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
  if (NumMethods == 0 || TotalAppWeight <= 0.0)
    return St;

  std::vector<double> Cost = BaselineCost;
  std::vector<Tier> Tiers(NumMethods, Tier::Baseline);
  std::vector<uint32_t> Samples(NumMethods, 0);
  std::vector<bool> Pending(NumMethods, false);
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

  struct CompileOutcome {
    CompileReport Report;
    uint64_t FilterLS = 0;
    uint64_t FilterNS = 0;
    std::vector<BlockRecord> Records; ///< serve trace (online mode only)
  };
  std::vector<uint32_t> Drained;
  std::vector<CompileOutcome> Outcomes;
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
  std::vector<double> EpochCum = AppCumWeight;
  double EpochTotal = TotalAppWeight;
  uint64_t EpochIndex = 0;

  for (uint64_t Tick = 0; Tick < Cfg.Invocations;) {
    if (MixDrift) {
      EpochTotal = 0.0;
      for (size_t A = 0; A != Apps.size(); ++A) {
        EpochTotal += Apps[A].Weight * MixDrift(EpochIndex, A);
        EpochCum[A] = EpochTotal;
      }
      assert(EpochTotal > 0.0 && "drift factors must stay positive");
    }
    ++EpochIndex;
    uint64_t EpochEnd = std::min(Tick + Cfg.EpochLen, Cfg.Invocations);
    for (; Tick != EpochEnd; ++Tick) {
      // Whose tick is it?  One uniform draw on the interleave CDF.
      size_t A = 0;
      if (Interleaved) {
        double U = Interleave.uniform() * EpochTotal;
        A = static_cast<size_t>(
            std::upper_bound(EpochCum.begin(), EpochCum.end(), U) -
            EpochCum.begin());
        A = std::min(A, Apps.size() - 1);
      }
      if (TotalWeight[A] <= 0.0)
        continue; // degenerate app (empty program); tick still elapses

      // The invoked method: one profile-weighted CDF draw on the app's
      // own substream.
      const std::vector<double> &Cum = CumWeight[A];
      double V = AppStream[A].uniform() * TotalWeight[A];
      size_t Local = static_cast<size_t>(
          std::upper_bound(Cum.begin(), Cum.end(), V) - Cum.begin());
      size_t M = Offset[A] + std::min(Local, Cum.size() - 1);

      ServiceStats &App = St.PerApp[A];
      ++App.Invocations;
      St.Total.AppTime += Cost[M];
      St.Total.BaselineAppTime += BaselineCost[M];
      App.AppTime += Cost[M];
      App.BaselineAppTime += BaselineCost[M];
      if (Tiers[M] == Tier::Baseline) {
        ++St.Total.BaselineInvocations;
        ++App.BaselineInvocations;
      } else {
        ++St.Total.OptimizedInvocations;
        ++App.OptimizedInvocations;
      }

      if (Tick % Cfg.SampleEvery == 0) {
        ++St.Total.SampledInvocations;
        ++Samples[M];
        if (Tiers[M] == Tier::Baseline && !Pending[M] &&
            Samples[M] >= Cfg.HotThreshold) {
          if (Queue.push(static_cast<uint32_t>(M))) {
            Pending[M] = true;
            ++St.Total.Promotions;
            ++App.Promotions;
          } else {
            // Backpressure: shed the nomination; the method stays hot and
            // is re-nominated at its next sample.
            ++St.Total.Deferred;
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

    Drained.clear();
    for (uint32_t I = 0; I != Cfg.DrainPerEpoch; ++I) {
      uint32_t M = 0;
      if (!Queue.pop(M))
        break;
      Drained.push_back(M);
    }

    Outcomes.assign(Drained.size(), CompileOutcome());
    Pool.parallelFor(Drained.size(), [&](size_t I) {
      // Per-task context and per-task filter view of the shared current
      // artifact: the filter's counters are not thread-safe, but the
      // artifact is immutable, so borrowing it keeps each outcome a pure
      // function of (method, model, version) without recompiling the
      // rules per task.
      SchedContext Ctx;
      MethodCompiler MC(Model, Ctx);
      size_t A = appOf(Drained[I]);
      const Method &Meth = Programs[A][Drained[I] - Offset[A]];
      CompileOutcome &Out = Outcomes[I];
      if (Cur && Cfg.OptimizingPolicy == SchedulingPolicy::Filtered) {
        ScheduleFilter F(Cur);
        MC.compileMethod(Meth, Cfg.OptimizingPolicy, &F, Out.Report);
        Out.FilterLS = F.numScheduleDecisions();
        Out.FilterNS = F.numSkipDecisions();
      } else {
        MC.compileMethod(Meth, Cfg.OptimizingPolicy, nullptr, Out.Report);
      }
      if (Cfg.Online)
        MC.traceMethod(Meth, Out.Records);
    });

    // Install in drain order (never completion order): deterministic stat
    // folds, and the new tier takes effect from the next epoch's first
    // tick -- compile latency under the virtual clock.  Each outcome
    // folds into its app's stats and the aggregate.
    for (size_t I = 0; I != Drained.size(); ++I) {
      uint32_t M = Drained[I];
      CompileOutcome &Out = Outcomes[I];
      ServiceStats &App = St.PerApp[appOf(M)];
      Tiers[M] = Tier::Optimizing;
      Pending[M] = false;
      Cost[M] = Out.Report.SimulatedTime;
      for (ServiceStats *Dst : {&St.Total, &App}) {
        Dst->SchedulingWork += Out.Report.SchedulingWork;
        Dst->FilterWork += Out.Report.FilterWork;
        Dst->BlocksCompiled += Out.Report.NumBlocks;
        Dst->BlocksScheduled += Out.Report.NumScheduled;
        Dst->FilterLS += Out.FilterLS;
        Dst->FilterNS += Out.FilterNS;
        ++Dst->CompiledMethods;
      }
      St.Total.Compiles.push_back({St.Total.Epochs, M,
                                   Cur ? Cur->Version : 0,
                                   Out.Report.SchedulingWork});
      if (Cfg.Online) {
        St.Total.CorpusRecords += Out.Records.size();
        Trainer.absorb(Out.Records);
      }
    }

    if (Cfg.Online) {
      PendingArt = Trainer.maybeRetrain(Tick, Cur->Version);
      if (PendingArt)
        ++St.Total.Retrains;
    }
  }

  St.Total.FinalFilterVersion = Cur ? Cur->Version : 0;

  St.Total.Invocations = Cfg.Invocations;
  St.Total.FinalQueueDepth = Queue.size();
  St.Total.MeanQueueDepth =
      St.Total.Epochs ? QueueDepthSum / static_cast<double>(St.Total.Epochs)
                      : 0.0;
  for (size_t M = 0; M != NumMethods; ++M)
    if (Tiers[M] == Tier::Optimizing) {
      ++St.Total.MethodsOptimized;
      ++St.PerApp[appOf(M)].MethodsOptimized;
    }
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
