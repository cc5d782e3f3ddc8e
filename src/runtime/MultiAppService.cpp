//===- runtime/MultiAppService.cpp - Deterministic adaptive-JIT engine ------===//

#include "runtime/MultiAppService.h"

#include "io/FilterRegistry.h"
#include "io/TraceStore.h"
#include "ml/Ripper.h"
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
  // The filter decides every block the optimizing tier compiles, or (the
  // LS tier) none.
  if (Tot.FilterLS + Tot.FilterNS != 0 &&
      (Tot.FilterLS != Tot.BlocksScheduled ||
       Tot.FilterLS + Tot.FilterNS != Tot.BlocksCompiled))
    return "FilterLS == BlocksScheduled and FilterLS + FilterNS == "
           "BlocksCompiled";

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
  // One extra entry, the idle method, stands for a tick an empty program
  // owns: it charges nothing and never leaves the baseline tier.
  enum class MethodState : uint8_t { Baseline, Queued, Optimizing };
  const uint32_t IdleMethod = static_cast<uint32_t>(NumMethods);
  struct InvocationCost {
    double Current;  ///< the method's current-tier cost
    double Baseline; ///< its baseline cost, throughout
  };
  std::vector<InvocationCost> Cost(NumMethods + 1, {0.0, 0.0});
  for (size_t M = 0; M != NumMethods; ++M)
    Cost[M] = {BaselineCost[M], BaselineCost[M]};
  std::vector<MethodState> State(NumMethods + 1, MethodState::Baseline);
  std::vector<uint32_t> Samples(NumMethods + 1, 0);
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

  // What one chunk's ticks drew: the charge slot (the owning app, or
  // IdleSlot for a tick an empty program owns) and the invoked method.
  // A lone app's slots stay 0 all run.  Sized by DrawChunk, never by
  // the epoch length.
  const uint32_t IdleSlot = static_cast<uint32_t>(Apps.size());
  std::vector<uint32_t> TickSlot(DrawChunk, 0);
  std::vector<uint32_t> TickMethod(DrawChunk);
  // The application-side folds, written back at stream end: the
  // aggregate in locals, each app (plus the discarded idle slot) in its
  // own entry.  Each fold adds the same costs in the same tick order as a
  // per-tick update of St would, so the doubles carry the same bits.
  struct AppCharge {
    double AppTime = 0.0;
    double BaselineAppTime = 0.0;
    uint64_t Invocations = 0;
    uint64_t Optimized = 0;
  };
  std::vector<AppCharge> Charge(Apps.size() + 1);
  double AppTime = 0.0;
  double BaselineAppTime = 0.0;

  // Drains compile on this thread through one context reused all run: a
  // drain is a few methods, less work than a fork/join over the pool.
  SchedContext Ctx;
  MethodCompiler MC(Model, Ctx);
  double QueueDepthSum = 0.0;

  // Online self-training state.  Cur is the filter version the *next*
  // drain compiles with; a retrain triggered at boundary E becomes
  // PendingArt and installs at boundary E+1 -- the virtual clock's model
  // of background training latency, mirroring compile latency.  The
  // corpus is the seed corpus followed by every optimizing-tier compile's
  // trace in drain order, and every retrain happens on this serial path,
  // so the swap sequence is a pure function of (seed, config) at any job
  // count.  Swaps and compile pins fold into St.Total only: the filter
  // lineage is a property of the shared service, not of any single
  // tenant.
  FilterArtifactRef Cur = BaseArt;
  FilterArtifactRef PendingArt;
  std::vector<BlockRecord> Corpus;
  size_t TrainedRecords = 0; ///< corpus size at the last train
  uint64_t LastTrigger = 0;  ///< tick of the last retrain trigger
  auto InstallSwap = [&](const FilterArtifactRef &Art, uint64_t Epoch,
                         uint64_t Tick) {
    St.Total.Swaps.push_back({Epoch, Tick, Art->Version, Art->ParentVersion,
                              Art->TriggerTick, Art->CorpusRecords,
                              rulesFingerprint(Art->Rules)});
    if (Registry)
      Registry->store({Art->Version, Art->ParentVersion, Art->TriggerTick,
                       Cfg.StreamSeed, Art->CorpusRecords,
                       Cfg.RetrainThreshold, Model.getName(), RegistryWorkload},
                      Art->Rules);
  };
  if (Cfg.Online) {
    Corpus = SeedCorpus;
    TrainedRecords = Corpus.size();
    InstallSwap(Cur, 0, 0);
  }

  // The interleave CDF of the current epoch.  Without drift this IS the
  // static mix; with drift it is rebuilt (serially, per epoch) from the
  // pure per-epoch factors, so the drifting stream replays identically
  // at any job count.
  CdfTable EpochDraw = AppDraw;
  std::vector<double> DriftCum(Apps.size());
  // Tick T is sampled iff T % SampleEvery == 0; SampleIn counts the ticks
  // from the current chunk's start to the next sample.  Every tick
  // counts, an idle one included.  (SampleEvery 0 wraps to a 2^32-tick
  // period, as a 32-bit countdown would.)
  const uint64_t SamplePeriod = uint64_t(Cfg.SampleEvery - 1) + 1;
  uint64_t SampleIn = 0;

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
    const uint64_t EpochEnd = std::min(Tick + Cfg.EpochLen, Cfg.Invocations);
    // The epoch's ticks, one chunk at a time.  Within an epoch no method
    // changes tier or cost (only a drain does), so charging a tick never
    // depends on what the sampler did to the ticks before it: each stage
    // runs over the whole chunk, and no stream's draw order or fold
    // order changes.
    while (Tick != EpochEnd) {
      const size_t Len =
          static_cast<size_t>(std::min<uint64_t>(EpochEnd - Tick, DrawChunk));

      // Stage 1: whose tick is it?  One uniform draw on the interleave
      // CDF per tick.
      if (Interleaved)
        for (size_t I = 0; I != Len; ++I)
          TickSlot[I] =
              static_cast<uint32_t>(EpochDraw.index(Interleave.next53()));

      // Stage 2: the invoked method, one profile-weighted CDF draw on the
      // owning app's own substream.  An empty program draws nothing; its
      // tick elapses idle.
      for (size_t I = 0; I != Len; ++I) {
        const uint32_t A = TickSlot[I];
        const CdfTable &Methods = MethodDraw[A];
        if (Methods.total() > 0.0) {
          TickMethod[I] = static_cast<uint32_t>(
              Offset[A] + Methods.index(AppStream[A].next53()));
        } else {
          TickMethod[I] = IdleMethod;
          TickSlot[I] = IdleSlot;
        }
      }

      // Stage 3: charge every tick in tick order, then run the sampler
      // over the chunk's sampled ticks, also in tick order.
      for (size_t I = 0; I != Len; ++I) {
        const uint32_t M = TickMethod[I];
        const InvocationCost C = Cost[M];
        AppCharge &Ch = Charge[TickSlot[I]];
        AppTime += C.Current;
        BaselineAppTime += C.Baseline;
        Ch.AppTime += C.Current;
        Ch.BaselineAppTime += C.Baseline;
        ++Ch.Invocations;
        Ch.Optimized += State[M] == MethodState::Optimizing;
      }
      for (; SampleIn < Len; SampleIn += SamplePeriod) {
        const uint32_t M = TickMethod[SampleIn];
        if (M == IdleMethod)
          continue; // a sampled idle tick inspects nothing
        ++St.Total.SampledInvocations;
        if (++Samples[M] >= Cfg.HotThreshold &&
            State[M] == MethodState::Baseline) {
          // Backpressure: a full queue sheds the nomination; the method
          // stays hot and is re-nominated at its next sample.
          ServiceStats &App = St.PerApp[TickSlot[SampleIn]];
          if (Queue.push(M)) {
            State[M] = MethodState::Queued;
            ++App.Promotions;
          } else {
            ++App.Deferred;
          }
        }
      }
      SampleIn -= Len;
      Tick += Len;
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
      std::optional<ScheduleFilter> F;
      if (Cur && Cfg.OptimizingPolicy == SchedulingPolicy::Filtered)
        F.emplace(Cur);
      CompileReport Report;
      MC.compileMethod(Meth, Cfg.OptimizingPolicy, F ? &*F : nullptr, Report);
      State[M] = MethodState::Optimizing;
      Cost[M].Current = Report.SimulatedTime;
      ServiceStats &App = St.PerApp[A];
      App.SchedulingWork += Report.SchedulingWork;
      App.FilterWork += Report.FilterWork;
      App.BlocksCompiled += Report.NumBlocks;
      App.BlocksScheduled += Report.NumScheduled;
      if (F) {
        App.FilterLS += Report.NumScheduled;
        App.FilterNS += Report.NumBlocks - Report.NumScheduled;
      }
      ++App.CompiledMethods;
      ++App.MethodsOptimized; // a method is only ever compiled once
      St.Total.Compiles.push_back({St.Total.Epochs, M,
                                   Cur ? Cur->Version : 0,
                                   Report.SchedulingWork});
      if (Cfg.Online) {
        size_t Before = Corpus.size();
        MC.traceMethod(Meth, Corpus);
        St.Total.CorpusRecords += Corpus.size() - Before;
      }
    }

    // Retrain once RetrainEvery ticks have passed since the last trigger
    // (or tick 0) and the corpus has grown since the last train: an idle
    // interval with nothing new to learn from retrains nothing.  RIPPER
    // is a batch learner, so each retrain labels and learns the whole
    // corpus, and each version is a pure function of the records up to
    // its trigger.
    if (Cfg.Online && Tick - LastTrigger >= Cfg.RetrainEvery &&
        Corpus.size() != TrainedRecords) {
      LastTrigger = Tick;
      TrainedRecords = Corpus.size();
      RuleSet RS = Ripper().train(
          buildDataset(Corpus, Cfg.RetrainThreshold, "online", &Pool), Pool);
      PendingArt = makeFilterArtifact(std::move(RS), Cur->Version + 1,
                                      Cur->Version, Tick, Corpus.size());
      ++St.Total.Retrains;
    }
  }

  // Write the application-side folds back; the idle slot is discarded.
  for (size_t A = 0; A != Apps.size(); ++A) {
    ServiceStats &App = St.PerApp[A];
    App.Invocations = Charge[A].Invocations;
    App.OptimizedInvocations = Charge[A].Optimized;
    App.BaselineInvocations = Charge[A].Invocations - Charge[A].Optimized;
    App.AppTime = Charge[A].AppTime;
    App.BaselineAppTime = Charge[A].BaselineAppTime;
  }
  St.Total.AppTime = AppTime;
  St.Total.BaselineAppTime = BaselineAppTime;

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
    const std::string &Workload) {
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
      Filtered.setFilterRegistry(Registry, Workload);
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
