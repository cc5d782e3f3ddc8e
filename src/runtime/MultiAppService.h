//===- runtime/MultiAppService.h - Deterministic adaptive-JIT engine -*- C++ -*-===//
///
/// \file
/// The runtime subsystem: a MultiAppService receives a method-invocation
/// stream instead of batch-compiling whole programs, the regime the
/// paper's host system (Jikes RVM's adaptive optimization system)
/// actually runs in and the one §3.1 discusses for hot-method-only
/// compilation.  Methods start in a baseline tier (never scheduled);
/// sampling-based hotness counters nominate hot methods into a bounded
/// recompilation queue; a virtual compiler drains the queue at epoch
/// boundaries and installs optimizing-tier code, where the scheduling
/// policy (NS / LS / the induced ScheduleFilter) is applied block by
/// block.
///
/// The stream is drawn from one or more applications.  Each app is one
/// benchmark weighted by its share of the interleave; the service keeps
/// a single global virtual clock, hotness sampler, bounded queue and
/// epoch drain across all apps, so apps compete for compilation
/// bandwidth exactly as tenants compete in a shared VM.  Single-app
/// serving (sf-serve --benchmark) is the one-app case of the same engine.
///
/// Everything is deterministic by construction, at any TaskPool job count
/// and with a cold or warm corpus cache:
///   - the stream is replayed from a session seed (invocationStreamSeed
///     for one benchmark, workloadMixSeed for a mix), so the stream is
///     part of the workload's identity, not of the run;
///   - with several apps, Rng(StreamSeed).fork(0) decides which app owns
///     each tick and fork(A + 1) is app A's private method sequence -- so
///     adding app B never perturbs app A's draws, only its schedule on the
///     clock.  A lone app owns every tick without a draw and takes its
///     methods from fork(0);
///   - time is virtual: one invocation advances the clock one tick, and a
///     method nominated during an epoch is installed exactly at that
///     epoch's boundary, never earlier -- so compile latency is modeled
///     without depending on worker timing;
///   - the bounded queue (runtime/RecompileQueue.h) is FIFO and its
///     backpressure rule (drop when full, re-nominate at the next hot
///     sample) depends only on arrival order;
///   - dispatch is staged: each epoch is served in chunks of at most
///     DrawChunk ticks, and each chunk first draws every tick's app, then
///     every tick's method, then charges its ticks and runs the sampler
///     over them in tick order.  Each stream is still drawn in tick order
///     and every cost is still folded in tick order, and no method changes
///     tier or cost inside an epoch (only a drain does), so the stats are
///     bit-identical to a tick-at-a-time loop's;
///   - drained requests compile on the service's own thread, in drain
///     order, through one SchedContext reused across epochs, and each
///     folds into the stats as it retires.  A drain is a few methods, so a
///     fork/join over the TaskPool would cost more than the compiles; the
///     pool builds the baseline tier and trains online filter versions.
/// tests/runtime_test.cpp pins jobs=1 vs jobs=4 stats equality field by
/// field, doubles included.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_RUNTIME_MULTIAPPSERVICE_H
#define SCHEDFILTER_RUNTIME_MULTIAPPSERVICE_H

#include "filter/FilterVersion.h"
#include "filter/Pipeline.h"
#include "ml/Labeler.h"
// perfbench/Workloads.cpp reaches Ripper through this header.
#include "ml/Ripper.h"
#include "support/CdfTable.h"
#include "support/TaskPool.h"
#include "target/MachineModel.h"
#include "workloads/WorkloadMix.h"

#include <cstdint>
#include <functional>
#include <optional>

namespace schedfilter {

class FilterRegistry;

/// Knobs of one service run.  Defaults are the sf-serve defaults; the
/// golden headline (Golden.ServeRecoupedHeadline) is pinned against them.
struct ServiceConfig {
  /// Policy of the optimizing tier.  Filtered requires a rule set.
  SchedulingPolicy OptimizingPolicy = SchedulingPolicy::Filtered;
  /// Length of the invocation stream (virtual ticks).
  uint64_t Invocations = 200000;
  /// Sampling period: every Nth invocation is sampled into the hotness
  /// counters (Jikes RVM samples on timer ticks; a fixed stride is its
  /// deterministic stand-in).
  uint32_t SampleEvery = 16;
  /// Samples a baseline method must accumulate before it is nominated for
  /// the optimizing tier (the --hot-threshold flag).  The default keeps
  /// the service selective -- roughly the hottest two thirds of a stock
  /// workload's methods promote over a 200k-invocation stream.
  uint32_t HotThreshold = 32;
  /// Capacity of the bounded recompilation queue (the --queue-cap flag).
  uint32_t QueueCap = 32;
  /// Requests the virtual compiler retires per epoch boundary.
  uint32_t DrainPerEpoch = 4;
  /// Invocations per epoch (compile-install granularity of the virtual
  /// clock).
  uint32_t EpochLen = 1024;
  /// Seed of the invocation stream; derive with invocationStreamSeed so
  /// the stream is a pure function of the workload.
  uint64_t StreamSeed = 0;

  /// Online self-training (requires the Filtered policy): the optimizing
  /// tier traces every method it compiles into run()'s corpus (the seed
  /// corpus, then the serve traces), and when a retrain fires (virtual
  /// clock only) a new filter version trains on the whole corpus on the
  /// shared pool and installs at the *next* epoch boundary -- methods
  /// compiled in between keep the old version (ServiceStats pins which
  /// version compiled each method).
  bool Online = false;
  /// A retrain fires at an epoch boundary once this many virtual ticks
  /// have passed since the last trigger (or tick 0) and the corpus holds
  /// at least one record the last train did not see (--retrain-every).
  uint64_t RetrainEvery = 8192;
  /// Labeling threshold (percent) every online retrain uses.
  double RetrainThreshold = 0.0;
};

/// Everything one service run measures.  All fields are deterministic --
/// bit-identical at any job count and cache temperature -- so the struct
/// is directly comparable; wall time is measured by callers around run().
struct ServiceStats {
  uint64_t Invocations = 0;        ///< virtual ticks consumed
  uint64_t Epochs = 0;             ///< epoch boundaries crossed
  uint64_t SampledInvocations = 0; ///< ticks inspected by the sampler
  uint64_t Promotions = 0;         ///< nominations accepted by the queue
  uint64_t Deferred = 0;           ///< nominations dropped (queue full)
  uint64_t CompiledMethods = 0;    ///< requests retired by the drain
  uint64_t MethodsOptimized = 0;   ///< methods in the optimizing tier at end
  uint64_t MethodsTotal = 0;

  uint64_t MaxQueueDepth = 0;   ///< sampled at epoch boundaries
  double MeanQueueDepth = 0.0;  ///< ditto, averaged over epochs
  uint64_t FinalQueueDepth = 0; ///< requests still queued at stream end

  /// Tier residency: invocations executed while the target method ran
  /// baseline (queued or not) or optimizing-tier code.
  uint64_t BaselineInvocations = 0;
  uint64_t OptimizedInvocations = 0;

  /// Compile-side effort of the optimizing tier (deterministic work
  /// units; wall time backs no pinned number and is measured by callers).
  uint64_t SchedulingWork = 0;
  uint64_t FilterWork = 0;     ///< portion spent on features + rules
  uint64_t BlocksCompiled = 0; ///< blocks passed through the opt tier
  uint64_t BlocksScheduled = 0;
  uint64_t FilterLS = 0; ///< online filter decisions, optimizing tier
  uint64_t FilterNS = 0;

  /// Application side, in SIM units (exec-weight x simulated cycles):
  /// AppTime charges each invocation its method's current-tier cost;
  /// BaselineAppTime charges the baseline cost throughout (what the
  /// service's optimization recouped).
  double AppTime = 0.0;
  double BaselineAppTime = 0.0;

  /// Online self-training (all zero / empty when Cfg.Online is off).
  uint64_t Retrains = 0;          ///< retrain triggers that fired
  uint64_t CorpusRecords = 0;     ///< records absorbed from serve traces
  uint32_t FinalFilterVersion = 0; ///< version installed at stream end

  /// One record per installed filter version, in install order -- the
  /// swap sequence of the run, byte-comparable across job counts.  The
  /// initial version appears as entry 0 (Epoch 0, Tick 0).
  struct FilterSwapStat {
    uint64_t Epoch = 0;         ///< boundary index the swap installed at
    uint64_t Tick = 0;          ///< virtual tick of the install
    uint32_t Version = 0;
    uint32_t ParentVersion = 0;
    uint64_t TriggerTick = 0;   ///< when the retrain was triggered
    uint64_t CorpusRecords = 0; ///< corpus size the version trained on
    uint64_t RulesHash = 0;     ///< rulesFingerprint of the version
  };
  std::vector<FilterSwapStat> Swaps;

  /// One record per retired compile, in install order: which filter
  /// version compiled the method (0 for non-filtered runs) and what it
  /// cost.  The mid-epoch pinning invariant lives here -- a method
  /// drained at boundary E carries the version current at E, even if a
  /// retrain triggered at E installs a newer one at E+1.
  struct CompilePinStat {
    uint64_t Epoch = 0;
    uint32_t Method = 0;
    uint32_t FilterVersion = 0;
    uint64_t SchedulingWork = 0;
  };
  std::vector<CompilePinStat> Compiles;
};

bool operator==(const ServiceStats::FilterSwapStat &A,
                const ServiceStats::FilterSwapStat &B);
bool operator==(const ServiceStats::CompilePinStat &A,
                const ServiceStats::CompilePinStat &B);

/// True when every deterministic field matches (all of them are).
bool operator==(const ServiceStats &A, const ServiceStats &B);

/// The invocation-stream seed for a single benchmark: forked from the
/// benchmark's own seed (BenchmarkSpec::Seed), so every driver replaying
/// the same benchmark sees the same stream -- the stream identifies the
/// workload, not the tool.  Mixes use workloadMixSeed instead.
uint64_t invocationStreamSeed(uint64_t WorkloadSeed);

/// What one service run measures: the aggregate ServiceStats plus one
/// per-app breakdown.  Aggregate integer fields equal the sum of the
/// per-app fields; the queue/epoch fields (MaxQueueDepth, MeanQueueDepth,
/// FinalQueueDepth, Epochs, SampledInvocations) describe the shared
/// service and are aggregate-only (zero per app).  The double AppTime
/// folds accumulate in global tick order, so the aggregate is NOT
/// necessarily the bitwise sum of the per-app values -- compare
/// like-for-like (checkServiceStats checks the integer fields).
/// With a single app the two fold the same ticks in the same order, so
/// PerApp[0] equals Total on every per-app field, AppTime included.
struct MultiAppStats {
  ServiceStats Total;
  std::vector<std::string> AppNames; ///< BenchmarkSpec::Name, app order
  std::vector<ServiceStats> PerApp;
};

bool operator==(const MultiAppStats &A, const MultiAppStats &B);

/// Checks the accounting identities of a run() result and returns the
/// first one violated, or none: Baseline + Optimized == Invocations (per
/// app, and in the aggregate unless an idle app -- an empty program --
/// owned ticks that invoked nothing); Promotions == CompiledMethods +
/// FinalQueueDepth; one compile pin per compiled method; per-app integer
/// fields sum to Total; compile-pin versions never decrease.
std::optional<std::string> checkServiceStats(const MultiAppStats &St);

/// The adaptive-JIT engine.  Construct per (apps, programs, model,
/// config) and call run(); the service is reusable (each run starts from
/// a fresh all-baseline state and an identical stream).
class MultiAppService {
public:
  /// Ticks per dispatch chunk.  run() serves each epoch in chunks of at
  /// most this many ticks (a chunk never crosses an epoch boundary) and
  /// sizes its per-tick scratch by it, never by the epoch length.
  static constexpr size_t DrawChunk = 1024;

  /// \p Programs must be generateMixPrograms(Apps) (or bit-identical);
  /// both are borrowed for the service's lifetime.  \p Cfg.StreamSeed
  /// should come from workloadMixSeed, or from invocationStreamSeed for a
  /// lone app.  \p Rules must be non-null iff Cfg.OptimizingPolicy ==
  /// Filtered.  \p Pool is borrowed; the baseline costs compile and
  /// online retrains train on its workers (drains compile inline on the
  /// calling thread).  \p SharedBaselineCost, when given, must be another
  /// service's baselineCosts() over the same apps/programs/model -- it is
  /// copied instead of recompiled (runMultiAppComparison uses this to pay
  /// the baseline compile once, not per policy run).
  MultiAppService(const std::vector<AppSpec> &Apps,
                  const std::vector<Program> &Programs,
                  const MachineModel &Model, const ServiceConfig &Cfg,
                  const RuleSet *Rules, TaskPool &Pool,
                  const std::vector<double> *SharedBaselineCost = nullptr);

  /// Installs a workload-mix drift function: during epoch E, app A's
  /// interleave weight is Apps[A].Weight * Drift(E, A).  The function
  /// must return positive factors and be pure (the noise layer's
  /// composed mixDrift() is -- a pure function of (stack seed, epoch,
  /// app)), so the drifting stream stays bit-identical at any --jobs.
  /// Null restores the static mix, and a null drift takes exactly the
  /// pre-drift code path: which app owns tick T is unchanged, because
  /// the per-app substreams never see the interleave weights at all.
  void setMixDrift(std::function<double(uint64_t Epoch, size_t App)> Drift) {
    MixDrift = std::move(Drift);
  }

  /// Replays the whole stream and returns per-app + total stats.
  MultiAppStats run();

  /// Pre-serve training corpus for online mode (the records the v1
  /// factory filter trained on): the first retrain learns from seed +
  /// serve traces, not serve traces alone.
  void setSeedCorpus(std::vector<BlockRecord> Records) {
    SeedCorpus = std::move(Records);
  }

  /// Persists every installed filter version (including v1) into \p Reg
  /// during run().  \p Workload and \p ModelName are stamped into each
  /// entry's metadata; \p Reg is borrowed and must outlive run().
  void setFilterRegistry(FilterRegistry *Reg, std::string Workload,
                         std::string ModelName) {
    Registry = Reg;
    RegistryWorkload = std::move(Workload);
    RegistryModel = std::move(ModelName);
  }

  /// Per-invocation baseline cost per global method id (app-major);
  /// sharable across services over the same apps/programs/model.
  const std::vector<double> &baselineCosts() const { return BaselineCost; }

private:
  const std::vector<AppSpec> &Apps;
  const std::vector<Program> &Programs;
  const MachineModel &Model;
  ServiceConfig Cfg;
  TaskPool &Pool;

  /// App-interleave CDF over AppSpec weights.
  CdfTable AppDraw;
  /// Optional per-epoch reweighting of the interleave (see setMixDrift).
  std::function<double(uint64_t, size_t)> MixDrift;
  /// Per-app method-draw CDFs: methods are invoked proportionally to
  /// their total profile weight (an empty program's table is empty).
  std::vector<CdfTable> MethodDraw;
  /// Global method ids are app-major: app A's method m is Offset[A] + m.
  std::vector<size_t> Offset;
  std::vector<double> BaselineCost; ///< per global method id

  /// The initial filter version (version 1 online, 0 otherwise),
  /// compiled once at construction and shared by every per-task filter.
  FilterArtifactRef BaseArt;
  std::vector<BlockRecord> SeedCorpus;
  FilterRegistry *Registry = nullptr;
  std::string RegistryWorkload;
  std::string RegistryModel;

  size_t appOf(size_t GlobalMethod) const;
};

/// The sf-serve headline: the identical stream served under both
/// optimizing-tier policies (LS and the induced filter), so the recouped
/// scheduling work is an apples-to-apples difference on identical
/// promotion dynamics -- overall and per app.
struct MultiAppComparison {
  MultiAppStats Always;   ///< optimizing tier = LS
  MultiAppStats Filtered; ///< optimizing tier = L/N (filter decides)
  /// Scheduling work the filter recouped: (LS - L/N) / LS work units; 0
  /// when the LS run did no scheduling at all.  Negative when the filter
  /// costs more than it saves -- a filter regression worth seeing, never
  /// clamped away.
  double RecoupedWorkFraction = 0.0;
  std::vector<double> PerAppRecoup; ///< same convention, per app
};

/// \p MixDrift, when non-null, is installed on BOTH services (see
/// MultiAppService::setMixDrift), so the two policies face the same
/// drifting traffic.  In online mode (Cfg.Online) the Filtered side
/// self-trains: it is seeded with \p SeedCorpus, retrains per Cfg's
/// policy, and -- when \p Registry is non-null -- persists its filter
/// lineage stamped with \p Workload and \p ModelName.  The Always side
/// never trains (its policy ignores the filter), so Cfg.Online is forced
/// off for it.
MultiAppComparison runMultiAppComparison(
    const std::vector<AppSpec> &Apps, const std::vector<Program> &Programs,
    const MachineModel &Model, ServiceConfig Cfg, const RuleSet &Rules,
    TaskPool &Pool,
    const std::function<double(uint64_t, size_t)> &MixDrift = nullptr,
    std::vector<BlockRecord> SeedCorpus = {},
    FilterRegistry *Registry = nullptr, const std::string &Workload = "",
    const std::string &ModelName = "");

} // namespace schedfilter

#endif // SCHEDFILTER_RUNTIME_MULTIAPPSERVICE_H
