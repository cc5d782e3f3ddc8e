//===- runtime/MethodCompiler.cpp - Per-method tiered compile ---------------===//

#include "runtime/MethodCompiler.h"

#include "sched/SchedContext.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>

using namespace schedfilter;

MethodCompiler::MethodCompiler(const MachineModel &Model, SchedContext &Ctx)
    : Scheduler(Model), Sim(Model), Ctx(Ctx) {}

void MethodCompiler::schedulePhase(const Method &M, SchedulingPolicy Policy,
                                   ScheduleFilter *Filter,
                                   CompileReport &Report) {
  assert((Policy == SchedulingPolicy::Filtered) == (Filter != nullptr) &&
         "filter must be supplied exactly for the Filtered policy");

  Report.Policy = Policy;
  uint64_t FilterWorkBefore = Filter ? Filter->workUnits() : 0;
  if (Orders.size() < M.size())
    Orders.resize(M.size());

  // The scheduling phase proper -- one filter decision per block plus
  // list scheduling of the chosen blocks.  One timer spans the whole
  // phase, like the paper's per-phase compiler timers; the filter's cost
  // is thereby charged to scheduling (§3.1).
  AccumulatingTimer SchedTimer;
  SchedTimer.start();
  size_t B = 0;
  for (const BasicBlock &BB : M) {
    std::vector<int> &Order = Orders[B++];
    Order.clear();
    bool DoSchedule = Policy == SchedulingPolicy::Always ||
                      (Policy == SchedulingPolicy::Filtered &&
                       Filter->shouldSchedule(BB));
    if (DoSchedule) {
      Report.SchedulingWork += Scheduler.schedule(BB, Ctx, Order);
      ++Report.NumScheduled;
    }
  }
  SchedTimer.stop();
  Report.SchedulingSeconds += SchedTimer.seconds();

  if (Filter) {
    uint64_t Delta = Filter->workUnits() - FilterWorkBefore;
    Report.FilterWork += Delta;
    Report.SchedulingWork += Delta;
  }
}

void MethodCompiler::compileMethod(const Method &M, SchedulingPolicy Policy,
                                   ScheduleFilter *Filter,
                                   CompileReport &Report) {
  schedulePhase(M, Policy, Filter, Report);

  // The untimed SIM(P) application-time metric, accumulated directly
  // into Report in block order -- the flat left-to-right fold the
  // bit-identity contract rests on.
  size_t B = 0;
  for (const BasicBlock &BB : M) {
    const std::vector<int> &Order = Orders[B++];
    uint64_t Cycles = Order.empty() ? Sim.simulate(BB, Ctx)
                                    : Sim.simulate(BB, Order, Ctx);
    Report.SimulatedTime +=
        static_cast<double>(BB.getExecCount()) * static_cast<double>(Cycles);
    ++Report.NumBlocks;
  }
}

void MethodCompiler::traceMethod(const Method &M,
                                 std::vector<BlockRecord> &Records,
                                 CompileReport &LSReport) {
  // The one trace recipe: the LS compile's timed phase, then per block
  // its features and its cost unscheduled and under the LS order.  The
  // scheduled cost folds into LSReport exactly as compileMethod folds it
  // under the Always policy.
  schedulePhase(M, SchedulingPolicy::Always, nullptr, LSReport);
  size_t B = 0;
  for (const BasicBlock &BB : M) {
    BlockRecord Rec;
    Rec.X = extractFeatures(BB);
    Rec.ExecCount = BB.getExecCount();
    Rec.CostNoSched = Sim.simulate(BB, Ctx);
    Rec.CostSched = Sim.simulate(BB, Orders[B++], Ctx);
    LSReport.SimulatedTime += static_cast<double>(Rec.ExecCount) *
                              static_cast<double>(Rec.CostSched);
    ++LSReport.NumBlocks;
    Records.push_back(Rec);
  }
}

//===----------------------------------------------------------------------===//
// Profile-directed batch entry (the §3.1 hot-method-only regime).
//===----------------------------------------------------------------------===//

CompileReport schedfilter::compileProgramAdaptive(const Program &P,
                                                  const MachineModel &Model,
                                                  SchedulingPolicy Policy,
                                                  ScheduleFilter *Filter,
                                                  double HotMethodFraction) {
  assert(HotMethodFraction >= 0.0 && HotMethodFraction <= 1.0 &&
         "fraction must be in [0, 1]");

  // Rank methods by total profile weight, ties toward earlier methods.
  std::vector<std::pair<double, size_t>> Ranked;
  for (size_t MI = 0; MI != P.size(); ++MI) {
    double Weight = 0.0;
    for (const BasicBlock &BB : P[MI])
      Weight += static_cast<double>(BB.getExecCount());
    Ranked.push_back({Weight, MI});
  }
  std::sort(Ranked.begin(), Ranked.end(), [](const auto &A, const auto &B) {
    if (A.first != B.first)
      return A.first > B.first;
    return A.second < B.second;
  });
  size_t NumHot = static_cast<size_t>(
      HotMethodFraction * static_cast<double>(P.size()) + 0.5);
  std::vector<bool> IsHot(P.size(), false);
  for (size_t I = 0; I != NumHot && I != Ranked.size(); ++I)
    IsHot[Ranked[I].second] = true;

  // Hot methods compile under the policy, cold methods baseline, each
  // partition folded method by method in program order -- the exact block
  // sequence (and therefore the exact SimulatedTime fold) of compiling the
  // two partition programs, as this function historically did.
  SchedContext Ctx;
  MethodCompiler MC(Model, Ctx);
  CompileReport HotReport;
  HotReport.Policy = Policy;
  for (size_t MI = 0; MI != P.size(); ++MI)
    if (IsHot[MI])
      MC.compileMethod(P[MI], Policy, Filter, HotReport);
  CompileReport ColdReport;
  for (size_t MI = 0; MI != P.size(); ++MI)
    if (!IsHot[MI])
      MC.compileMethod(P[MI], SchedulingPolicy::Never, nullptr, ColdReport);

  CompileReport Merged;
  Merged.Policy = Policy;
  Merged.NumBlocks = HotReport.NumBlocks + ColdReport.NumBlocks;
  Merged.NumScheduled = HotReport.NumScheduled;
  Merged.SchedulingSeconds =
      HotReport.SchedulingSeconds + ColdReport.SchedulingSeconds;
  Merged.SchedulingWork = HotReport.SchedulingWork;
  Merged.FilterWork = HotReport.FilterWork;
  Merged.SimulatedTime = HotReport.SimulatedTime + ColdReport.SimulatedTime;
  return Merged;
}
