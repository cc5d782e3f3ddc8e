//===- runtime/MethodCompiler.cpp - Per-method tiered compile ---------------===//

#include "runtime/MethodCompiler.h"

#include "sched/SchedContext.h"
#include "support/HotAlign.h"
#include "support/Timer.h"

#include <cassert>

using namespace schedfilter;

MethodCompiler::MethodCompiler(const MachineModel &Model, SchedContext &Ctx)
    : Scheduler(Model), Sim(Model), Ctx(Ctx) {}

SCHEDFILTER_HOT_ALIGN
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

SCHEDFILTER_HOT_ALIGN
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

CompileReport schedfilter::compileProgram(const Program &P,
                                          const MachineModel &Model,
                                          SchedulingPolicy Policy,
                                          ScheduleFilter *Filter) {
  CompileReport Report;
  Report.Policy = Policy;
  SchedContext Ctx;
  MethodCompiler MC(Model, Ctx);
  for (const Method &M : P)
    MC.compileMethod(M, Policy, Filter, Report);
  return Report;
}
