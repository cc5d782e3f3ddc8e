//===- examples/quickstart.cpp - Smallest end-to-end use of the library ----===//
//
// Quickstart: build a basic block, schedule it, train a filter on a tiny
// synthetic suite, and use the filter to decide whether to schedule.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/quickstart
//
//===----------------------------------------------------------------------===//

#include "filter/ScheduleFilter.h"
#include "harness/ParallelExperiments.h"
#include "ml/Ripper.h"
#include "sched/SchedContext.h"
#include "sched/ScheduleVerifier.h"

#include <iostream>

using namespace schedfilter;

int main() {
  MachineModel Model = MachineModel::ppc7410();

  // 1. Build a block by hand: two independent float expressions over
  // loaded values, emitted in naive (JIT) order.
  BasicBlock BB("example", /*ExecCount=*/1000);
  BB.append(Instruction(Opcode::LoadFloat, {100}, {0}));
  BB.append(Instruction(Opcode::FMul, {101}, {100, 100}));
  BB.append(Instruction(Opcode::LoadFloat, {102}, {1}));
  BB.append(Instruction(Opcode::FMul, {103}, {102, 102}));
  BB.append(Instruction(Opcode::FAdd, {104}, {101, 103}));
  BB.append(Instruction(Opcode::StoreFloat, {}, {104, 2}));

  // 2. Cost it with and without list scheduling, and check the schedule
  // against the dependence DAG the scheduler left in the context.
  SchedContext Ctx;
  BlockSimulator Sim(Model);
  std::vector<int> Order;
  ListScheduler(Model).schedule(BB, Ctx, Order);
  uint64_t Before = Sim.simulate(BB, Ctx);
  uint64_t After = Sim.simulate(BB, Order, Ctx);
  bool Legal = verifySchedule(Ctx.dag(), Order).Ok;
  std::cout << "block cost unscheduled: " << Before << " cycles\n"
            << "block cost scheduled:   " << After << " cycles\n"
            << "schedule is legal:      " << (Legal ? "yes" : "no") << "\n\n";
  if (!Legal)
    return 1;

  // 3. Train a filter on a small synthetic suite and apply it online.
  std::vector<BenchmarkSpec> Suite = specjvm98Suite();
  for (BenchmarkSpec &S : Suite)
    S.NumMethods = 12; // keep the quickstart fast
  ExperimentEngine Engine;
  std::vector<BenchmarkRun> Runs = Engine.generateSuiteData(Suite, Model);
  std::vector<Dataset> Labeled = Engine.labelSuite(Runs, /*ThresholdPct=*/0.0);

  Dataset Train("all");
  for (const Dataset &D : Labeled)
    Train.append(D);
  RuleSet Filter = Ripper().train(Train);
  std::cout << "induced filter (" << Filter.size() << " rules):\n"
            << Filter.toString() << '\n';

  ScheduleFilter Online(Filter);
  std::cout << "filter says schedule the example block: "
            << (Online.shouldSchedule(BB) ? "yes" : "no") << '\n';
  return 0;
}
