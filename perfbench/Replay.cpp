//===- perfbench/Replay.cpp - Per-layer replay of L/N compiles --------------===//

#include "Replay.h"

#include "features/FeatureMatrix.h"
#include "sched/ScheduleVerifier.h"

#include <cstring>

using namespace perfbench;
using namespace schedfilter;

Replayer::Replayer(const MachineModel &Model, Tracer &T, Checks &C)
    : Model(Model), T(T), C(C), Scheduler(Model), Sim(Model) {}

void Replayer::compile(const Method &M, const FilterArtifact &Art,
                       uint64_t Request) {
  auto Root = T.span("replay.compile", Request);
  const size_t N = M.size();

  // ScheduleFilter::shouldScheduleBatch: blocks under the bbLen gate take
  // the default class for one work unit; the rest go through features and
  // the compiled rules.
  Batch.clear();
  Rows.clear();
  Decide.assign(N, Art.DefaultIsLS);
  for (size_t I = 0; I != N; ++I) {
    if (static_cast<double>(M[I].size()) < Art.BBLenGate) {
      ++Totals.FilterWork;
    } else {
      Batch.push_back(&M[I]);
      Rows.push_back(static_cast<uint32_t>(I));
    }
  }
  const size_t R = Batch.size();
  Xs.resize(R);
  Scalar.resize(R);
  IsLS.assign(R, 0);
  RowWork.assign(R, 0);
  {
    auto S = T.span("features.extract");
    for (size_t I = 0; I != R; ++I)
      Xs[I] = extractFeatures(*Batch[I]);
  }
  {
    auto S = T.span("features.batch");
    Totals.FilterWork += extractFeaturesBatch(Batch.data(), R, Matrix);
  }
  {
    auto S = T.span("filter.eval");
    for (size_t I = 0; I != R; ++I)
      Scalar[I] = Art.Compiled.evaluate(Xs[I]);
  }
  if (R) {
    auto S = T.span("filter.batch");
    Art.Compiled.evaluateBatch(Matrix, Pred, IsLS.data(), RowWork.data());
  }

  for (size_t I = 0; I != R; ++I) {
    FeatureVector Row = Matrix.row(I);
    C.expect(std::memcmp(Row.data(), Xs[I].data(), sizeof(FeatureVector)) ==
                 0,
             "batch features equal extractFeatures");
    C.expect((IsLS[I] != 0) == Scalar[I].ScheduleLS &&
                 RowWork[I] == Scalar[I].Work,
             "batch evaluation equals scalar evaluation");
    Decide[Rows[I]] = IsLS[I] != 0;
    Totals.FilterWork += RowWork[I];
  }
  Totals.Evaluated += R;
  Totals.Blocks += N;

  // The oracle: the interpreter over freshly extracted features, for gated
  // blocks too (the gate must never change a decision).
  LSBlocks.clear();
  for (size_t I = 0; I != N; ++I) {
    bool Oracle = Art.Rules.predict(extractFeatures(M[I])) == Label::LS;
    C.expect((Decide[I] != 0) == Oracle, "L/N decision equals RuleSet::predict");
    if (Decide[I])
      LSBlocks.push_back(static_cast<uint32_t>(I));
  }
  Totals.Scheduled += LSBlocks.size();
  Totals.Skipped += N - LSBlocks.size();

  // ListScheduler::schedule(BB, Ctx, Order) is DependenceGraph::build plus
  // scheduleInto; calling the two apart times them apart.
  const size_t K = LSBlocks.size();
  if (Dags.size() < K) {
    Dags.resize(K);
    Orders.resize(K);
  }
  {
    auto S = T.span("sched.dag");
    for (size_t J = 0; J != K; ++J)
      Dags[J].build(M[LSBlocks[J]], Model, Ctx.dagScratch());
  }
  {
    auto S = T.span("sched.list");
    for (size_t J = 0; J != K; ++J)
      Totals.ListWork += Scheduler.scheduleInto(
          M[LSBlocks[J]], Dags[J], Ctx.schedulerScratch(), Orders[J]);
  }
  for (size_t J = 0; J != K; ++J) {
    Totals.DagWork += Dags[J].workUnits();
    Totals.DagEdges += Dags[J].numEdges();
    bool Ok = verifySchedule(Dags[J], Orders[J]).Ok;
    Totals.VerifyFailures += !Ok;
    C.expect(Ok, "scheduled order passes verifySchedule");
  }

  // compileMethod simulates the scheduled order of LS blocks and the
  // original order of the rest.
  Cycles.resize(N);
  {
    auto S = T.span("sim");
    size_t J = 0;
    for (size_t I = 0; I != N; ++I) {
      const std::vector<int> *Order =
          J < K && LSBlocks[J] == I ? &Orders[J++] : nullptr;
      Cycles[I] = Order && !Order->empty() ? Sim.simulate(M[I], *Order, Ctx)
                                           : Sim.simulate(M[I], Ctx);
    }
  }
  for (uint32_t I : LSBlocks)
    Totals.Improved += Cycles[I] < Sim.simulate(M[I], Ctx);
}

void Replayer::publish() const {
  T.add("features.blocks", static_cast<double>(Totals.Evaluated));
  T.add("filter.decisions", static_cast<double>(Totals.Blocks));
  T.add("filter.ls", static_cast<double>(Totals.Scheduled));
  T.add("filter.ls_improved", static_cast<double>(Totals.Improved));
  T.add("filter.work_units", static_cast<double>(Totals.FilterWork));
  T.add("sched.blocks_scheduled", static_cast<double>(Totals.Scheduled));
  T.add("sched.dag_edges", static_cast<double>(Totals.DagEdges));
  T.add("sched.work_units",
        static_cast<double>(Totals.DagWork + Totals.ListWork));
  T.add("sched.verify_failures", static_cast<double>(Totals.VerifyFailures));
  T.add("sim.blocks", static_cast<double>(Totals.Blocks));
}
