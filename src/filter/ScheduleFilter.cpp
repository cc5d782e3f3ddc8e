//===- filter/ScheduleFilter.cpp - Online whether-to-schedule ---------------===//

#include "filter/ScheduleFilter.h"

#include "sched/SchedContext.h"

using namespace schedfilter;

void ScheduleFilter::shouldScheduleBatch(
    const std::vector<const BasicBlock *> &Blocks, SchedContext &Ctx,
    std::vector<char> &Decisions) {
  const size_t N = Blocks.size();
  Decisions.assign(N, 0);

  // Split gated blocks (one work unit, default class -- same as
  // decide()'s fast path) from blocks that need the feature pass.
  std::vector<const BasicBlock *> &Batch = Ctx.batchBlocks();
  std::vector<uint32_t> &Rows = Ctx.batchRowIndex();
  Batch.clear();
  Rows.clear();
  for (size_t I = 0; I != N; ++I) {
    if (static_cast<double>(Blocks[I]->size()) < Art->BBLenGate)
      record({Art->DefaultIsLS, 1}), Decisions[I] = Art->DefaultIsLS;
    else {
      Batch.push_back(Blocks[I]);
      Rows.push_back(static_cast<uint32_t>(I));
    }
  }
  if (Batch.empty())
    return;

  // Extract all surviving blocks into the SoA matrix (bit-identical
  // values and summed work by construction), then one batch evaluation.
  FeatureMatrix &M = Ctx.featureMatrix();
  Work += extractFeaturesBatch(Batch.data(), Batch.size(), M);
  std::vector<unsigned char> &IsLS = Ctx.batchIsLS();
  std::vector<uint64_t> &RowWork = Ctx.batchWork();
  IsLS.assign(Batch.size(), 0);
  RowWork.assign(Batch.size(), 0);
  Art->Compiled.evaluateBatch(M, Ctx.predScratch(), IsLS.data(),
                              RowWork.data());
  for (size_t R = 0; R != Batch.size(); ++R) {
    record({IsLS[R] != 0, RowWork[R]});
    Decisions[Rows[R]] = IsLS[R];
  }
}
