//===- filter/Pipeline.cpp - Policies and compile reports -----------------===//

#include "filter/Pipeline.h"

#include "ml/Labeler.h"

using namespace schedfilter;

const char *schedfilter::getPolicyName(SchedulingPolicy P) {
  switch (P) {
  case SchedulingPolicy::Never:
    return "NS";
  case SchedulingPolicy::Always:
    return "LS";
  case SchedulingPolicy::Filtered:
    return "L/N";
  }
  return "?";
}

FixedPolicyReports
schedfilter::fixedPolicyReports(const std::vector<BlockRecord> &Records,
                                uint64_t AlwaysSchedulingWork) {
  FixedPolicyReports R;
  R.Never.Policy = SchedulingPolicy::Never;
  R.Always.Policy = SchedulingPolicy::Always;
  R.Always.SchedulingWork = AlwaysSchedulingWork;
  for (const BlockRecord &Rec : Records) {
    double W = static_cast<double>(Rec.ExecCount);
    R.Never.SimulatedTime += W * static_cast<double>(Rec.CostNoSched);
    R.Always.SimulatedTime += W * static_cast<double>(Rec.CostSched);
  }
  R.Never.NumBlocks = R.Always.NumBlocks = R.Always.NumScheduled =
      Records.size();
  return R;
}
