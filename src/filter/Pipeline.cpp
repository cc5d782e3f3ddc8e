//===- filter/Pipeline.cpp - JIT-style compile pass -------------------------===//

#include "filter/Pipeline.h"

#include "runtime/MethodCompiler.h"
#include "sched/SchedContext.h"

#include <cassert>

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

CompileReport schedfilter::compileProgram(const Program &P,
                                          const MachineModel &Model,
                                          SchedulingPolicy Policy,
                                          ScheduleFilter *Filter) {
  SchedContext Ctx;
  return compileProgram(P, Model, Policy, Filter, Ctx);
}

CompileReport schedfilter::compileProgram(const Program &P,
                                          const MachineModel &Model,
                                          SchedulingPolicy Policy,
                                          ScheduleFilter *Filter,
                                          SchedContext &Ctx) {
  assert((Policy == SchedulingPolicy::Filtered) == (Filter != nullptr) &&
         "filter must be supplied exactly for the Filtered policy");
  // The one per-block compile fold: the program's methods in order, each
  // accumulated into the same report.
  CompileReport Report;
  Report.Policy = Policy;
  MethodCompiler MC(Model, Ctx);
  for (const Method &M : P)
    MC.compileMethod(M, Policy, Filter, Report);
  return Report;
}
