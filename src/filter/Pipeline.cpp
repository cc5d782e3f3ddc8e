//===- filter/Pipeline.cpp - Policies and compile reports -----------------===//

#include "filter/Pipeline.h"

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
