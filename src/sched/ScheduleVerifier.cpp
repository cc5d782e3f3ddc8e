//===- sched/ScheduleVerifier.cpp - Semantic-equivalence check -------------===//

#include "sched/ScheduleVerifier.h"

using namespace schedfilter;

ScheduleVerifyResult
schedfilter::verifySchedule(const DependenceGraph &Dag,
                            const std::vector<int> &Order) {
  size_t N = Dag.numNodes();
  if (Order.size() != N)
    return {false, "order has " + std::to_string(Order.size()) +
                       " entries for " + std::to_string(N) + " instructions"};

  std::vector<int> Position(N, -1);
  for (size_t Pos = 0; Pos != Order.size(); ++Pos) {
    int Idx = Order[Pos];
    if (Idx < 0 || static_cast<size_t>(Idx) >= N)
      return {false, "order entry " + std::to_string(Idx) + " out of range"};
    if (Position[static_cast<size_t>(Idx)] != -1)
      return {false,
              "instruction " + std::to_string(Idx) + " appears twice"};
    Position[static_cast<size_t>(Idx)] = static_cast<int>(Pos);
  }

  for (size_t From = 0; From != N; ++From)
    for (const DepEdge &E : Dag.succs(static_cast<int>(From)))
      if (Position[From] >= Position[static_cast<size_t>(E.To)])
        return {false, "dependence " + std::to_string(From) + " -> " +
                           std::to_string(E.To) + " violated"};
  return {true, ""};
}
