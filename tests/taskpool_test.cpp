//===- tests/taskpool_test.cpp - support/TaskPool unit tests ----------------===//
//
// The pool's contract: every index runs exactly once, results assembled
// by index are identical at any job count, nested parallelFor is safe
// (runs inline), and exceptions propagate.
//
//===----------------------------------------------------------------------===//

#include "support/TaskPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

using namespace schedfilter;

namespace {

/// A small deterministic per-index computation.
uint64_t mix(size_t I) {
  uint64_t X = static_cast<uint64_t>(I) * 0x9e3779b97f4a7c15ULL + 1;
  X ^= X >> 29;
  return X * 0xbf58476d1ce4e5b9ULL;
}

std::vector<uint64_t> runWithJobs(unsigned Jobs, size_t Count) {
  TaskPool Pool(Jobs);
  std::vector<uint64_t> Out(Count, 0);
  Pool.parallelFor(Count, [&](size_t I) { Out[I] = mix(I); });
  return Out;
}

} // namespace

TEST(TaskPool, EveryIndexRunsExactlyOnce) {
  TaskPool Pool(4);
  std::vector<std::atomic<int>> Counts(257);
  for (auto &C : Counts)
    C = 0;
  Pool.parallelFor(Counts.size(), [&](size_t I) { ++Counts[I]; });
  for (auto &C : Counts)
    EXPECT_EQ(C.load(), 1);
}

TEST(TaskPool, ResultsIdenticalAtAnyJobCount) {
  std::vector<uint64_t> Serial = runWithJobs(1, 100);
  EXPECT_EQ(runWithJobs(2, 100), Serial);
  EXPECT_EQ(runWithJobs(4, 100), Serial);
  EXPECT_EQ(runWithJobs(13, 100), Serial);
}

TEST(TaskPool, ZeroTasksIsANoOp) {
  TaskPool Pool(4);
  Pool.parallelFor(0, [&](size_t) { FAIL() << "no task should run"; });
}

TEST(TaskPool, PoolIsReusableAcrossBatches) {
  TaskPool Pool(3);
  for (int Round = 0; Round < 5; ++Round) {
    std::vector<int> Out(40, -1);
    Pool.parallelFor(Out.size(),
                     [&](size_t I) { Out[I] = static_cast<int>(I) + Round; });
    for (size_t I = 0; I != Out.size(); ++I)
      EXPECT_EQ(Out[I], static_cast<int>(I) + Round);
  }
}

TEST(TaskPool, NestedParallelForRunsInline) {
  TaskPool Pool(4);
  std::vector<std::vector<int>> Out(8);
  Pool.parallelFor(Out.size(), [&](size_t I) {
    EXPECT_TRUE(TaskPool::insideTask());
    Out[I].assign(16, 0);
    // Nested call: must run inline on this thread without deadlocking.
    Pool.parallelFor(16, [&](size_t J) { Out[I][J] = static_cast<int>(I * 16 + J); });
  });
  for (size_t I = 0; I != Out.size(); ++I)
    for (size_t J = 0; J != 16; ++J)
      EXPECT_EQ(Out[I][J], static_cast<int>(I * 16 + J));
  EXPECT_FALSE(TaskPool::insideTask());
}

TEST(TaskPool, ExceptionsPropagateToCaller) {
  TaskPool Pool(4);
  EXPECT_THROW(
      Pool.parallelFor(32,
                       [&](size_t I) {
                         if (I == 17)
                           throw std::runtime_error("task 17 failed");
                       }),
      std::runtime_error);
  // The pool must remain usable after a failed batch.
  std::vector<int> Out(8, 0);
  Pool.parallelFor(Out.size(), [&](size_t I) { Out[I] = 1; });
  EXPECT_EQ(std::accumulate(Out.begin(), Out.end(), 0), 8);
}

TEST(TaskPool, AllTasksRunDespiteThrowAtAnyJobCount) {
  // The contract "remaining tasks still run, first exception rethrown"
  // must hold on the inline (jobs=1) path too, so error collection into
  // per-index slots never depends on the job count.
  for (unsigned Jobs : {1u, 4u}) {
    TaskPool Pool(Jobs);
    std::vector<int> Ran(16, 0);
    EXPECT_THROW(Pool.parallelFor(Ran.size(),
                                  [&](size_t I) {
                                    Ran[I] = 1;
                                    if (I == 3)
                                      throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    EXPECT_EQ(std::accumulate(Ran.begin(), Ran.end(), 0), 16)
        << "jobs=" << Jobs;
  }
}
