//===- support/TaskPool.h - Fixed worker pool ------------------*- C++ -*-===//
///
/// \file
/// A fixed pool of worker threads with deterministic result ordering: work
/// is always expressed as an indexed loop (task i of N), each index runs
/// exactly once, and callers write results into pre-sized slot i -- so the
/// assembled output is identical no matter how many workers ran or how the
/// OS interleaved them.  Combined with Rng::fork (per-task streams keyed by
/// the task index), every experiment in this repository produces bit-for-bit
/// the same numbers at any --jobs value.
///
/// parallelFor is reentrant: a body that itself calls parallelFor (nested
/// experiment layers, e.g. a threshold sweep whose per-threshold work fans
/// out LOOCV folds) runs the inner loop inline on the current thread, which
/// keeps the pool deadlock-free and the results unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_SUPPORT_TASKPOOL_H
#define SCHEDFILTER_SUPPORT_TASKPOOL_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace schedfilter {

/// Fixed-size worker pool.  Jobs == 1 spawns no threads at all and runs
/// every loop inline; Jobs == N uses the calling thread plus N-1 workers.
class TaskPool {
public:
  /// \p Jobs must be >= 1 (the shared --jobs flag validates this before
  /// construction).
  explicit TaskPool(unsigned Jobs);
  ~TaskPool();

  TaskPool(const TaskPool &) = delete;
  TaskPool &operator=(const TaskPool &) = delete;

  unsigned jobs() const { return NumJobs; }

  /// Runs Body(0) .. Body(Count-1), each exactly once, possibly
  /// concurrently and in any order.  Blocks until all complete.  The first
  /// exception thrown by any task is rethrown here; remaining tasks still
  /// run, on the pooled and inline paths alike, so which indices execute
  /// never depends on the job count.  Bodies must only write to disjoint,
  /// index-owned state.
  void parallelFor(size_t Count, const std::function<void(size_t)> &Body);

  /// True while the calling thread is executing a pool task (used to run
  /// nested parallelFor calls inline).
  static bool insideTask();

private:
  void workerMain();
  void runTasks();

  unsigned NumJobs;
  std::vector<std::thread> Workers;

  std::mutex Mutex;
  std::condition_variable WorkCV;
  std::condition_variable DoneCV;
  const std::function<void(size_t)> *Body = nullptr; // guarded by Mutex
  size_t Count = 0;                                  // guarded by Mutex
  size_t NextIndex = 0;                              // guarded by Mutex
  size_t Remaining = 0;                              // guarded by Mutex
  uint64_t Generation = 0;                           // guarded by Mutex
  bool Stopping = false;                             // guarded by Mutex
  std::exception_ptr FirstError;                     // guarded by Mutex
};

} // namespace schedfilter

#endif // SCHEDFILTER_SUPPORT_TASKPOOL_H
