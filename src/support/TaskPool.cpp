//===- support/TaskPool.cpp - Fixed worker pool ----------------------------===//

#include "support/TaskPool.h"

#include <cassert>

using namespace schedfilter;

namespace {
/// Set for the duration of each task body, on workers and on the calling
/// thread alike, so nested parallelFor calls can detect reentrancy.
thread_local bool InTask = false;

struct InTaskScope {
  bool Previous;
  InTaskScope() : Previous(InTask) { InTask = true; }
  ~InTaskScope() { InTask = Previous; }
};
} // namespace

bool TaskPool::insideTask() { return InTask; }

TaskPool::TaskPool(unsigned Jobs) : NumJobs(Jobs == 0 ? 1 : Jobs) {
  // The calling thread participates in every batch, so N jobs need only
  // N-1 dedicated workers; jobs == 1 spawns no threads at all.
  Workers.reserve(NumJobs - 1);
  for (unsigned I = 1; I < NumJobs; ++I)
    Workers.emplace_back([this] { workerMain(); });
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WorkCV.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void TaskPool::runTasks() {
  for (;;) {
    size_t Index;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (Body == nullptr || NextIndex >= Count)
        return;
      Index = NextIndex++;
    }
    {
      InTaskScope Scope;
      try {
        (*Body)(Index);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(Mutex);
        if (!FirstError)
          FirstError = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (--Remaining == 0)
        DoneCV.notify_all();
    }
  }
}

void TaskPool::workerMain() {
  uint64_t SeenGeneration = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkCV.wait(Lock, [&] {
        return Stopping || (Generation != SeenGeneration && Body != nullptr);
      });
      if (Stopping)
        return;
      SeenGeneration = Generation;
    }
    runTasks();
  }
}

void TaskPool::parallelFor(size_t TaskCount,
                           const std::function<void(size_t)> &TaskBody) {
  if (TaskCount == 0)
    return;
  // Serial pool, a single task, or a nested call from inside a task body:
  // run inline.  Inline nested execution is what makes layered experiment
  // code (sweep -> threshold -> folds) safe against pool self-deadlock.
  // Exception semantics match the pooled path -- every task runs, the
  // first exception is rethrown at the end -- so behavior (e.g. which
  // per-index error slots get filled) never depends on the job count.
  if (NumJobs <= 1 || TaskCount == 1 || insideTask()) {
    std::exception_ptr First;
    for (size_t I = 0; I != TaskCount; ++I) {
      InTaskScope Scope;
      try {
        TaskBody(I);
      } catch (...) {
        if (!First)
          First = std::current_exception();
      }
    }
    if (First)
      std::rethrow_exception(First);
    return;
  }

  {
    std::lock_guard<std::mutex> Lock(Mutex);
    assert(Body == nullptr && "parallelFor is not re-entrant at batch level");
    Body = &TaskBody;
    Count = TaskCount;
    NextIndex = 0;
    Remaining = TaskCount;
    FirstError = nullptr;
    ++Generation;
  }
  WorkCV.notify_all();

  runTasks(); // the calling thread is worker 0

  std::exception_ptr Error;
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    DoneCV.wait(Lock, [&] { return Remaining == 0; });
    Body = nullptr;
    Error = FirstError;
    FirstError = nullptr;
  }
  if (Error)
    std::rethrow_exception(Error);
}
