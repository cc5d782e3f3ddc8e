//===- runtime/RecompileQueue.h - Bounded recompilation queue ---*- C++ -*-===//
///
/// \file
/// The serving engine's bounded FIFO of recompilation requests.  A real
/// adaptive system (Jikes RVM's, the paper's host) feeds hot-method events
/// into a fixed-capacity queue drained by compiler threads; when the queue
/// is full the event is dropped and the method is re-nominated the next
/// time it is sampled hot.  That backpressure rule is load-shedding, not
/// data loss: a method that stays hot keeps getting sampled, so it gets
/// promoted as soon as the queue has room again.
///
/// The queue is a plain ring over a fixed vector -- no allocation after
/// construction, no locking (the service's virtual clock serializes all
/// access), and FIFO order is part of the determinism contract: which
/// requests drain in an epoch depends only on arrival order, never on
/// worker timing.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_RUNTIME_RECOMPILEQUEUE_H
#define SCHEDFILTER_RUNTIME_RECOMPILEQUEUE_H

#include <cassert>
#include <cstdint>
#include <vector>

namespace schedfilter {

/// Fixed-capacity FIFO of method indices awaiting recompilation.
class RecompileQueue {
public:
  /// \p Capacity must be >= 1 (the --queue-cap flag validates this).
  explicit RecompileQueue(size_t Capacity) : Ring(Capacity) {
    assert(Capacity >= 1 && "a queue that can hold nothing is a bug");
  }

  size_t capacity() const { return Ring.size(); }
  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  bool full() const { return Count == Ring.size(); }

  /// Enqueues \p MethodIndex; returns false (and changes nothing) when the
  /// queue is full -- the caller counts a backpressure event and retries
  /// at the method's next hot sample.
  bool push(uint32_t MethodIndex) {
    if (full())
      return false;
    Ring[(Head + Count) % Ring.size()] = MethodIndex;
    ++Count;
    return true;
  }

  /// Dequeues the oldest request into \p MethodIndex; returns false when
  /// empty.
  bool pop(uint32_t &MethodIndex) {
    if (empty())
      return false;
    MethodIndex = Ring[Head];
    Head = (Head + 1) % Ring.size();
    --Count;
    return true;
  }

private:
  std::vector<uint32_t> Ring;
  size_t Head = 0;
  size_t Count = 0;
};

} // namespace schedfilter

#endif // SCHEDFILTER_RUNTIME_RECOMPILEQUEUE_H
