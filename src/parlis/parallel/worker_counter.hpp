// Contention-free event counter for hot-path instrumentation.
//
// A single shared std::atomic counter incremented on every tree-node visit
// serializes all workers on one cache line (the increment itself is a locked
// RMW even uncontended). WorkerCounter instead keeps one cache-line-aligned
// slot per pool worker (via LazyWorkerSlots, so construction has no
// scheduler side effects): add() touches only the calling worker's line with
// a relaxed load+store pair (no RMW — each slot has a single writer), and
// read() sums the slots. Reads are monotonic snapshots: a read() concurrent
// with increments sees some valid intermediate total.
//
// Exactness contract: increments must come from pool workers (the thread
// that created the pool is worker 0). Threads outside the pool alias slot 0;
// if such a thread increments concurrently with worker 0, updates may be
// lost — same contract as the scheduler itself, whose deques assume pool
// threads.
#pragma once

#include <atomic>
#include <cstdint>

#include "parlis/parallel/worker_slots.hpp"

namespace parlis {

class WorkerCounter {
 public:
  WorkerCounter() = default;
  WorkerCounter(WorkerCounter&&) noexcept = default;
  WorkerCounter& operator=(WorkerCounter&&) noexcept = default;
  WorkerCounter(const WorkerCounter&) = delete;
  WorkerCounter& operator=(const WorkerCounter&) = delete;

  /// Adds `d` to the calling worker's slot. Safe to call concurrently from
  /// distinct workers; never a locked RMW.
  void add(uint64_t d = 1) {
    uint64_t& v = slots_.local().v;
    std::atomic_ref<uint64_t> ref(v);
    ref.store(ref.load(std::memory_order_relaxed) + d,
              std::memory_order_relaxed);
  }

  /// Sum over all slots.
  uint64_t read() const {
    uint64_t total = 0;
    slots_.for_each([&](const Slot& s) {
      // atomic_ref<const T> is C++26; cast away const for the relaxed load.
      total += std::atomic_ref<uint64_t>(const_cast<uint64_t&>(s.v))
                   .load(std::memory_order_relaxed);
    });
    return total;
  }

  /// Zeroes every slot. Not linearizable against concurrent add()s; call it
  /// only between parallel phases.
  void reset() {
    slots_.for_each([](Slot& s) {
      std::atomic_ref<uint64_t>(s.v).store(0, std::memory_order_relaxed);
    });
  }

 private:
  struct alignas(64) Slot {
    uint64_t v = 0;  // accessed through std::atomic_ref
  };

  LazyWorkerSlots<Slot> slots_;
};

}  // namespace parlis
