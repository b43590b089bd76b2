// Lazily-initialized per-worker slot array — the shared substrate under
// WorkerCounter and Arena.
//
// Holds one SlotT per pool worker so concurrent hot-path operations from
// distinct workers never touch the same state. The array is sized on first
// use *after* the pool exists (the pool's worker count is fixed from then
// on, so worker_id() always fits); until the pool starts, local() hands out
// a boot slot instead. Construction therefore has no scheduler side
// effects: creating a slot-backed structure neither spins up the pool nor
// invalidates a later set_num_workers() call. Pre-pool use is necessarily
// single-threaded (no pool workers exist yet), and pool workers always
// observe the started pool because their spawn happens-after it.
//
// Threads outside the pool alias worker 0's slot (worker_id() maps them to
// 0), so slot exactness holds only for pool workers. The scheduler itself
// no longer shares this caveat — external submissions go through a locked
// side queue and separate atomic counters — so exactness-critical external
// accounting belongs there, not in a slot.
//
// SlotT must be default-constructible and trivially copyable (moves copy
// the boot slot and transfer the array). Moves must not race with local().
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>

#include "parlis/parallel/scheduler.hpp"

namespace parlis {

template <typename SlotT>
class LazyWorkerSlots {
  static_assert(std::is_trivially_copyable_v<SlotT>);

 public:
  LazyWorkerSlots() = default;

  LazyWorkerSlots(LazyWorkerSlots&& o) noexcept { *this = std::move(o); }
  LazyWorkerSlots& operator=(LazyWorkerSlots&& o) noexcept {
    if (this != &o) {
      nslots_ = o.nslots_;
      owner_ = std::move(o.owner_);
      arr_.store(owner_.get(), std::memory_order_relaxed);
      boot_ = o.boot_;
      o.nslots_ = 0;
      o.arr_.store(nullptr, std::memory_order_relaxed);
      o.boot_ = SlotT{};
    }
    return *this;
  }
  LazyWorkerSlots(const LazyWorkerSlots&) = delete;
  LazyWorkerSlots& operator=(const LazyWorkerSlots&) = delete;

  /// The calling worker's slot — or the boot slot until the pool starts.
  SlotT& local() {
    SlotT* a = arr_.load(std::memory_order_acquire);
    if (a == nullptr && (a = init()) == nullptr) return boot_;
    return a[worker_id()];
  }

  /// Invokes f on the boot slot and every initialized worker slot.
  template <typename F>
  void for_each(F&& f) {
    f(boot_);
    SlotT* a = arr_.load(std::memory_order_acquire);
    for (int i = 0; a != nullptr && i < nslots_; i++) f(a[i]);
  }
  template <typename F>
  void for_each(F&& f) const {
    f(boot_);
    const SlotT* a = arr_.load(std::memory_order_acquire);
    for (int i = 0; a != nullptr && i < nslots_; i++) f(a[i]);
  }

 private:
  SlotT* init() {
    if (!internal::pool_started()) return nullptr;
    static std::mutex mu;  // shared across instances; first-init only
    std::lock_guard<std::mutex> lk(mu);
    SlotT* a = arr_.load(std::memory_order_relaxed);
    if (a == nullptr) {
      nslots_ = num_workers();
      owner_ = std::make_unique<SlotT[]>(nslots_);
      a = owner_.get();
      arr_.store(a, std::memory_order_release);  // publishes nslots_ too
    }
    return a;
  }

  int nslots_ = 0;  // written once under init's lock, before arr_ publish
  std::unique_ptr<SlotT[]> owner_;
  std::atomic<SlotT*> arr_{nullptr};
  SlotT boot_{};  // pre-pool phase (single-threaded by construction)
};

}  // namespace parlis
