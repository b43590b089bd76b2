#include "parlis/parallel/scheduler.hpp"

#include "parlis/parallel/chase_lev_deque.hpp"
#include "parlis/parallel/worker_counter.hpp"
#include "parlis/util/exec_context.hpp"
#include "parlis/util/failpoint.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <linux/membarrier.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace parlis {
namespace internal {
namespace {

thread_local int tl_worker_id = -1;

// Worker-count configuration. g_config_mu serializes set_num_workers()
// against pool construction, so when the two race exactly one side wins and
// the loser deterministically observes the outcome (set_num_workers returns
// false). g_pool_created is additionally read lock-free by LazyWorkerSlots
// and the parallel_for pool gate.
std::mutex g_config_mu;
std::atomic<int> g_requested_workers{0};  // set_num_workers target, 0 = default
std::atomic<bool> g_pool_created{false};

// Leaked on purpose: workers may record a last steal while statics are being
// torn down at exit, so the counters must outlive the pool.
WorkerCounter& spawn_counter() {
  static WorkerCounter* c = new WorkerCounter;
  return *c;
}
WorkerCounter& steal_counter() {
  static WorkerCounter* c = new WorkerCounter;
  return *c;
}
// Threads outside the pool alias worker slot 0, where a plain load+store
// counter would lose updates under concurrency — they count on these shared
// atomics instead, keeping scheduler_stats() exact under concurrent
// external submission.
std::atomic<uint64_t> g_external_spawns{0};
std::atomic<uint64_t> g_external_steals{0};

// The store-load barrier pair of the push/park handshake, asymmetric where
// Linux's membarrier(2) offers it: the parker, which is about to sleep
// anyway, makes every running thread of the process execute a full
// barrier, so a push needs only a compiler barrier. Elsewhere each push
// runs a seq_cst fence, which measured 2.2x a par_do round trip at 4
// workers (EXPERIMENTS.md, "Speculative chunked patience").
bool register_membarrier() {
#if defined(__linux__) && defined(SYS_membarrier)
  return syscall(SYS_membarrier, MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED,
                 0, 0) == 0;
#else
  return false;
#endif
}

void membarrier_all_threads() {
#if defined(__linux__) && defined(SYS_membarrier)
  syscall(SYS_membarrier, MEMBARRIER_CMD_PRIVATE_EXPEDITED, 0, 0);
#endif
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

class Pool {
 public:
  static Pool& get() {
    static Pool pool;
    return pool;
  }

  int num_workers() const { return p_; }

  void push(RawTask* t) {
    PARLIS_FAILPOINT_YIELD("scheduler.spawn");
    t->scope = tl_exec_context;
    int id = tl_worker_id;
    if (id >= 0) {
      // Pool worker (or the creating thread): lock-free single-owner push.
      spawn_counter().add();
      deques_[id].push(t);
    } else {
      // External thread: may not touch the single-owner deques; goes through
      // the locked submission queue that workers also poll.
      g_external_spawns.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lk(external_mu_);
        external_.push_back(t);
      }
      external_size_.fetch_add(1, std::memory_order_release);
    }
    wake_one_if_parked();
  }

  bool pop_if(RawTask* t) {
    int id = tl_worker_id;
    if (id >= 0) {
      RawTask* got = deques_[id].pop();
      if (got == t) return true;
      // In pure nested fork-join the bottom task at a join point is either
      // ours or the deque is empty; restore anything else defensively.
      if (got != nullptr) deques_[id].push(got);
      return false;
    }
    std::lock_guard<std::mutex> lk(external_mu_);
    for (auto it = external_.rbegin(); it != external_.rend(); ++it) {
      if (*it == t) {
        external_.erase(std::next(it).base());
        external_size_.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  // Runs one task — own deque bottom first (nested joins prefer their own
  // work), then a randomized-start steal sweep, then the external queue.
  bool try_run_one() {
    int id = tl_worker_id;
    if (id >= 0) {
      RawTask* t = deques_[id].pop();
      if (t != nullptr) {
        run(t);
        return true;
      }
    }
    return try_steal_one(id);
  }

  void wait(std::atomic<uint32_t>& pending) {
    // Helping join: no cv-parking here — a child's completing decrement
    // does not signal the condition variable. Spin, then yield, then fall
    // back to short timed naps: on an oversubscribed host a yield-spinning
    // waiter steals timeslices from the worker actually running the child,
    // and the nap costs at most its own length in join latency.
    int idle = 0;
    while (pending.load(std::memory_order_acquire) != 0) {
      if (try_run_one()) {
        idle = 0;
        continue;
      }
      idle++;
      if (idle < kSpinsBeforeYield) {
        cpu_relax();
      } else if (idle < kSpinsBeforeYield + kYieldsBeforePark) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  }

 private:
  static constexpr int kSpinsBeforeYield = 64;
  static constexpr int kYieldsBeforePark = 128;
  // An external thread has at most its fork depth (a few dozen) of tasks
  // queued at once; reserving room for many such threads keeps their pushes
  // from allocating.
  static constexpr size_t kExternalReserve = 1024;

  Pool() {
    int p;
    {
      // Under g_config_mu: a set_num_workers() racing with this construction
      // either lands before the flag flips (honored) or observes it and
      // returns false — never a torn/ignored write.
      std::lock_guard<std::mutex> lk(g_config_mu);
      g_pool_created.store(true, std::memory_order_release);
      p = g_requested_workers.load(std::memory_order_relaxed);
    }
    if (p <= 0) {
      if (const char* env = std::getenv("PARLIS_NUM_THREADS")) p = std::atoi(env);
    }
    if (p <= 0) p = static_cast<int>(std::thread::hardware_concurrency());
    if (p <= 0) p = 1;
    p_ = p;
    asymmetric_ = p > 1 && register_membarrier();
    deques_ = std::make_unique<ChaseLevDeque[]>(p);
    external_.reserve(kExternalReserve);
    tl_worker_id = 0;  // the creating thread is worker 0
    threads_.reserve(p - 1);
    for (int i = 1; i < p; i++) {
      threads_.emplace_back([this, i] { worker_loop(i); });
    }
  }

  ~Pool() {
    stop_.store(true, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> lk(sleep_mu_);
      wake_epoch_.fetch_add(1, std::memory_order_relaxed);
    }
    sleep_cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  static void run(RawTask* t) {
    // The descriptor may be freed by the joining frame as soon as pending
    // hits zero, so the decrement is the last access to either object.
    std::atomic<uint32_t>* pending = t->pending;
    ExceptionSlot* exc = t->exc;
    assert(exc != nullptr);  // par_do, the one fork site, always attaches one
    {
      // The task polls its forker's scope, not the runner's.
      ScopeSwap scope(t->scope);
      try {
        t->fn(t->arg);
      } catch (...) {
        // Capture BEFORE the decrement: the joining frame, seeing pending
        // == 0 with acquire, then sees the finished capture and rethrows on
        // its own stack.
        exc->capture(std::current_exception());
      }
    }
    pending->fetch_sub(1, std::memory_order_acq_rel);
  }

  bool try_steal_one(int id) {
    PARLIS_FAILPOINT_YIELD("scheduler.steal");
    // Randomized starting victim breaks convoys when several workers go
    // hunting at once.
    thread_local uint64_t rng = 0x9e3779b97f4a7c15ull ^
                                (static_cast<uint64_t>(id + 1) << 32);
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    int start = static_cast<int>(rng % static_cast<uint64_t>(p_));
    for (int i = 0; i < p_; i++) {
      int v = start + i;
      if (v >= p_) v -= p_;
      if (v == id) continue;
      RawTask* t = deques_[v].steal();
      if (t != nullptr) {
        count_steal(id);
        run(t);
        return true;
      }
    }
    if (external_size_.load(std::memory_order_acquire) > 0) {
      RawTask* t = nullptr;
      {
        std::lock_guard<std::mutex> lk(external_mu_);
        if (!external_.empty()) {
          t = external_.front();
          external_.erase(external_.begin());
          external_size_.fetch_sub(1, std::memory_order_relaxed);
        }
      }
      if (t != nullptr) {
        count_steal(id);
        run(t);
        return true;
      }
    }
    return false;
  }

  static void count_steal(int id) {
    if (id >= 0) {
      steal_counter().add();
    } else {
      g_external_steals.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void worker_loop(int id) {
    tl_worker_id = id;
    int idle = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      if (try_run_one()) {
        idle = 0;
        continue;
      }
      // Exponential backoff: spin, then yield, then park until a push.
      idle++;
      if (idle <= kSpinsBeforeYield) {
        cpu_relax();
      } else if (idle <= kSpinsBeforeYield + kYieldsBeforePark) {
        std::this_thread::yield();
      } else {
        park();
        idle = 0;
      }
    }
  }

  bool work_might_exist() const {
    for (int i = 0; i < p_; i++) {
      if (deques_[i].maybe_nonempty()) return true;
    }
    return external_size_.load(std::memory_order_acquire) > 0;
  }

  void park() {
    PARLIS_FAILPOINT_YIELD("scheduler.park");
    // Register as a sleeper *before* the final work re-check (seq_cst RMW,
    // so the re-check cannot be hoisted above it), then sleep with a long
    // timeout. The barrier between a pusher's push and its read of
    // sleepers_ (wake_one_if_parked) pairs with this RMW, or with the
    // membarrier after it: either the re-check sees the pushed task or the
    // pusher sees this sleeper. The timeout is a backstop only.
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    if (asymmetric_) membarrier_all_threads();
    uint64_t epoch = wake_epoch_.load(std::memory_order_seq_cst);
    if (work_might_exist() || stop_.load(std::memory_order_acquire)) {
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
    {
      std::unique_lock<std::mutex> lk(sleep_mu_);
      sleep_cv_.wait_for(lk, std::chrono::milliseconds(50), [&] {
        return wake_epoch_.load(std::memory_order_relaxed) != epoch ||
               stop_.load(std::memory_order_relaxed);
      });
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }

  void wake_one_if_parked() {
    // The barrier orders the caller's push before the read of sleepers_.
    // Without it the read may pass the push's store (x86 lets a load pass
    // an earlier store), miss a worker that is registering to park, and
    // leave that worker asleep until the 50 ms backstop while the forked
    // task waits for its frame's join. No lock unless a worker is parked.
    // The epoch bump happens under sleep_mu_ so it cannot land between a
    // parker's predicate evaluation and its sleep.
    if (asymmetric_) {
      std::atomic_signal_fence(std::memory_order_seq_cst);
    } else {
      std::atomic_thread_fence(std::memory_order_seq_cst);
    }
    if (sleepers_.load(std::memory_order_relaxed) > 0) {
      {
        std::lock_guard<std::mutex> lk(sleep_mu_);
        wake_epoch_.fetch_add(1, std::memory_order_relaxed);
      }
      sleep_cv_.notify_one();
    }
  }

  int p_ = 1;
  bool asymmetric_ = false;  // parkers run membarrier; pushes need none
  std::unique_ptr<ChaseLevDeque[]> deques_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};

  // External (non-pool) thread submissions; workers poll it after stealing.
  std::mutex external_mu_;
  std::vector<RawTask*> external_;
  std::atomic<int64_t> external_size_{0};

  // Parking protocol (spin → yield → park; wake-on-push only when someone
  // is actually parked).
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::atomic<int> sleepers_{0};
  std::atomic<uint64_t> wake_epoch_{0};
};

Pool& pool() { return Pool::get(); }

}  // namespace

void pool_push(RawTask* t) { pool().push(t); }
bool pool_pop_if(RawTask* t) { return pool().pop_if(t); }
void pool_wait(std::atomic<uint32_t>& pending) { pool().wait(pending); }
bool pool_started() {
  return g_pool_created.load(std::memory_order_acquire);
}

}  // namespace internal

int num_workers() { return internal::pool().num_workers(); }

bool set_num_workers(int n) {
  std::lock_guard<std::mutex> lk(internal::g_config_mu);
  if (internal::g_pool_created.load(std::memory_order_relaxed)) return false;
  internal::g_requested_workers.store(n, std::memory_order_relaxed);
  return true;
}

int worker_id() {
  return internal::tl_worker_id >= 0 ? internal::tl_worker_id : 0;
}

namespace {
std::atomic<bool> g_sequential_mode{false};
thread_local bool tl_sequential = false;
}  // namespace

bool set_sequential_mode(bool on) {
  return g_sequential_mode.exchange(on, std::memory_order_relaxed);
}

bool sequential_mode() {
  return tl_sequential || g_sequential_mode.load(std::memory_order_relaxed);
}

bool set_thread_sequential(bool on) {
  bool prev = tl_sequential;
  tl_sequential = on;
  return prev;
}

bool thread_sequential() { return tl_sequential; }

int pool_thread_id() { return internal::tl_worker_id; }

SchedulerStats scheduler_stats() {
  return {internal::spawn_counter().read() +
              internal::g_external_spawns.load(std::memory_order_relaxed),
          internal::steal_counter().read() +
              internal::g_external_steals.load(std::memory_order_relaxed)};
}

void reset_scheduler_stats() {
  internal::spawn_counter().reset();
  internal::steal_counter().reset();
  internal::g_external_spawns.store(0, std::memory_order_relaxed);
  internal::g_external_steals.store(0, std::memory_order_relaxed);
}

}  // namespace parlis
