// Microbenchmark of the scheduler core against the seed scheduler (the
// counterpart of micro_hotpath / micro_wlis for the runtime layer):
//
//   spawn          — scheduling overhead per unit of distributed work: a
//                    parallel_for over `spawniters` trivial iterations at
//                    grain 1, fully scheduling-bound. Both sides halve the
//                    range down to single iterations, one fork per split.
//                    Seed: each fork pays a mutex acquire + std::deque
//                    push and a second acquire at the join. Current: each
//                    fork is a par_do on the lock-free deques.
//   par_do         — round-trip cost of a single fork+join pair (push,
//                    run left, pop-or-help) on an otherwise idle pool.
//   forkjoin_tree  — a balanced binary par_do tree (fork-join latency with
//                    real steal traffic), seed vs current.
//   parallel_for_tasks — tasks spawned by one parallel_for over 2^20
//                    indices at the default grain. Seed: one per split of
//                    its ~8·p eager chunks. Current: one per split of
//                    leaves of at most 4096 iterations (255 at 2^20).
//   parallel_for_compute — a compute-bound parallel_for over 2^16
//                    iterations: sequential-mode time over pooled time
//                    (medians of 11 interleaved runs) — the loop's
//                    self-speedup on the current runtime.
//   lis_ranks/wlis — end-to-end on the current runtime across a thread
//                    sweep (the pool size is fixed per process, so the
//                    parent re-executes itself per thread count via
//                    PARLIS_NUM_THREADS + an argv vector — no shell).
//
// The *seed* scheduler is embedded below (namespace seedsched) exactly as
// it shipped — one mutex-protected std::deque per worker, help-first
// stealing under those mutexes, 1 ms poll sleeps — so one binary measures
// both sides back to back; runs are interleaved (seed, current, ...) so
// machine drift cancels, and medians are reported.
//
// Flags: --n (lis_ranks size), --nw (wlis size), --spawniters,
// --treeleaves, --threadlist, --reps, --out FILE (BENCH_*.json records),
// --strict (exit 2 unless the spawn overhead drops >= 5x at the largest
// swept thread count; off by default so tiny CI smoke sizes don't fail on
// noise).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/bench_json.hpp"
#include "parlis/lis/lis.hpp"
#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/parallel/worker_counter.hpp"
#include "parlis/wlis/wlis.hpp"

namespace seedsched {

// ------------------------------------------------ the seed mutex scheduler ---
// Verbatim seed behaviour: per-worker mutex + std::deque<RawTask>, owner
// pops the back, thieves lock each victim in turn and pop the front, idle
// workers yield 64 times then sleep in 1 ms condvar polls, and every push
// notifies whenever any worker is asleep.

struct RawTask {
  void (*fn)(void*) = nullptr;
  void* arg = nullptr;
  std::atomic<uint32_t>* pending = nullptr;
};

thread_local int tl_seed_id = -1;

class SeedPool {
 public:
  explicit SeedPool(int p) : deques_(p > 0 ? p : 1) {
    tl_seed_id = 0;  // the creating thread is worker 0
    for (int i = 1; i < num_workers(); i++) {
      threads_.emplace_back([this, i] { worker_loop(i); });
    }
  }

  ~SeedPool() {
    stop_.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lk(sleep_mu_);
      sleep_cv_.notify_all();
    }
    for (auto& t : threads_) t.join();
    tl_seed_id = -1;
  }

  int num_workers() const { return static_cast<int>(deques_.size()); }

  uint64_t spawns() const {
    uint64_t total = 0;
    for (const Deque& d : deques_) total += d.spawns;
    return total;
  }

  void push(RawTask t) {
    int id = tl_seed_id >= 0 ? tl_seed_id : 0;
    // The shipped seed charged a WorkerCounter slot update to every push;
    // keep that cost so the comparison measures the system as it was.
    spawn_cost_.add();
    {
      std::lock_guard<std::mutex> lk(deques_[id].mu);
      deques_[id].q.push_back(t);
      deques_[id].spawns++;
    }
    if (sleepers_.load(std::memory_order_relaxed) > 0) {
      std::lock_guard<std::mutex> lk(sleep_mu_);
      sleep_cv_.notify_one();
    }
  }

  bool pop_if(void* arg) {
    int id = tl_seed_id >= 0 ? tl_seed_id : 0;
    std::lock_guard<std::mutex> lk(deques_[id].mu);
    auto& q = deques_[id].q;
    if (!q.empty() && q.back().arg == arg) {
      q.pop_back();
      return true;
    }
    return false;
  }

  bool try_run_one() {
    int id = tl_seed_id >= 0 ? tl_seed_id : 0;
    int p = num_workers();
    RawTask t;
    {
      std::lock_guard<std::mutex> lk(deques_[id].mu);
      if (!deques_[id].q.empty()) {
        t = deques_[id].q.back();
        deques_[id].q.pop_back();
        run(t);
        return true;
      }
    }
    for (int i = 1; i < p; i++) {
      int v = (id + i) % p;
      bool stolen = false;
      {
        std::lock_guard<std::mutex> lk(deques_[v].mu);
        if (!deques_[v].q.empty()) {
          t = deques_[v].q.front();
          deques_[v].q.pop_front();
          stolen = true;
        }
      }
      if (stolen) {
        run(t);
        return true;
      }
    }
    return false;
  }

  void wait(std::atomic<uint32_t>& pending) {
    while (pending.load(std::memory_order_acquire) != 0) {
      if (!try_run_one()) std::this_thread::yield();
    }
  }

 private:
  struct Deque {
    std::mutex mu;
    std::deque<RawTask> q;
    uint64_t spawns = 0;  // incremented under mu; read quiesced
  };

  static void run(const RawTask& t) {
    t.fn(t.arg);
    t.pending->fetch_sub(1, std::memory_order_acq_rel);
  }

  void worker_loop(int id) {
    tl_seed_id = id;
    int idle_spins = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      if (try_run_one()) {
        idle_spins = 0;
        continue;
      }
      if (++idle_spins < 64) {
        std::this_thread::yield();
        continue;
      }
      std::unique_lock<std::mutex> lk(sleep_mu_);
      sleepers_.fetch_add(1, std::memory_order_relaxed);
      sleep_cv_.wait_for(lk, std::chrono::milliseconds(1));
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      idle_spins = 0;
    }
  }

  std::deque<Deque> deques_;  // Deque is immovable (mutex member)
  std::vector<std::thread> threads_;
  parlis::WorkerCounter spawn_cost_;
  std::atomic<bool> stop_{false};
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::atomic<int> sleepers_{0};
};

template <typename Left, typename Right>
void par_do(SeedPool& pool, Left&& left, Right&& right) {
  if (pool.num_workers() == 1) {
    left();
    right();
    return;
  }
  std::atomic<uint32_t> pending{1};
  using R = std::remove_reference_t<Right>;
  struct Pack {
    R* f;
  } pack{&right};
  RawTask t;
  t.fn = [](void* a) { (*static_cast<Pack*>(a)->f)(); };
  t.arg = &pack;
  t.pending = &pending;
  pool.push(t);
  left();
  if (pool.pop_if(&pack)) {
    right();
  } else {
    pool.wait(pending);
  }
}

template <typename F>
void parallel_for_rec(SeedPool& pool, int64_t lo, int64_t hi, int64_t grain,
                      const F& f) {
  if (hi - lo <= grain) {
    for (int64_t i = lo; i < hi; i++) f(i);
    return;
  }
  int64_t mid = lo + (hi - lo) / 2;
  par_do(pool, [&] { parallel_for_rec(pool, lo, mid, grain, f); },
         [&] { parallel_for_rec(pool, mid, hi, grain, f); });
}

// Verbatim seed grain heuristic: ~8 eagerly spawned chunks per worker.
template <typename F>
void parallel_for(SeedPool& pool, int64_t lo, int64_t hi, const F& f) {
  if (hi <= lo) return;
  int64_t n = hi - lo;
  int64_t pieces = static_cast<int64_t>(pool.num_workers()) * 8;
  int64_t grain = (n + pieces - 1) / pieces;
  if (grain < 1) grain = 1;
  if (n <= grain || pool.num_workers() == 1) {
    for (int64_t i = lo; i < hi; i++) f(i);
    return;
  }
  parallel_for_rec(pool, lo, hi, grain, f);
}

}  // namespace seedsched

namespace {

using namespace parlis;
using namespace parlis::bench;

// parallel_for_compute: iterations, hash64 calls per iteration (~0.25 µs
// of work) and interleaved sequential-mode/pooled pairs.
constexpr int64_t kComputeIters = 1 << 16;
constexpr int kComputeChain = 64;
constexpr int kComputeReps = 11;

int64_t tree_cur(int64_t lo, int64_t hi) {
  if (hi - lo == 1) return lo;
  int64_t mid = lo + (hi - lo) / 2;
  int64_t a = 0, b = 0;
  par_do([&] { a = tree_cur(lo, mid); }, [&] { b = tree_cur(mid, hi); });
  return a + b;
}

int64_t tree_seed(seedsched::SeedPool& pool, int64_t lo, int64_t hi) {
  if (hi - lo == 1) return lo;
  int64_t mid = lo + (hi - lo) / 2;
  int64_t a = 0, b = 0;
  seedsched::par_do(pool, [&] { a = tree_seed(pool, lo, mid); },
                    [&] { b = tree_seed(pool, mid, hi); });
  return a + b;
}

// Child mode: run every measurement at the pool size inherited from
// PARLIS_NUM_THREADS and print RESULT lines in a fixed order.
int run_child(int64_t n, int64_t nw, int64_t spawn_iters, int64_t tree_leaves,
              int reps) {
  int threads = num_workers();
  double spawn_seed_ns, spawn_cur_ns, pardo_seed_ns, pardo_cur_ns;
  double tree_seed_ms, tree_cur_ms;
  double pfor_seed_tasks, pfor_cur_tasks;
  {
    seedsched::SeedPool seed_pool(threads);

    volatile int64_t sink = 0;
    // Scheduling-bound loop: grain 1 makes every iteration a leaf of a
    // binary fork tree on both sides. The body is one plain store per
    // distinct index, so elapsed time is almost pure scheduling overhead.
    std::vector<int64_t> units(spawn_iters);
    PairMedians m_spawn = measure_pair(
        reps,
        [&] {
          seedsched::parallel_for_rec(seed_pool, 0, spawn_iters, 1,
                                      [&](int64_t i) { units[i] = i; });
        },
        [&] {
          parallel_for(0, spawn_iters, [&](int64_t i) { units[i] = i; },
                       /*grain=*/1);
        });
    spawn_seed_ns = m_spawn.a * 1e9 / spawn_iters;
    spawn_cur_ns = m_spawn.b * 1e9 / spawn_iters;

    // Per-branch sinks: the right branch may run on a thief, so the two
    // bodies must not touch the same (non-atomic) cell.
    volatile int64_t sink_l = 0, sink_r = 0;
    PairMedians m_pardo = measure_pair(
        reps,
        [&] {
          for (int64_t i = 0; i < spawn_iters; i++) {
            seedsched::par_do(seed_pool, [&] { sink_l = sink_l + 1; },
                              [&] { sink_r = sink_r + 1; });
          }
        },
        [&] {
          for (int64_t i = 0; i < spawn_iters; i++) {
            par_do([&] { sink_l = sink_l + 1; }, [&] { sink_r = sink_r + 1; });
          }
        });
    pardo_seed_ns = m_pardo.a * 1e9 / spawn_iters;
    pardo_cur_ns = m_pardo.b * 1e9 / spawn_iters;

    PairMedians m_tree = measure_pair(
        reps, [&] { sink = sink + tree_seed(seed_pool, 0, tree_leaves); },
        [&] { sink = sink + tree_cur(0, tree_leaves); });
    tree_seed_ms = m_tree.a * 1e3;
    tree_cur_ms = m_tree.b * 1e3;

    constexpr int64_t kPforN = 1 << 20;
    std::vector<int64_t> acc(kPforN);
    uint64_t seed_before = seed_pool.spawns();
    seedsched::parallel_for(seed_pool, 0, kPforN,
                            [&](int64_t i) { acc[i] = i; });
    pfor_seed_tasks = static_cast<double>(seed_pool.spawns() - seed_before);
    uint64_t cur_before = scheduler_stats().spawns;
    parallel_for(0, kPforN, [&](int64_t i) { acc[i] = i + 1; });
    pfor_cur_tasks = static_cast<double>(scheduler_stats().spawns - cur_before);
  }  // seed pool torn down: its 1 ms pollers must not disturb the rows below

  // Compute-bound loop: a dependent hash chain per index and one store, so
  // the loop's time is the body's and its self-speedup is the scheduler's.
  std::vector<uint64_t> chain(kComputeIters);
  auto compute_loop = [&] {
    parallel_for(0, kComputeIters, [&](int64_t i) {
      uint64_t x = static_cast<uint64_t>(i);
      for (int r = 0; r < kComputeChain; r++) x = hash64(x);
      chain[i] = x;
    });
  };
  PairMedians m_compute = measure_pair(
      kComputeReps,
      [&] {
        const bool prev = set_sequential_mode(true);
        compute_loop();
        set_sequential_mode(prev);
      },
      compute_loop);

  std::vector<int64_t> a(n), w(n);
  parallel_for(0, n, [&](int64_t i) {
    a[i] = static_cast<int64_t>(hash64(42, i) >> 1);
    w[i] = 1 + static_cast<int64_t>(uniform(43, i, 1000));
  });
  volatile int64_t sink = 0;
  double lis_ms =
      time_median_of(reps, [&] { sink = sink + lis_ranks(a).k; }) * 1e3;
  std::vector<int64_t> aw(a.begin(), a.begin() + std::min(n, nw));
  std::vector<int64_t> ww(w.begin(), w.begin() + std::min(n, nw));
  double wlis_ms = time_median_of(reps, [&] {
                     sink = sink + wlis(aw, ww, WlisStructure::kRangeTree).best;
                   }) * 1e3;

  std::printf("RESULT %.4f\n", spawn_seed_ns);
  std::printf("RESULT %.4f\n", spawn_cur_ns);
  std::printf("RESULT %.4f\n", pardo_seed_ns);
  std::printf("RESULT %.4f\n", pardo_cur_ns);
  std::printf("RESULT %.6f\n", tree_seed_ms);
  std::printf("RESULT %.6f\n", tree_cur_ms);
  std::printf("RESULT %.0f\n", pfor_seed_tasks);
  std::printf("RESULT %.0f\n", pfor_cur_tasks);
  std::printf("RESULT %.6f\n", lis_ms);
  std::printf("RESULT %.6f\n", wlis_ms);
  std::printf("RESULT %.6f\n", m_compute.a * 1e3);
  std::printf("RESULT %.6f\n", m_compute.b * 1e3);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  int64_t n = flags.get("n", 10000000);
  int64_t nw = flags.get("nw", 1000000);
  int64_t spawn_iters = flags.get("spawniters", 100000);
  int64_t tree_leaves = flags.get("treeleaves", 4096);
  int reps = static_cast<int>(flags.get("reps", 3));
  if (flags.has("child")) {
    return run_child(n, nw, spawn_iters, tree_leaves, reps);
  }

  std::string tl = flags.get_str("threadlist", "1,2,4");
  std::vector<int> threads = parse_int_list(tl);
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  BenchJson json(flags.get_str("out", ""));
  std::printf(
      "micro_scheduler: n=%lld, nw=%lld, spawniters=%lld, treeleaves=%lld, "
      "reps=%d, threads={%s}, host_hw_threads=%d\n",
      static_cast<long long>(n), static_cast<long long>(nw),
      static_cast<long long>(spawn_iters), static_cast<long long>(tree_leaves),
      reps, tl.c_str(), hw);

  std::vector<std::string> child_args = {
      "--child",      "1",
      "--n",          std::to_string(n),
      "--nw",         std::to_string(nw),
      "--spawniters", std::to_string(spawn_iters),
      "--treeleaves", std::to_string(tree_leaves),
      "--reps",       std::to_string(reps)};

  struct Row {
    int threads = 0;
    std::vector<double> v;  // the 12 RESULT values
  };
  std::vector<Row> rows;
  for (int t : threads) {
    std::vector<double> v = run_self_with_threads(argv[0], t, child_args);
    if (v.size() != 12) {
      std::fprintf(stderr, "micro_scheduler: child at %d threads failed\n", t);
      continue;
    }
    rows.push_back({t, std::move(v)});
  }
  if (rows.empty()) {
    std::fprintf(stderr, "micro_scheduler: no measurements\n");
    return 1;
  }

  std::printf("\n%-8s  %22s  %22s  %20s  %16s  %22s  %12s  %12s\n",
              "threads", "spawn ns (seed/cur/x)", "pardo ns (seed/cur/x)",
              "tree ms (seed/cur)", "pfor tasks (s/c)",
              "compute ms (seq/pool/x)", "lis_ranks ms", "wlis ms");
  for (const Row& r : rows) {
    std::printf(
        "%-8d  %9.1f %7.1f %4.1fx  %9.1f %7.1f %4.1fx  %10.3f %9.3f  "
        "%9.0f %6.0f  %8.2f %7.2f %5.2fx  %12.1f  %12.1f\n",
        r.threads, r.v[0], r.v[1], r.v[1] > 0 ? r.v[0] / r.v[1] : -1, r.v[2],
        r.v[3], r.v[3] > 0 ? r.v[2] / r.v[3] : -1, r.v[4], r.v[5], r.v[6],
        r.v[7], r.v[10], r.v[11], r.v[11] > 0 ? r.v[10] / r.v[11] : -1,
        r.v[8], r.v[9]);
  }

  double lis_t1 = -1, wlis_t1 = -1;
  for (const Row& r : rows) {
    if (r.threads == 1) {
      lis_t1 = r.v[8];
      wlis_t1 = r.v[9];
    }
  }
  for (const Row& r : rows) {
    auto rec = [&](const char* op, const char* variant) {
      return JsonRecord()
          .field("bench", "micro_scheduler")
          .field("op", op)
          .field("variant", variant)
          .field("threads", r.threads);
    };
    json.add(rec("spawn", "seed").field("per_spawn_ns", r.v[0]));
    json.add(rec("spawn", "current")
                 .field("per_spawn_ns", r.v[1])
                 .field("speedup_x", r.v[1] > 0 ? r.v[0] / r.v[1] : -1));
    json.add(rec("par_do", "seed").field("per_fork_ns", r.v[2]));
    json.add(rec("par_do", "current")
                 .field("per_fork_ns", r.v[3])
                 .field("speedup_x", r.v[3] > 0 ? r.v[2] / r.v[3] : -1));
    json.add(rec("forkjoin_tree", "seed")
                 .field("leaves", tree_leaves)
                 .field("median_ms", r.v[4]));
    json.add(rec("forkjoin_tree", "current")
                 .field("leaves", tree_leaves)
                 .field("median_ms", r.v[5])
                 .field("speedup_x", r.v[5] > 0 ? r.v[4] / r.v[5] : -1));
    json.add(rec("parallel_for_tasks", "seed").field("tasks", r.v[6]));
    json.add(rec("parallel_for_tasks", "current").field("tasks", r.v[7]));
    json.add(rec("parallel_for_compute", "current")
                 .field("iters", kComputeIters)
                 .field("seq_ms", r.v[10])
                 .field("pooled_ms", r.v[11])
                 .field("speedup_x", r.v[11] > 0 ? r.v[10] / r.v[11] : -1));
    json.add(rec("lis_ranks", "current")
                 .field("n", n)
                 .field("median_ms", r.v[8])
                 .field("speedup_vs_t1",
                        lis_t1 > 0 && r.v[8] > 0 ? lis_t1 / r.v[8] : -1));
    json.add(rec("wlis", "current")
                 .field("n", nw)
                 .field("median_ms", r.v[9])
                 .field("speedup_vs_t1",
                        wlis_t1 > 0 && r.v[9] > 0 ? wlis_t1 / r.v[9] : -1));
  }

  const Row& top = rows.back();
  double spawn_x = top.v[1] > 0 ? top.v[0] / top.v[1] : -1;
  bool spawn_pass = spawn_x >= 5.0;
  std::printf("\nacceptance (spawn overhead >= 5x down at %d threads): %s (%.1fx)%s\n",
              top.threads, spawn_pass ? "PASS" : "FAIL", spawn_x,
              flags.has("strict") ? "" : " (advisory; --strict gates exit)");
  std::printf("parallel_for_compute: %.2fx sequential mode at %d threads\n",
              top.v[11] > 0 ? top.v[10] / top.v[11] : -1, top.threads);
  double lis_top = top.v[8];
  if (lis_t1 > 0 && lis_top > 0) {
    std::printf("lis_ranks scaling: %.2fx at %d threads vs 1 thread%s\n",
                lis_t1 / lis_top, top.threads,
                hw < 4 ? " (host has < 4 hardware threads; see EXPERIMENTS.md)"
                       : "");
  }
  return flags.has("strict") && !spawn_pass ? 2 : 0;
}
