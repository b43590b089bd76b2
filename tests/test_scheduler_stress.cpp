// Stress tests for the work-stealing runtime: deep nesting, irregular task
// trees, reentrancy from stolen tasks, heavy join contention, concurrent
// submission from threads outside the pool, spawn/steal accounting, and
// the sequential-mode switch — the failure modes of help-first schedulers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <numeric>
#include <thread>
#include <vector>

#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/primitives.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/parallel/scheduler.hpp"

namespace parlis {
namespace {

// Unbalanced recursion: left branch much deeper than the right, so joins
// routinely find their child stolen and must help.
int64_t skewed_sum(int64_t lo, int64_t hi) {
  if (hi - lo <= 4) {
    int64_t s = 0;
    for (int64_t i = lo; i < hi; i++) s += i;
    return s;
  }
  int64_t cut = lo + std::max<int64_t>(1, (hi - lo) / 8);  // 1:7 split
  int64_t a = 0, b = 0;
  par_do([&] { a = skewed_sum(lo, cut); }, [&] { b = skewed_sum(cut, hi); });
  return a + b;
}

TEST(SchedulerStress, SkewedTaskTree) {
  int64_t n = 200000;
  EXPECT_EQ(skewed_sum(0, n), n * (n - 1) / 2);
}

TEST(SchedulerStress, ManySmallRegions) {
  // Thousands of tiny parallel regions in sequence: pool wake/sleep churn.
  std::atomic<int64_t> total{0};
  for (int rep = 0; rep < 3000; rep++) {
    par_do([&] { total.fetch_add(1, std::memory_order_relaxed); },
           [&] { total.fetch_add(2, std::memory_order_relaxed); });
  }
  EXPECT_EQ(total.load(), 3 * 3000);
}

TEST(SchedulerStress, NestedParallelForInsideParDo) {
  std::vector<std::atomic<int32_t>> hits(50000);
  par_do(
      [&] {
        parallel_for(0, 25000, [&](int64_t i) { hits[i].fetch_add(1); });
      },
      [&] {
        parallel_for(25000, 50000, [&](int64_t i) { hits[i].fetch_add(1); });
      });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(SchedulerStress, DeepRecursionDoesNotLoseTasks) {
  // A 2^16-leaf balanced tree of par_dos; every leaf must run exactly once.
  constexpr int kDepth = 16;
  std::vector<std::atomic<int8_t>> leaf(1 << kDepth);
  std::function<void(int64_t, int)> rec = [&](int64_t id, int depth) {
    if (depth == kDepth) {
      leaf[id].fetch_add(1);
      return;
    }
    par_do([&] { rec(2 * id, depth + 1); },
           [&] { rec(2 * id + 1, depth + 1); });
  };
  rec(0, 0);
  for (auto& l : leaf) ASSERT_EQ(l.load(), 1);
}

TEST(SchedulerStress, SequentialModeIsExact) {
  // In sequential mode everything runs on the calling thread, in order.
  bool prev = set_sequential_mode(true);
  int me = worker_id();
  std::vector<int> order;
  par_do([&] { order.push_back(1); EXPECT_EQ(worker_id(), me); },
         [&] { order.push_back(2); EXPECT_EQ(worker_id(), me); });
  parallel_for(0, 5, [&](int64_t i) {
    order.push_back(static_cast<int>(10 + i));
    EXPECT_EQ(worker_id(), me);
  });
  set_sequential_mode(prev);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 10, 11, 12, 13, 14}));
}

TEST(SchedulerStress, MixedPrimitivesUnderLoad) {
  // Sort + scan + filter interleaved in parallel branches; results must be
  // independent of scheduling.
  std::vector<int64_t> data(120000);
  for (size_t i = 0; i < data.size(); i++) data[i] = hash64(90, i) % 10000;
  std::vector<int64_t> sorted_copy, evens;
  int64_t sum = 0;
  par_do(
      [&] {
        sorted_copy = data;
        sort_inplace(sorted_copy);
      },
      [&] {
        par_do([&] { evens = filter(data, [](int64_t x) { return x % 2 == 0; }); },
               [&] { sum = reduce_sum(data); });
      });
  EXPECT_TRUE(std::is_sorted(sorted_copy.begin(), sorted_copy.end()));
  EXPECT_EQ(sum, std::accumulate(data.begin(), data.end(), int64_t{0}));
  int64_t even_count = 0;
  for (int64_t x : data) even_count += (x % 2 == 0);
  EXPECT_EQ(static_cast<int64_t>(evens.size()), even_count);
}

TEST(SchedulerStress, ExternalThreadsSubmitConcurrently) {
  // Threads *outside* the pool (plain std::threads) submit parallel_for and
  // nested par_do work at the same time. External submissions go through
  // the locked side queue rather than a single-owner deque; no task may be
  // lost or doubled, and every join must complete.
  (void)num_workers();  // ensure the pool exists before the externals start
  constexpr int kThreads = 4;
  constexpr int64_t kPerThread = 20000;
  std::vector<std::atomic<int32_t>> hits(kThreads * kPerThread);
  std::vector<std::atomic<int64_t>> sums(kThreads);
  std::vector<std::thread> external;
  external.reserve(kThreads);
  for (int e = 0; e < kThreads; e++) {
    external.emplace_back([&, e] {
      int64_t lo = e * kPerThread, hi = lo + kPerThread;
      parallel_for(lo, hi, [&](int64_t i) { hits[i].fetch_add(1); });
      int64_t a = 0, b = 0;
      par_do([&] { a = skewed_sum(0, 30000); },
             [&] { b = skewed_sum(30000, 60000); });
      sums[e].store(a + b);
    });
  }
  for (auto& t : external) t.join();
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
  for (auto& s : sums) {
    EXPECT_EQ(s.load(), int64_t{60000} * (60000 - 1) / 2);
  }
}

TEST(SchedulerStress, ExternalDeepNestingUnderPoolLoad) {
  // Deep nested par_do driven from an external thread while pool-internal
  // parallel_fors churn: external joins must help (steal) without owning a
  // deque, and the pool must drain the side queue while busy.
  (void)num_workers();
  std::atomic<int64_t> leaves{0};
  std::function<void(int)> deep = [&](int depth) {
    if (depth == 0) {
      leaves.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    par_do([&] { deep(depth - 1); }, [&] { deep(depth - 1); });
  };
  std::thread ext([&] { deep(12); });
  std::vector<std::atomic<int32_t>> hits(40000);
  for (int rep = 0; rep < 4; rep++) {
    parallel_for(0, 40000, [&](int64_t i) { hits[i].fetch_add(1); });
  }
  ext.join();
  EXPECT_EQ(leaves.load(), int64_t{1} << 12);
  for (auto& h : hits) ASSERT_EQ(h.load(), 4);
}

TEST(SchedulerStress, SpawnAccountingExactForParDo) {
  // Each par_do pushes exactly one task (when the pool has > 1 worker), so
  // spawn counts must match push counts exactly — including pushes from
  // external threads, which use shared atomic counters rather than the
  // per-worker slots (a plain slot-0 alias would lose updates here).
  if (num_workers() == 1) GTEST_SKIP() << "par_do inlines with one worker";
  reset_scheduler_stats();
  constexpr int kMainForks = 500;
  constexpr int kExtThreads = 3;
  constexpr int kExtForks = 400;
  std::atomic<int64_t> ran{0};
  for (int i = 0; i < kMainForks; i++) {
    par_do([&] { ran.fetch_add(1, std::memory_order_relaxed); },
           [&] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  std::vector<std::thread> external;
  for (int e = 0; e < kExtThreads; e++) {
    external.emplace_back([&] {
      for (int i = 0; i < kExtForks; i++) {
        par_do([&] { ran.fetch_add(1, std::memory_order_relaxed); },
               [&] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& t : external) t.join();
  constexpr uint64_t kForks = kMainForks + kExtThreads * kExtForks;
  EXPECT_EQ(ran.load(), int64_t{2} * kForks);
  SchedulerStats stats = scheduler_stats();
  EXPECT_EQ(stats.spawns, kForks);
  // Every steal consumed a pushed task; the rest were popped at their join.
  EXPECT_LE(stats.steals, stats.spawns);
}

TEST(SchedulerStress, ParallelForForksOncePerSplit) {
  // parallel_for halves its range with par_do down to the grain, so a 2^20
  // loop at grain 4096 has 256 leaves and forks exactly 255 times, whether
  // a pool worker or a thread outside the pool calls it.
  if (num_workers() == 1) GTEST_SKIP() << "parallel_for inlines with one worker";
  constexpr int64_t kN = 1 << 20;
  constexpr int64_t kGrain = 4096;
  std::vector<std::atomic<int32_t>> hits(kN);
  // Runs the loop over zeroed hits and returns its spawns.
  auto spawns_of_loop = [&] {
    reset_scheduler_stats();
    parallel_for(0, kN, [&](int64_t i) { hits[i].fetch_add(1); }, kGrain);
    return scheduler_stats().spawns;
  };
  auto count_and_clear = [&] {
    int64_t once = 0;
    for (auto& h : hits) once += h.exchange(0) == 1;
    return once;
  };
  constexpr uint64_t kForks = kN / kGrain - 1;
  EXPECT_EQ(spawns_of_loop(), kForks);
  EXPECT_EQ(count_and_clear(), kN);
  uint64_t external = 0;
  std::thread([&] { external = spawns_of_loop(); }).join();
  EXPECT_EQ(external, kForks);
  EXPECT_EQ(count_and_clear(), kN);
}

TEST(SchedulerStress, ParallelForLowerHalfIsStealable) {
  // The caller blocks in its first iteration until a thread other than
  // itself has run an index of [1, N/2): both halves of every split must
  // stay open to thieves, not just the upper half of the whole range (a
  // loop that hands out only upper halves runs at most 2x its one-thread
  // speed).
  if (num_workers() == 1) GTEST_SKIP() << "parallel_for inlines with one worker";
  constexpr int64_t kN = 4096;
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> stolen{false};
  parallel_for(
      0, kN,
      [&](int64_t i) {
        if (i == 0) {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (!stolen.load() && std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
        } else if (i < kN / 2 && std::this_thread::get_id() != caller) {
          stolen.store(true);
        }
      },
      1);
  EXPECT_TRUE(stolen.load());
}

TEST(SchedulerStress, GrainExtremes) {
  // grain = 1 (max task count) and grain = n (fully sequential) both cover
  // every index exactly once.
  for (int64_t grain : {int64_t{1}, int64_t{1 << 20}}) {
    std::vector<std::atomic<int32_t>> hits(20000);
    parallel_for(0, 20000, [&](int64_t i) { hits[i].fetch_add(1); }, grain);
    for (auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

// ----------------------------------------------------- exception propagation
// The failure-semantics contract of the runtime: an exception thrown inside
// any task — owner or stolen, either par_do arm, any parallel_for block —
// is captured in the join frame, siblings are cooperatively cancelled, and
// the (first) exception rethrows at the join on the spawning thread. The
// pool must come out fully usable. (These run under the TSan CI leg via the
// SchedulerStress label: capture/rethrow and the cancel flag get raced.)

struct BoomError {
  int64_t where = 0;
};

// Every index covered exactly once: the standard post-failure sanity probe
// that proves no worker died and no deque entry leaked.
void expect_pool_healthy() {
  std::vector<std::atomic<int32_t>> hits(50000);
  parallel_for(0, 50000, [&](int64_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(SchedulerStress, ParDoThrowLeftArm) {
  std::atomic<int32_t> right_ran{0};
  EXPECT_THROW(par_do([] { throw BoomError{1}; },
                      [&] { right_ran.fetch_add(1); }),
               BoomError);
  expect_pool_healthy();
}

TEST(SchedulerStress, ParDoThrowRightArm) {
  std::atomic<int32_t> left_ran{0};
  EXPECT_THROW(par_do([&] { left_ran.fetch_add(1); },
                      [] { throw BoomError{2}; }),
               BoomError);
  EXPECT_EQ(left_ran.load(), 1);
  expect_pool_healthy();
}

TEST(SchedulerStress, ParDoThrowBothArmsDeliversExactlyOne) {
  // Both arms throw; first capture wins, the other is swallowed — the join
  // must deliver exactly one BoomError, never terminate on a second.
  for (int rep = 0; rep < 50; rep++) {
    EXPECT_THROW(par_do([] { throw BoomError{1}; },
                        [] { throw BoomError{2}; }),
                 BoomError);
  }
  expect_pool_healthy();
}

TEST(SchedulerStress, NestedForkJoinThrowUnwindsToRoot) {
  // Deep skewed recursion with a throw at one deep leaf: the exception must
  // climb every join frame back to the root, through helped and stolen
  // children alike.
  std::function<int64_t(int64_t, int64_t)> rec = [&](int64_t lo,
                                                     int64_t hi) -> int64_t {
    if (hi - lo <= 4) {
      for (int64_t i = lo; i < hi; i++) {
        if (i == 100000) throw BoomError{i};
      }
      return hi - lo;
    }
    int64_t cut = lo + std::max<int64_t>(1, (hi - lo) / 8);
    int64_t a = 0, b = 0;
    par_do([&] { a = rec(lo, cut); }, [&] { b = rec(cut, hi); });
    return a + b;
  };
  EXPECT_THROW((void)rec(0, 200000), BoomError);
  expect_pool_healthy();
}

TEST(SchedulerStress, ParallelForBodyThrowCancelsSiblings) {
  for (int rep = 0; rep < 10; rep++) {
    std::atomic<int64_t> executed{0};
    try {
      parallel_for(0, 1 << 20, [&](int64_t i) {
        executed.fetch_add(1, std::memory_order_relaxed);
        if (i == 500000) throw BoomError{i};
      });
      FAIL() << "parallel_for swallowed the exception";
    } catch (const BoomError& e) {
      EXPECT_EQ(e.where, 500000);
    }
    // Cooperative cancellation is best-effort, but it must at least beat
    // running the loop to completion every time.
    EXPECT_LE(executed.load(), int64_t{1} << 20);
  }
  expect_pool_healthy();
}

TEST(SchedulerStress, ParallelForEveryIterationThrowsDeliversOne) {
  EXPECT_THROW(
      parallel_for(0, 100000, [](int64_t i) { throw BoomError{i}; }),
      BoomError);
  expect_pool_healthy();
}

TEST(SchedulerStress, ExternalThreadsObserveExceptions) {
  // Threads outside the pool join through the external-submission path;
  // each must get its own exception back while the others' work completes.
  std::atomic<int32_t> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&ok, t] {
      for (int rep = 0; rep < 5; rep++) {
        bool caught = false;
        try {
          parallel_for(0, 1 << 16, [&](int64_t i) {
            if (t % 2 == 0 && i == 30000) throw BoomError{i};
          });
        } catch (const BoomError&) {
          caught = true;
        }
        if (caught == (t % 2 == 0)) ok.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), 4 * 5);
  expect_pool_healthy();
}

TEST(SchedulerStress, ThrowStressInterleavedWithRealWork) {
  // Alternate failing and succeeding regions; the succeeding ones must stay
  // exact (no lost or duplicated iterations from a prior unwind).
  for (int rep = 0; rep < 20; rep++) {
    EXPECT_THROW(parallel_for(0, 100000,
                              [](int64_t i) {
                                if (i % 7919 == 0) throw BoomError{i};
                              }),
                 BoomError);
    std::atomic<int64_t> sum{0};
    parallel_for(0, 10000,
                 [&](int64_t i) { sum.fetch_add(i, std::memory_order_relaxed); });
    ASSERT_EQ(sum.load(), int64_t{10000} * 9999 / 2);
  }
}

}  // namespace
}  // namespace parlis
