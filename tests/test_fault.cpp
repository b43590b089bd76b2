// Failure-semantics suite (ctest -L fault; the ASan failpoints CI leg runs
// exactly this label):
//
//  * FaultInjection  — the failpoint x site matrix: every registered site is
//    armed and proven to fire, every failure surfaces as a structured
//    parlis::Error / std::bad_alloc (never terminate/UB), and a post-failure
//    warm re-solve is bit-identical to a cold solver's. Skips when the
//    library was built without -DPARLIS_FAILPOINTS=ON.
//  * FaultTriggers   — the deterministic trigger semantics (nth / every-K /
//    seeded-probabilistic) on a scratch site; runs in every build mode.
//  * ErrorHandling   — always-on API-boundary validation: the paths that
//    used to be Release-mode UB (asserts) now throw kInvalidArgument.
//  * Cancellation    — CancelToken and deadline_ms through every entry
//    point, deterministic mid-solve trips via comparator hooks, and the
//    post-cancellation warm-state coherence contract.
//  * MemoryBudget    — memory_budget_bytes admission: budget sweeps where
//    every admitted solve must match the unlimited reference exactly,
//    kBudgetExceeded on the rest, and the estimate >= real-accounting
//    pins for the range tree and for each of the Solver's plans.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <new>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "parlis/api/solver.hpp"
#include "parlis/lis/lis.hpp"
#include "parlis/lis/seq_lis.hpp"
#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/serve/engine.hpp"
#include "parlis/serve/session_table.hpp"
#include "parlis/stream/lis_session.hpp"
#include "parlis/swgs/swgs.hpp"
#include "parlis/util/arena.hpp"
#include "parlis/util/cancel.hpp"
#include "parlis/util/error.hpp"
#include "parlis/util/failpoint.hpp"
#include "parlis/util/generators.hpp"
#include "parlis/util/rank_space.hpp"
#include "parlis/util/tracking_allocator.hpp"
#include "parlis/wlis/wlis.hpp"
#include "parlis/wlis/wlis_workspace.hpp"

namespace parlis {
namespace {

std::vector<int64_t> make_vals(int64_t n, uint64_t seed) {
  std::vector<int64_t> a(n);
  for (int64_t i = 0; i < n; i++) {
    a[i] = static_cast<int64_t>(hash64(seed, i) >> 1);
  }
  return a;
}

std::vector<int64_t> make_weights(int64_t n, uint64_t seed) {
  std::vector<int64_t> w(n);
  for (int64_t i = 0; i < n; i++) {
    w[i] = 1 + static_cast<int64_t>(uniform(seed, i, 1000));
  }
  return w;
}

template <typename Fn>
void expect_error(ErrorCode want, Fn&& fn) {
  try {
    fn();
    ADD_FAILURE() << "expected Error{" << error_code_name(want)
                  << "}, call succeeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), want) << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected parlis::Error, got " << e.what();
  }
}

// ------------------------------------------------------------ FaultTriggers
// Trigger semantics on a scratch site, independent of whether the library's
// macro sites are compiled in (should_fire is always linked).

TEST(FaultTriggers, NthFiresExactlyOnce) {
  failpoints::arm_nth("test.nth", 3);
  failpoints::Site& s = failpoints::site("test.nth");
  int fired_at = -1, fires = 0;
  for (int i = 1; i <= 32; i++) {
    if (failpoints::detail::should_fire(s)) {
      fires++;
      fired_at = i;
    }
  }
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(fired_at, 3);
  EXPECT_EQ(failpoints::hit_count("test.nth"), 32u);
  EXPECT_EQ(failpoints::fire_count("test.nth"), 1u);
  failpoints::disarm("test.nth");
  EXPECT_FALSE(failpoints::detail::should_fire(s));
}

TEST(FaultTriggers, EveryKIsPeriodic) {
  failpoints::arm_every("test.every", 4);
  failpoints::Site& s = failpoints::site("test.every");
  std::vector<int> fired;
  for (int i = 1; i <= 16; i++) {
    if (failpoints::detail::should_fire(s)) fired.push_back(i);
  }
  EXPECT_EQ(fired, (std::vector<int>{4, 8, 12, 16}));
  failpoints::disarm("test.every");
}

TEST(FaultTriggers, ProbabilisticIsSeededAndHitIndexed) {
  failpoints::arm_probability("test.prob", 0.5, 12345);
  failpoints::Site& s = failpoints::site("test.prob");
  std::vector<bool> first;
  for (int i = 0; i < 256; i++) {
    first.push_back(failpoints::detail::should_fire(s));
  }
  int fires = static_cast<int>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(fires, 64);   // p = 0.5 over 256 hits: far from all-or-nothing
  EXPECT_LT(fires, 192);
  // Re-arming with the same seed resets the hit counter: the exact same
  // fire pattern replays (the determinism contract for test reruns).
  failpoints::arm_probability("test.prob", 0.5, 12345);
  for (int i = 0; i < 256; i++) {
    EXPECT_EQ(failpoints::detail::should_fire(s), first[i]) << "hit " << i;
  }
  failpoints::disarm("test.prob");
}

TEST(FaultTriggers, RegistryIsStableAndCountsPerArm) {
  failpoints::Site* s1 = &failpoints::site("test.stable");
  failpoints::Site* s2 = &failpoints::site("test.stable");
  EXPECT_EQ(s1, s2);
  failpoints::arm_nth("test.stable", 1);
  (void)failpoints::detail::should_fire(*s1);
  EXPECT_EQ(failpoints::fire_count("test.stable"), 1u);
  failpoints::arm_nth("test.stable", 1);  // re-arm resets the counters
  EXPECT_EQ(failpoints::hit_count("test.stable"), 0u);
  EXPECT_EQ(failpoints::fire_count("test.stable"), 0u);
  failpoints::disarm("test.stable");
}

// The weighted pass's site sits in its cell kernel. Armed nth:3 on a banded
// input, which the plan runs as a wavefront on a pool of 4 or more
// workers, it fires inside a cell task, surfaces as Error{kFaultInjected}
// from the solve, and the next solve equals a cold one.
TEST(FaultTriggers, WlisSweepFiresInsideACellTask) {
  if (!failpoints::enabled()) {
    GTEST_SKIP() << "failpoint sites compiled out (PARLIS_FAILPOINTS=OFF)";
  }
  const int64_t n = int64_t{1} << 16;
  const std::vector<int64_t> a = line_pattern(n, 100, 5);
  const std::vector<int64_t> w = make_weights(n, 36);
  failpoints::disarm_all();
  Solver s;
  WlisResult want, out;
  s.solve_wlis(a, w, want);  // the failing solve below is a cache hit
  const uint64_t before = scheduler_stats().spawns;
  failpoints::arm_nth("wlis.sweep", 3);
  expect_error(ErrorCode::kFaultInjected, [&] { s.solve_wlis(a, w, out); });
  EXPECT_EQ(failpoints::fire_count("wlis.sweep"), 1u);
  failpoints::disarm_all();
  if (num_workers() >= 4) {
    EXPECT_GT(scheduler_stats().spawns, before);
  }
  s.solve_wlis(a, w, out);
  EXPECT_EQ(out.dp, want.dp);
  EXPECT_EQ(out.best, want.best);
  EXPECT_EQ(out.k, want.k);
  Solver cold;
  cold.solve_wlis(a, w, out);
  EXPECT_EQ(out.dp, want.dp);
}

// The speculative kernel's site sits in its chunk tasks, once per 4096
// elements. Armed nth:3 on a banded input, which the Solver speculates on
// over a pool of 2 or more workers, it fires inside a chunk task, surfaces
// as Error{kFaultInjected} from the solve, and the next solve equals a
// cold one.
TEST(FaultTriggers, LisSpeculateFiresInsideAChunkTask) {
  if (!failpoints::enabled()) {
    GTEST_SKIP() << "failpoint sites compiled out (PARLIS_FAILPOINTS=OFF)";
  }
  if (num_workers() < 2) GTEST_SKIP() << "a 1-worker pool never speculates";
  const std::vector<int64_t> a = line_pattern(int64_t{1} << 18, 100, 37);
  failpoints::disarm_all();
  Solver s;
  LisResult want, out;
  s.solve_lis(a, want);
  failpoints::arm_nth("lis.speculate", 3);
  expect_error(ErrorCode::kFaultInjected, [&] { s.solve_lis(a, out); });
  EXPECT_EQ(failpoints::fire_count("lis.speculate"), 1u);
  failpoints::disarm_all();
  s.solve_lis(a, out);
  EXPECT_EQ(out.rank, want.rank);
  EXPECT_EQ(out.k, want.k);
  Solver cold;
  cold.solve_lis(a, out);
  EXPECT_EQ(out.rank, want.rank);
}

// ----------------------------------------------------------- FaultInjection

class FaultInjection : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoints::enabled()) {
      GTEST_SKIP() << "failpoint sites compiled out (PARLIS_FAILPOINTS=OFF)";
    }
    failpoints::disarm_all();
  }
  void TearDown() override { failpoints::disarm_all(); }
};

enum class FireKind { kFault, kOom, kYield };

struct SiteDriver {
  std::string name;
  FireKind kind;
  std::function<void()> run;
};

// One workload per registered site, each guaranteed to reach its macro.
std::vector<SiteDriver> site_drivers() {
  const int64_t n = 8192;
  auto a = std::make_shared<std::vector<int64_t>>(make_vals(n, 21));
  auto w = std::make_shared<std::vector<int64_t>>(make_weights(n, 22));
  std::vector<SiteDriver> d;
  d.push_back({"arena.chunk_alloc", FireKind::kOom, [] {
                 Arena ar;
                 (void)ar.alloc(64, 8);
               }});
  d.push_back({"tracking_alloc", FireKind::kOom, [] {
                 AllocStats st;
                 std::vector<int64_t, TrackingAllocator<int64_t>> v{
                     TrackingAllocator<int64_t>(&st)};
                 v.resize(1024);
               }});
  d.push_back({"scheduler.spawn", FireKind::kYield, [] {
                 std::atomic<int64_t> sink{0};
                 parallel_for(0, 65536, [&](int64_t i) {
                   if ((i & 8191) == 0) sink.fetch_add(1);
                 });
               }});
  d.push_back({"scheduler.steal", FireKind::kYield, [] {
                 std::atomic<int64_t> sink{0};
                 parallel_for(0, 65536, [&](int64_t i) {
                   if ((i & 8191) == 0) sink.fetch_add(1);
                 });
               }});
  d.push_back({"scheduler.park", FireKind::kYield, [] {
                 // Workers park on their own schedule once the work drains;
                 // nudge them awake and give them up to ~2s to go back down.
                 auto deadline = std::chrono::steady_clock::now() +
                                 std::chrono::seconds(2);
                 while (failpoints::fire_count("scheduler.park") == 0 &&
                        std::chrono::steady_clock::now() < deadline) {
                   std::atomic<int64_t> sink{0};
                   parallel_for(0, 4096, [&](int64_t i) {
                     if ((i & 1023) == 0) sink.fetch_add(1);
                   });
                   std::this_thread::sleep_for(std::chrono::milliseconds(5));
                 }
               }});
  d.push_back({"lis.round", FireKind::kFault, [a] {
                 // The tournament's rounds directly: the Solver solves
                 // every LIS by patience sorting.
                 (void)lis_ranks(*a);
               }});
  d.push_back({"wlis.round", FireKind::kFault, [a, w] {
                 // Alg. 2's rounds: the Solver runs the pass instead.
                 WlisWorkspace ws;
                 WlisResult out;
                 wlis_into(*a, *w, ws, out);
               }});
  d.push_back({"wlis.sweep", FireKind::kFault, [a, w] {
                 Solver s;
                 WlisResult out;
                 s.solve_wlis(*a, *w, out);
               }});
  d.push_back({"lis.speculate", FireKind::kFault, [] {
                 // The forced entry runs its chunk tasks on any pool,
                 // inline on a 1-worker one.
                 const std::vector<int64_t> line =
                     line_pattern(int64_t{1} << 15, 100, 23);
                 std::vector<int32_t> rank(line.size());
                 std::vector<int64_t> tails;
                 internal::speculative_patience_ranks_forced(
                     line, rank.data(), tails, 4);
               }});
  d.push_back({"swgs.round", FireKind::kFault, [a] {
                 (void)swgs_lis_ranks(*a);
               }});
  d.push_back({"rangetree.rebuild", FireKind::kOom, [a, w] {
                 WlisWorkspace ws;  // default backend is kRangeTree
                 WlisResult out;
                 wlis_into(*a, *w, ws, out);
               }});
  d.push_back({"stream.append", FireKind::kFault, [] {
                 Solver s;
                 LisSession sess = s.make_session();
                 sess.append(42);
               }});
  d.push_back({"serve.admit", FireKind::kFault, [] {
                 serve::SessionTable table(serve::SessionTable::Config{});
                 (void)table.acquire(1);
               }});
  d.push_back({"serve.evict", FireKind::kFault, [a] {
                 // Probe pass (budget 0 → the eviction walk, and with it the
                 // site, is never reached): measure one streamed tenant,
                 // then rebuild with a budget for ~1.5 of them. Session
                 // appends grow un-gated by the solver's budget estimates,
                 // so the pressure is deterministic.
                 uint64_t one = 0;
                 {
                   serve::SessionTable::Config probe;
                   serve::SessionTable t(probe);
                   {
                     auto lease = t.acquire(1);
                     for (int64_t v : *a) lease.session().append(v);
                   }
                   one = t.resident_bytes();
                 }
                 serve::SessionTable::Config cfg;
                 cfg.memory_budget_bytes = one + one / 2;
                 serve::SessionTable t(cfg);
                 // Grow two tenants past the budget (idle residue is legal
                 // until the next admission), then admit a third: its
                 // eviction pass reaches the site.
                 for (uint64_t series = 1; series <= 2; series++) {
                   auto lease = t.acquire(series);
                   for (int64_t v : *a) lease.session().append(v);
                 }
                 (void)t.acquire(3);
               }});
  d.push_back({"serve.coalesce", FireKind::kFault, [a] {
                 serve::Engine engine(serve::EngineConfig{});
                 Query q{std::span<const int64_t>(*a).subspan(0, 256)};
                 (void)engine.solve_one(q);
               }});
  d.push_back({"solver.packed_query", FireKind::kFault, [a, w] {
                 Solver s;
                 std::vector<Query> qs;
                 for (int i = 0; i < 4; i++) {
                   qs.push_back(Query{std::span<const int64_t>(*a).subspan(
                       static_cast<size_t>(i) * 64, 64)});
                 }
                 std::vector<QueryResult> rs(qs.size());
                 s.solve_many(qs, rs);
               }});
  return d;
}

TEST_F(FaultInjection, EveryRegisteredSiteFires) {
  const std::vector<SiteDriver> drivers = site_drivers();
  // The driver table and the registry must stay in sync in both directions:
  // a site added without a driver (or a driver whose site was deleted)
  // fails here, which is what keeps the matrix honest.
  std::set<std::string> reg_names;
  for (const std::string& s : failpoints::registered()) reg_names.insert(s);
  std::set<std::string> drv_names;
  for (const SiteDriver& d : drivers) drv_names.insert(d.name);
  EXPECT_EQ(reg_names, drv_names);

  for (const SiteDriver& d : drivers) {
    SCOPED_TRACE(d.name);
    failpoints::disarm_all();
    if (d.kind == FireKind::kYield) {
      if (num_workers() < 2) {
        // A 1-worker pool never schedules: parallel_for short-circuits to a
        // plain loop (parallel.hpp, `p == 1`), so the spawn/steal/park sites
        // are unreachable by design. The name-set sync check above still
        // covers them; the firing proof comes from every >= 2-worker run.
        continue;
      }
      failpoints::arm_every(d.name, 1);
      EXPECT_NO_THROW(d.run());
      // Delay sites fire on a background worker's schedule — a steal sweep
      // or park can land just after the driver's own work drains, and on a
      // busy single-core host one parallel_for may finish before any idle
      // worker sweeps at all. Keep feeding work until the counter moves.
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(3);
      while (failpoints::fire_count(d.name) == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        d.run();
      }
    } else if (d.kind == FireKind::kOom) {
      failpoints::arm_nth(d.name, 1);
      EXPECT_THROW(d.run(), std::bad_alloc);
    } else {
      failpoints::arm_nth(d.name, 1);
      expect_error(ErrorCode::kFaultInjected, d.run);
    }
    EXPECT_GE(failpoints::fire_count(d.name), 1u);
  }
}

TEST_F(FaultInjection, ArenaSurvivesChunkAllocFailure) {
  Arena ar;
  failpoints::arm_nth("arena.chunk_alloc", 1);
  EXPECT_THROW((void)ar.alloc(64, 8), std::bad_alloc);
  failpoints::disarm_all();
  // Strong guarantee: the failed take_chunk mutated no bookkeeping, so the
  // arena works (and accounts correctly) afterwards.
  void* p = ar.alloc(64, 8);
  EXPECT_NE(p, nullptr);
  EXPECT_GT(ar.reserved_bytes(), 0u);
}

// A serve.evict fault unwinds a half-admitted newcomer: the table must stay
// coherent (victim still resident, newcomer absent) and the same acquire
// must succeed once disarmed.
TEST_F(FaultInjection, TableSurvivesEvictFault) {
  const int64_t n = 4096;
  const std::vector<int64_t> a = make_vals(n, 81);
  uint64_t one = 0;
  {
    serve::SessionTable::Config probe;
    serve::SessionTable t(probe);
    {
      auto lease = t.acquire(1);
      for (int64_t v : a) lease.session().append(v);
    }
    one = t.resident_bytes();
  }
  serve::SessionTable::Config cfg;
  cfg.memory_budget_bytes = one + one / 2;
  serve::SessionTable t(cfg);
  // Two grown tenants put the table over its budget (legal idle residue);
  // the next admission must evict and therefore hits the armed site.
  for (uint64_t series = 1; series <= 2; series++) {
    auto lease = t.acquire(series);
    for (int64_t v : a) lease.session().append(v);
  }
  failpoints::arm_nth("serve.evict", 1);
  expect_error(ErrorCode::kFaultInjected, [&] { (void)t.acquire(3); });
  failpoints::disarm_all();
  EXPECT_TRUE(t.contains(1));   // the victim was never mutated
  EXPECT_TRUE(t.contains(2));
  EXPECT_FALSE(t.contains(3));  // the newcomer was unwound
  EXPECT_EQ(t.tenant_count(), 2);
  // Disarmed, the identical acquire evicts the LRU tail (tenant 1).
  { auto lease = t.acquire(3); }
  EXPECT_TRUE(t.contains(3));
  EXPECT_FALSE(t.contains(1));
}

// After a mid-solve failure unwinds, the next solve on the same warm state
// must be bit-identical to a cold one. The Solver's pass meets its site
// with a Solver and must leave its value cache coherent; the rounds' sites
// (and the allocations under them) and SWGS's meet theirs through
// wlis_into and swgs_wlis_into on one reused WlisWorkspace, which keeps no
// state between calls, so both drivers must then match a fresh workspace.
TEST_F(FaultInjection, WarmResolveAfterFaultMatchesCold) {
  const int64_t n = 8192;
  const std::vector<int64_t> a = make_vals(n, 31);
  const std::vector<int64_t> a2 = make_vals(n, 32);
  // The alloc site needs a bigger input so the warm arena must grow (a
  // same-size re-solve reuses chunks and never reaches the failpoint).
  const std::vector<int64_t> a_big = make_vals(4 * n, 33);
  const std::vector<int64_t> w = make_weights(n, 34);
  const std::vector<int64_t> w_big = make_weights(4 * n, 35);

  struct Case {
    const char* site;
    const std::vector<int64_t>* fault_a;
    const std::vector<int64_t>* fault_w;
    bool swgs = false;  // the site fires in swgs_wlis_into, not wlis_into
  };
  auto expect_same = [](const WlisResult& x, const WlisResult& y) {
    EXPECT_EQ(x.dp, y.dp);
    EXPECT_EQ(x.best, y.best);
    EXPECT_EQ(x.k, y.k);
  };
  // One solve on `ws` by Alg. 2's rounds or by SWGS.
  auto solve = [](bool swgs, const std::vector<int64_t>& x,
                  const std::vector<int64_t>& y, WlisWorkspace& ws) {
    WlisResult r;
    if (swgs) {
      swgs_wlis_into(x, y, 42, ws, r);
    } else {
      wlis_into(x, y, ws, r);
    }
    return r;
  };

  const Case rounds_cases[] = {
      {"wlis.round", &a2, &w},
      {"lis.round", &a2, &w},
      {"rangetree.rebuild", &a_big, &w_big},
      {"arena.chunk_alloc", &a_big, &w_big},
      {"swgs.round", &a2, &w, true},
  };
  for (const Case& c : rounds_cases) {
    SCOPED_TRACE(c.site);
    failpoints::disarm_all();
    WlisWorkspace warm;
    (void)solve(c.swgs, a, w, warm);  // warm every buffer
    failpoints::arm_nth(c.site, 1);
    EXPECT_ANY_THROW((void)solve(c.swgs, *c.fault_a, *c.fault_w, warm));
    failpoints::disarm_all();

    // Both drivers, on the first input and on the faulting one.
    for (const bool swgs : {false, true}) {
      SCOPED_TRACE(swgs ? "swgs_wlis_into" : "wlis_into");
      WlisWorkspace cold, cold_fault;
      expect_same(solve(swgs, a, w, warm), solve(swgs, a, w, cold));
      expect_same(solve(swgs, *c.fault_a, *c.fault_w, warm),
                  solve(swgs, *c.fault_a, *c.fault_w, cold_fault));
    }
  }

  // The pass, on a value-cache miss and on a hit.
  for (const std::vector<int64_t>* fault_a : {&a2, &a}) {
    SCOPED_TRACE(fault_a == &a ? "wlis.sweep, hit" : "wlis.sweep, miss");
    failpoints::disarm_all();
    Solver warm;
    WlisResult out;
    warm.solve_wlis(a, w, out);  // prime the value cache
    failpoints::arm_nth("wlis.sweep", 1);
    expect_error(ErrorCode::kFaultInjected,
                 [&] { warm.solve_wlis(*fault_a, w, out); });
    failpoints::disarm_all();

    WlisResult warm_out, cold_out;
    warm.solve_wlis(a, w, warm_out);
    Solver cold;
    cold.solve_wlis(a, w, cold_out);
    expect_same(warm_out, cold_out);
    warm.solve_wlis(a2, w, warm_out);
    cold.solve_wlis(a2, w, cold_out);
    expect_same(warm_out, cold_out);
  }
}

TEST_F(FaultInjection, SessionAppendFaultIsUnadmitted) {
  Solver s;
  LisSession sess = s.make_session();
  std::vector<int64_t> fed;
  for (int64_t i = 0; i < 200; i++) {
    int64_t v = static_cast<int64_t>(hash64(51, i) >> 40);
    fed.push_back(v);
    sess.append(v);
  }
  const int64_t len_before = sess.length();
  failpoints::arm_nth("stream.append", 1);
  expect_error(ErrorCode::kFaultInjected, [&] { sess.append(7); });
  failpoints::disarm_all();
  // The failed append left no trace: same size, same length, and the next
  // appends continue exactly where the stream left off.
  EXPECT_EQ(sess.size(), static_cast<int64_t>(fed.size()));
  EXPECT_EQ(sess.length(), len_before);
  Solver ref_solver;
  LisResult ref;
  sess.append(7);
  fed.push_back(7);
  ref_solver.solve_lis(fed, ref);
  EXPECT_EQ(sess.length(), ref.k);
}

TEST_F(FaultInjection, ProbabilisticFaultStormKeepsSolverCoherent) {
  // A 10% fault probability at each of the pass's three polls over many
  // re-solves, value-cache hits and misses mixed: every failure must
  // surface as Error{kFaultInjected} and never corrupt later results.
  const int64_t n = 3 * 4096;
  const std::vector<int64_t> a = make_vals(n, 61);
  const std::vector<int64_t> a2 = make_vals(n, 62);
  const std::vector<int64_t> w = make_weights(n, 63);
  Solver ref_solver;
  WlisResult ref1, ref2;
  ref_solver.solve_wlis(a, w, ref1);
  ref_solver.solve_wlis(a2, w, ref2);

  failpoints::arm_probability("wlis.sweep", 0.1, 777);
  Solver s;
  WlisResult out;
  int faults = 0, ok = 0;
  for (int it = 0; it < 60; it++) {
    const bool second = it % 3 == 2;  // a, a (hit), a2, ...
    const auto& in = second ? a2 : a;
    const auto& ref = second ? ref2 : ref1;
    try {
      s.solve_wlis(in, w, out);
      EXPECT_EQ(out.dp, ref.dp) << "iteration " << it;
      EXPECT_EQ(out.best, ref.best) << "iteration " << it;
      EXPECT_EQ(out.k, ref.k) << "iteration " << it;
      ok++;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kFaultInjected);
      faults++;
    }
  }
  failpoints::disarm_all();
  EXPECT_GT(ok, 0);      // the storm must not drown every solve
  EXPECT_GT(faults, 0);  // ... nor miss them all
  // Final check on a clean solver state after the storm.
  s.solve_wlis(a, w, out);
  EXPECT_EQ(out.dp, ref1.dp);
}

// ------------------------------------------------------------ ErrorHandling

TEST(ErrorHandling, WlisSizeMismatchThrows) {
  Solver s;
  const std::vector<int64_t> a{3, 1, 2, 4};
  const std::vector<int64_t> w{1, 1, 1};
  WlisResult out;
  expect_error(ErrorCode::kInvalidArgument, [&] { s.solve_wlis(a, w, out); });
  const std::vector<double> da{3.0, 1.0, 2.0, 4.0};
  expect_error(ErrorCode::kInvalidArgument, [&] {
    s.solve_wlis(std::span<const double>(da), w, out);
  });
}

TEST(ErrorHandling, SolveManyValidatesBatchShape) {
  Solver s;
  const std::vector<int64_t> a{5, 1, 4, 2, 3};
  const std::vector<int64_t> w_bad{1, 1};
  std::vector<Query> qs{Query{a}, Query{a}};
  std::vector<QueryResult> too_few(1);
  expect_error(ErrorCode::kInvalidArgument, [&] { s.solve_many(qs, too_few); });

  std::vector<QueryResult> rs(2);
  qs[1].w = w_bad;  // |w| != |a|
  expect_error(ErrorCode::kInvalidArgument, [&] { s.solve_many(qs, rs); });

  qs[1].w = {};
  std::vector<int32_t> small_rank(2);
  qs[1].rank_out = small_rank;  // < |a|
  expect_error(ErrorCode::kInvalidArgument, [&] { s.solve_many(qs, rs); });

  qs[1].rank_out = {};
  std::vector<int64_t> small_dp(2), w_ok(a.size(), 1);
  qs[1].w = w_ok;
  qs[1].dp_out = small_dp;  // < |a|
  expect_error(ErrorCode::kInvalidArgument, [&] { s.solve_many(qs, rs); });
}

TEST(ErrorHandling, SlidingSessionRequiresCapacity) {
  Options o;
  o.window = WindowMode::kSlidingExact;
  o.window_capacity = 0;
  Solver s(o);
  expect_error(ErrorCode::kInvalidArgument, [&] { (void)s.make_session(); });
  Options o2;
  o2.window = WindowMode::kSlidingAmortized;
  o2.window_capacity = -3;
  Solver s2(o2);
  expect_error(ErrorCode::kInvalidArgument, [&] { (void)s2.make_session(); });
}

TEST(ErrorHandling, SessionPopFrontOnEmptyThrows) {
  Solver s;
  LisSession sess = s.make_session();
  expect_error(ErrorCode::kInvalidArgument, [&] { sess.pop_front(); });
  sess.append(1);
  sess.pop_front();  // fine: one live element
  expect_error(ErrorCode::kInvalidArgument, [&] { sess.pop_front(); });
  // The failed pops left the session usable.
  sess.append(2);
  sess.append(5);
  EXPECT_EQ(sess.length(), 2);
}

TEST(ErrorHandling, DeltaResolveValidatesKeepRanges) {
  Solver s;
  LisSession sess = s.make_session();
  for (int64_t v : {3, 1, 4, 1, 5}) sess.append(v);
  const std::vector<int64_t> nv{3, 1, 9, 1, 5};
  expect_error(ErrorCode::kInvalidArgument,
               [&] { sess.delta_resolve(nv, -1, 0); });
  expect_error(ErrorCode::kInvalidArgument,
               [&] { sess.delta_resolve(nv, 0, -2); });
  expect_error(ErrorCode::kInvalidArgument,
               [&] { sess.delta_resolve(nv, 4, 4); });
  // Kept regions must equal the current window's, in every build: a
  // changed prefix and a changed suffix throw, with frontiers cached (the
  // delta path), and leave the session as it was.
  EXPECT_EQ(sess.frontiers().k, 3);
  const std::vector<int64_t> new_prefix{3, 2, 9, 1, 5};
  const std::vector<int64_t> new_suffix{3, 1, 9, 1, 6};
  expect_error(ErrorCode::kInvalidArgument,
               [&] { sess.delta_resolve(new_prefix, 2, 2); });
  expect_error(ErrorCode::kInvalidArgument,
               [&] { sess.delta_resolve(new_suffix, 2, 2); });
  EXPECT_EQ(sess.length(), 3);
  // Valid keeps succeed: LIS of {3, 1, 9, 1, 5} is 2 (e.g. {3, 9}).
  EXPECT_EQ(sess.delta_resolve(nv, 2, 2), 2);
  EXPECT_EQ(sess.frontiers().k, 2);
}

TEST(ErrorHandling, SolverUsableAfterInvalidArgument) {
  Solver s;
  const std::vector<int64_t> a = make_vals(4096, 71);
  const std::vector<int64_t> w = make_weights(4096, 72);
  WlisResult out;
  s.solve_wlis(a, w, out);  // warm
  expect_error(ErrorCode::kInvalidArgument, [&] {
    s.solve_wlis(a, std::span<const int64_t>(w).first(10), out);
  });
  WlisResult warm_out, cold_out;
  s.solve_wlis(a, w, warm_out);
  Solver cold;
  cold.solve_wlis(a, w, cold_out);
  EXPECT_EQ(warm_out.dp, cold_out.dp);
  EXPECT_EQ(warm_out.best, cold_out.best);
}

// LisResult::rank is int32, so every entry point rejects n >= 2^31 before
// it touches the input. The spans cover 16 GiB of address space reserved
// inaccessible (PROT_NONE, no backing memory): a read of any element
// faults, so the checks must throw first.
TEST(ErrorHandling, RankLimitThrowsBeforeReading) {
  const size_t n = size_t{1} << 31;
  const size_t bytes = n * sizeof(int64_t);
  void* p = mmap(nullptr, bytes, PROT_NONE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) GTEST_SKIP() << "cannot reserve 16 GiB of address space";
  const std::span<const int64_t> a(static_cast<const int64_t*>(p), n);
  const std::span<const double> da(static_cast<const double*>(p), n);
  Solver s;
  LisResult lr;
  LisFrontiers fr;
  WlisResult wr;
  expect_error(ErrorCode::kInvalidArgument, [&] { s.solve_lis(a, lr); });
  expect_error(ErrorCode::kInvalidArgument,
               [&] { s.solve_lis_frontiers(a, fr); });
  expect_error(ErrorCode::kInvalidArgument, [&] { s.solve_lis(da, lr); });
  expect_error(ErrorCode::kInvalidArgument,
               [&] { s.solve_lis(a, lr, std::greater<int64_t>{}); });
  expect_error(ErrorCode::kInvalidArgument, [&] { s.solve_wlis(a, a, wr); });
  std::vector<Query> qs{Query{a}};
  std::vector<QueryResult> rs(1);
  expect_error(ErrorCode::kInvalidArgument, [&] { s.solve_many(qs, rs); });
  Options nd;
  nd.ties = TiesPolicy::kNonDecreasing;
  Solver snd(nd);
  expect_error(ErrorCode::kInvalidArgument, [&] { snd.solve_lis(a, lr); });
  // One element below the limit passes the check (the span is never read:
  // the memory budget then rejects the solve).
  Options tiny;
  tiny.memory_budget_bytes = 1;
  Solver st(tiny);
  expect_error(ErrorCode::kBudgetExceeded,
               [&] { st.solve_lis(a.first(n - 1), lr); });
  munmap(p, bytes);
}

TEST(ErrorHandling, WhatCarriesCodeNameAndMessage) {
  Error e(ErrorCode::kBudgetExceeded, "tiny budget");
  EXPECT_NE(std::string(e.what()).find("kBudgetExceeded"), std::string::npos);
  EXPECT_NE(std::string(e.what()).find("tiny budget"), std::string::npos);
  EXPECT_EQ(e.code(), ErrorCode::kBudgetExceeded);
}

// ------------------------------------------------------------- Cancellation

TEST(Cancellation, PreTrippedTokenFailsFastEverywhere) {
  Options o;
  o.cancel = CancelToken::make();
  o.cancel.request_cancel();
  Solver s(o);
  const std::vector<int64_t> a = make_vals(4096, 81);
  const std::vector<int64_t> w = make_weights(4096, 82);
  LisResult lr;
  LisFrontiers fr;
  WlisResult wr;
  expect_error(ErrorCode::kCancelled, [&] { s.solve_lis(a, lr); });
  expect_error(ErrorCode::kCancelled, [&] { s.solve_lis_frontiers(a, fr); });
  expect_error(ErrorCode::kCancelled, [&] { s.solve_wlis(a, w, wr); });
  std::vector<Query> qs{Query{a}};
  std::vector<QueryResult> rs(1);
  expect_error(ErrorCode::kCancelled, [&] { s.solve_many(qs, rs); });
  LisSession sess = s.make_session();
  expect_error(ErrorCode::kCancelled, [&] { sess.append(1); });
  expect_error(ErrorCode::kCancelled, [&] { sess.delta_resolve(a, 0, 0); });
  EXPECT_EQ(sess.size(), 0);  // the cancelled append admitted nothing
}

TEST(Cancellation, MidSolveCancellationViaComparator) {
  Options o;
  o.cancel = CancelToken::make();
  Solver s(o);
  const std::vector<int64_t> a = make_vals(20000, 83);
  LisResult out;
  // The comparator trips the token during the rank-space pass; the kernel's
  // round-boundary poll observes it deterministically on round 1.
  CancelToken tok = o.cancel;
  expect_error(ErrorCode::kCancelled, [&] {
    s.solve_lis<int64_t>(a, out, [tok](int64_t x, int64_t y) {
      tok.request_cancel();
      return x < y;
    });
  });
  // A fresh solver (untripped token) produces the reference result.
  Solver fresh;
  fresh.solve_lis(a, out);
  LisResult ref;
  Solver cold;
  cold.solve_lis(a, ref);
  EXPECT_EQ(out.rank, ref.rank);
}

TEST(Cancellation, DeadlineExceededMidSolveLeavesWarmStateCoherent) {
  Options o;
  o.deadline_ms = 1000;
  Solver s(o);
  const int64_t n = 5000;
  const std::vector<int64_t> a = make_vals(n, 84);
  const std::vector<int64_t> w = make_weights(n, 85);
  WlisResult out;
  s.solve_wlis(a, w, out);  // warm, comfortably within the deadline

  // One comparator call sleeps past the whole deadline, so the first
  // round-boundary poll after the rank-space pass must throw — while the
  // workspace rank space has already been clobbered by the faulting pass.
  auto slept = std::make_shared<std::atomic<bool>>(false);
  expect_error(ErrorCode::kDeadlineExceeded, [&] {
    s.solve_wlis<int64_t>(a, w, out, [slept](int64_t x, int64_t y) {
      if (!slept->exchange(true)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1200));
      }
      return x < y;
    });
  });

  // Post-failure warm solve == cold solve, bit for bit.
  WlisResult warm_out, cold_out;
  s.solve_wlis(a, w, warm_out);
  Solver cold;
  cold.solve_wlis(a, w, cold_out);
  EXPECT_EQ(warm_out.dp, cold_out.dp);
  EXPECT_EQ(warm_out.best, cold_out.best);
  EXPECT_EQ(warm_out.k, cold_out.k);
}

// The patience path polls every 4096 elements. On a deep input (first
// frontier of a few elements, so the plan picks patience) the comparator
// sleeps past the deadline at the second comparison whose right side is
// element 10,000. The plan's first-frontier scan, when it runs, compares
// that element once (no rank-1 object is near it) before the kernel does,
// so the second one is the kernel placing element 10,000. The solve must
// then stop at the poll before element 12,288, the next multiple of 4096.
TEST(Cancellation, DeadlineStopsPatienceWithin4096Elements) {
  const int64_t n = int64_t{1} << 15;
  // A rising trend with noise; the low 32 bits of a value are its index.
  std::vector<int64_t> a(n);
  for (int64_t i = 0; i < n; i++) {
    a[i] = ((i + static_cast<int64_t>(uniform(91, i, 64))) << 32) | i;
  }
  Options o;
  o.deadline_ms = 250;
  Solver s(o);
  int sightings = 0;
  bool slept = false;
  int64_t last = -1;
  auto less = [&](int64_t x, int64_t y) {
    const int64_t i = y & 0xffffffff;
    if (i == 10000 && ++sightings == 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
      slept = true;
    }
    if (slept) last = std::max(last, i);
    return x < y;
  };
  LisResult out;
  expect_error(ErrorCode::kDeadlineExceeded, [&] {
    s.solve_lis(std::span<const int64_t>(a), out, less);
  });
  EXPECT_TRUE(slept);
  EXPECT_GE(last, 10000);
  EXPECT_LT(last, 12288);
}

// The Solver's WLIS pass polls every 4096 elements. A deadline that runs
// out mid-pass must stop it at the next poll: the dp it wrote is a prefix
// whose length is a multiple of 4096, strictly inside the input. The pass
// has no callback to stall on, so the deadline is set from the measured
// time of an unguarded solve on a value-cache hit (the pass alone, after
// an O(n) cache check), and re-picked when it expired before the pass
// started or after it ended.
TEST(Cancellation, DeadlineStopsWlisPassWithin4096Elements) {
  const int64_t n = int64_t{1} << 20;
  std::vector<int64_t> a(n), w(n, 1);
  for (int64_t i = 0; i < n; i++) a[i] = i;  // k = n: full-height walks
  Solver s;
  WlisResult out;
  s.solve_wlis(a, w, out);  // prime the value cache
  double pass_ms = 1e30;
  for (int r = 0; r < 3; r++) {
    const auto t0 = std::chrono::steady_clock::now();
    s.solve_wlis(a, w, out);
    pass_ms = std::min(
        pass_ms, std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  double frac = 0.5;
  for (int attempt = 0; attempt < 12; attempt++) {
    const int64_t deadline = std::max<int64_t>(1, std::llround(pass_ms * frac));
    SCOPED_TRACE(testing::Message() << "deadline " << deadline << " ms, pass "
                                    << pass_ms << " ms");
    s.set_deadline_ms(deadline);
    std::fill(out.dp.begin(), out.dp.end(), -1);  // dp >= 1 once written
    try {
      s.solve_wlis(a, w, out);
      frac /= 2;  // the pass beat the deadline
      continue;
    } catch (const Error& e) {
      ASSERT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
    }
    const int64_t written =
        std::find(out.dp.begin(), out.dp.end(), -1) - out.dp.begin();
    ASSERT_EQ(std::count(out.dp.begin() + written, out.dp.end(), -1),
              n - written);  // a prefix
    if (written == 0) {
      frac = std::min(0.9, frac * 1.5);  // expired before the pass
      continue;
    }
    EXPECT_LT(written, n);
    EXPECT_EQ(written % 4096, 0);
    for (int64_t i = 0; i < written; i++) ASSERT_EQ(out.dp[i], i + 1);
    return;
  }
  FAIL() << "no deadline landed inside the pass";
}

// The patience kernel's vector loops poll every 4096 elements as well; the
// test above runs a comparator, so it reaches only the memory loop. A
// deadline that runs out inside them must stop them at the next poll: the
// ranks written are a prefix whose length is a multiple of 4096, strictly
// inside the input. The deadline is set from the measured time of an
// unguarded solve, and re-picked when it expired before the kernel started
// or after it ended. Thread-sequential mode keeps the solve on the
// one-thread kernel: on the pool a banded input speculates, and its chunks
// write ranks all over the input (the two tests below cover that path).
void expect_deadline_stops_kernel_at_a_poll(const std::vector<int64_t>& a) {
  const int64_t n = static_cast<int64_t>(a.size());
  struct OneThread {
    bool prev = set_thread_sequential(true);
    ~OneThread() { set_thread_sequential(prev); }
  } one_thread;
  Solver s;
  LisResult out;
  s.solve_lis(a, out);
  const std::vector<int32_t> ref = out.rank;
  double solve_ms = 1e30;
  for (int r = 0; r < 3; r++) {
    const auto t0 = std::chrono::steady_clock::now();
    s.solve_lis(a, out);
    solve_ms = std::min(
        solve_ms, std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count());
  }
  double frac = 0.5;
  for (int attempt = 0; attempt < 12; attempt++) {
    const int64_t deadline =
        std::max<int64_t>(1, std::llround(solve_ms * frac));
    SCOPED_TRACE(testing::Message() << "deadline " << deadline
                                    << " ms, solve " << solve_ms << " ms");
    s.set_deadline_ms(deadline);
    std::fill(out.rank.begin(), out.rank.end(), -1);  // ranks >= 1 once set
    try {
      s.solve_lis(a, out);
      frac /= 2;  // the kernel beat the deadline
      continue;
    } catch (const Error& e) {
      ASSERT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
    }
    ASSERT_EQ(static_cast<int64_t>(out.rank.size()), n);
    const int64_t written =
        std::find(out.rank.begin(), out.rank.end(), -1) - out.rank.begin();
    ASSERT_EQ(std::count(out.rank.begin() + written, out.rank.end(), -1),
              n - written);  // a prefix
    if (written == 0) {
      frac = std::min(0.9, frac * 1.5);  // expired before the kernel
      continue;
    }
    EXPECT_LT(written, n);
    EXPECT_EQ(written % 4096, 0);
    for (int64_t i = 0; i < written; i++) ASSERT_EQ(out.rank[i], ref[i]);
    return;
  }
  FAIL() << "no deadline landed inside the kernel";
}

// The register tiers: k stays near 10, so every element runs in the
// 16-tail tier.
TEST(Cancellation, DeadlineStopsRegisterTiersWithin4096Elements) {
  const int64_t n = int64_t{1} << 21;
  std::vector<int64_t> a(n);
  for (int64_t i = 0; i < n; i++) {
    a[i] = 4 * (n - i) + static_cast<int64_t>(uniform(94, i, 40));
  }
  ASSERT_LE(seq_bs_length(a), 16);
  expect_deadline_stops_kernel_at_a_poll(a);
}

// The window: a rising line (k ~ 65,000) whose elements land near the top
// of the tails, so past its first block the kernel runs in the window,
// which slides up every 64 new tails.
TEST(Cancellation, DeadlineStopsTheWindowWithin4096Elements) {
  const int64_t n = int64_t{1} << 21;
  const std::vector<int64_t> a = line_pattern(n, n / 32, 96);
  ASSERT_GT(seq_bs_length(a), 256 * simd::kTierTails);
  expect_deadline_stops_kernel_at_a_poll(a);
}

// Speculative solves poll in every chunk task and in the replay. A token
// tripped from another thread while they run stops one with kCancelled,
// and a deadline shorter than one solve stops it with kDeadlineExceeded;
// either way the next solve on the same Solver equals a cold one. The
// banded input speculates on a pool of 2 or more workers.
std::vector<int64_t> speculative_input() {
  return line_pattern(int64_t{1} << 21, 100, 95);
}

TEST(Cancellation, SpeculativeSolveCancelledFromAnotherThread) {
  const std::vector<int64_t> a = speculative_input();
  Solver s;
  LisResult out, want;
  s.solve_lis(a, want);
  s.solve_lis(a, out);  // sizes `out`, so a solve forks within one block
  const uint64_t before = scheduler_stats().spawns;
  const CancelToken token = CancelToken::make();
  s.set_cancel(token);
  // Trips once a solve has forked (a 1-worker pool never forks).
  std::thread canceller([&] {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (num_workers() > 1 && scheduler_stats().spawns == before &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    token.request_cancel();
  });
  bool cancelled = false;
  for (int r = 0; r < 10000 && !cancelled; r++) {
    try {
      s.solve_lis(a, out);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCancelled) << e.what();
      cancelled = true;
    }
  }
  canceller.join();
  EXPECT_TRUE(cancelled);
  if (num_workers() > 1) {
    EXPECT_GT(scheduler_stats().spawns, before);
  }
  s.set_cancel(CancelToken{});
  s.solve_lis(a, out);
  EXPECT_EQ(out.rank, want.rank);
  EXPECT_EQ(out.k, want.k);
  Solver cold;
  cold.solve_lis(a, out);
  EXPECT_EQ(out.rank, want.rank);
}

TEST(Cancellation, SpeculativeSolveDeadlineExceeded) {
  const std::vector<int64_t> a = speculative_input();
  Solver s;
  LisResult out, want;
  s.solve_lis(a, want);
  bool expired = false;
  for (int r = 0; r < 50 && !expired; r++) {
    // A 1 ms deadline passes the entry's poll; one solve of 2^21 elements
    // takes longer, so a chunk's, the replay's or the kernel's poll trips.
    s.set_deadline_ms(1);
    try {
      s.solve_lis(a, out);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded) << e.what();
      expired = true;
    }
  }
  EXPECT_TRUE(expired);
  s.set_deadline_ms(0);
  s.solve_lis(a, out);
  EXPECT_EQ(out.rank, want.rank);
  EXPECT_EQ(out.k, want.k);
  Solver cold;
  cold.solve_lis(a, out);
  EXPECT_EQ(out.rank, want.rank);
}

TEST(Cancellation, GenerousDeadlinePassesAndMatches) {
  Options o;
  o.deadline_ms = 600000;
  Solver s(o);
  const std::vector<int64_t> a = make_vals(20000, 86);
  const std::vector<int64_t> w = make_weights(20000, 87);
  WlisResult out, ref;
  s.solve_wlis(a, w, out);
  Solver plain;
  plain.solve_wlis(a, w, ref);
  EXPECT_EQ(out.dp, ref.dp);
  EXPECT_EQ(out.best, ref.best);
}

TEST(Cancellation, SetCancelReArmsWithoutRebuildingSolver) {
  // The per-request shape: one long-lived solver, a fresh token swapped in
  // between calls via set_cancel/set_deadline_ms. A tripped token must stop
  // the next solve; disarming must restore plain behavior on the same warm
  // workspaces, bit-identical to a cold solver.
  Solver s;
  const std::vector<int64_t> a = make_vals(20000, 89);
  LisResult out, ref;
  s.solve_lis(a, out);  // warm, unguarded
  CancelToken tok = CancelToken::make();
  tok.request_cancel();
  s.set_cancel(tok);
  EXPECT_TRUE(s.options().cancel.valid());
  expect_error(ErrorCode::kCancelled, [&] { s.solve_lis(a, out); });
  s.set_cancel(CancelToken::make());  // fresh, untripped
  s.set_deadline_ms(600000);
  s.solve_lis(a, out);
  s.set_cancel(CancelToken{});  // disarm both guards
  s.set_deadline_ms(0);
  EXPECT_FALSE(s.options().cancel.valid());
  s.solve_lis(a, out);
  Solver cold;
  cold.solve_lis(a, ref);
  EXPECT_EQ(out.rank, ref.rank);
  EXPECT_EQ(out.k, ref.k);
}

TEST(Cancellation, UntrippedTokenIsFree) {
  Options o;
  o.cancel = CancelToken::make();
  Solver s(o);
  const std::vector<int64_t> a = make_vals(20000, 88);
  LisResult out, ref;
  s.solve_lis(a, out);
  Solver plain;
  plain.solve_lis(a, ref);
  EXPECT_EQ(out.rank, ref.rank);
  EXPECT_EQ(out.k, ref.k);
}

// ------------------------------------------------------------- MemoryBudget

// Budget sweeps: for every budget, an admitted solve must match the
// unlimited reference exactly; a rejected one must say kBudgetExceeded. The
// sweep spans "nothing fits" through "everything fits", so both the
// degradation path and the full path are exercised without hard-coding the
// size models' constants.
TEST(MemoryBudget, LisSweepDegradesExactly) {
  const int64_t n = 60000;
  const std::vector<int64_t> a = make_vals(n, 91);
  LisResult ref;
  Solver unlimited;
  unlimited.solve_lis(a, ref);

  int rejected = 0, admitted = 0;
  for (uint64_t budget : {uint64_t{1}, uint64_t{64} << 10, uint64_t{1} << 20,
                          uint64_t{4} << 20, uint64_t{64} << 20, uint64_t{0}}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    Options o;
    o.memory_budget_bytes = budget;
    Solver s(o);
    LisResult out;
    try {
      s.solve_lis(a, out);
      admitted++;
      EXPECT_EQ(out.rank, ref.rank);
      EXPECT_EQ(out.k, ref.k);
      // Frontier form under the same budget agrees too.
      LisFrontiers fr;
      s.solve_lis_frontiers(a, fr);
      EXPECT_EQ(fr.rank, ref.rank);
      EXPECT_EQ(fr.k, ref.k);
      EXPECT_EQ(fr.frontier_offset.back(), n);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBudgetExceeded) << e.what();
      rejected++;
    }
  }
  EXPECT_GE(rejected, 1);  // the 1-byte budget can never fit
  EXPECT_GE(admitted, 2);  // unlimited + at least one generous budget
}

TEST(MemoryBudget, WlisSweepDegradesExactly) {
  const int64_t n = 60000;
  const std::vector<int64_t> a = make_vals(n, 92);
  const std::vector<int64_t> w = make_weights(n, 93);
  WlisResult ref;
  Solver unlimited;
  unlimited.solve_wlis(a, w, ref);

  int rejected = 0, admitted = 0, degraded = 0;
  for (uint64_t budget :
       {uint64_t{1}, uint64_t{256} << 10, uint64_t{4} << 20,
        uint64_t{8} << 20, uint64_t{64} << 20, uint64_t{0}}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    Options o;
    o.memory_budget_bytes = budget;
    Solver s(o);
    WlisResult out;
    try {
      s.solve_wlis(a, w, out);
      admitted++;
      EXPECT_EQ(out.dp, ref.dp);
      EXPECT_EQ(out.best, ref.best);
      EXPECT_EQ(out.k, ref.k);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBudgetExceeded) << e.what();
      rejected++;
    }
  }
  EXPECT_GE(rejected, 1);
  EXPECT_GE(admitted, 2);
  // The 4 MiB point sits between the documented fallback (~64 B/elem) and
  // full (~105 B/elem) footprints at n = 60000, so the sweep provably
  // crossed the degradation regime, not just reject/full. Seq-AVL leaves
  // only the patience scratch behind (~12 B/elem); the pass keeps the rank
  // space (32+ B/elem).
  Options mid;
  mid.memory_budget_bytes = uint64_t{4} << 20;
  Solver s_mid(mid);
  WlisResult out_mid;
  s_mid.solve_wlis(a, w, out_mid);
  degraded++;
  EXPECT_LT(s_mid.resident_bytes(), static_cast<size_t>(16 * n));
  EXPECT_EQ(out_mid.dp, ref.dp);
  EXPECT_EQ(out_mid.best, ref.best);
  EXPECT_EQ(out_mid.k, ref.k);
  EXPECT_EQ(degraded, 1);
  // Without the fallback (a rank image is needed), 4 MiB is too little.
  expect_error(ErrorCode::kBudgetExceeded, [&] {
    s_mid.solve_wlis(std::span<const int64_t>(a), w, out_mid,
                     std::greater<int64_t>{});
  });
}

TEST(MemoryBudget, SolveManySweepMatchesUnlimited) {
  const int64_t n = 10000;
  const std::vector<int64_t> a1 = make_vals(n, 94);
  const std::vector<int64_t> a2 = make_vals(n, 95);
  const std::vector<int64_t> w = make_weights(n, 96);
  const std::vector<int64_t> small = make_vals(256, 97);
  std::vector<Query> qs{Query{a1}, Query{a2, w}, Query{small}};
  std::vector<QueryResult> ref(qs.size());
  Solver unlimited;
  unlimited.solve_many(qs, ref);

  for (uint64_t budget : {uint64_t{256} << 10, uint64_t{2} << 20,
                          uint64_t{8} << 20, uint64_t{0}}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    Options o;
    o.memory_budget_bytes = budget;
    Solver s(o);
    std::vector<QueryResult> rs(qs.size());
    try {
      s.solve_many(qs, rs);
      for (size_t i = 0; i < qs.size(); i++) {
        EXPECT_EQ(rs[i].k, ref[i].k) << "query " << i;
        EXPECT_EQ(rs[i].best, ref[i].best) << "query " << i;
      }
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBudgetExceeded) << e.what();
    }
  }
}

// The smallest memory budget under which `solve` (run on a fresh Solver
// built from `o`) is admitted, found by bisection: over-budget calls throw
// kBudgetExceeded before they allocate, so the answer is the model's price
// of the path taken.
template <typename Solve>
uint64_t admitting_budget(Options o, int64_t n, Solve&& solve) {
  auto admits = [&](uint64_t budget) {
    o.memory_budget_bytes = budget;
    Solver s(o);
    try {
      solve(s);
      return true;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBudgetExceeded);
      return false;
    }
  };
  // lo rejects, hi admits.
  uint64_t lo = 1, hi = 256 * static_cast<uint64_t>(n) + (uint64_t{1} << 20);
  EXPECT_TRUE(admits(hi));
  while (hi - lo > 1) {
    const uint64_t mid = lo + (hi - lo) / 2;
    (admits(mid) ? hi : lo) = mid;
  }
  return hi;
}

// The weighted plan's estimate (rank space + the pass) bounds what a solve
// really holds, from n = 0 up. The admitting budget of a solve with no
// fallback (a custom order) is the plan's price; a fresh Solver's measured
// footprint plus the dp output must fit in it on the rank-image and the
// value-cache paths, on a bitmap at its cap, and on one Solver whose
// solves alternate between the sort and the bitmap and so hold both
// paths' buffers.
TEST(MemoryBudget, WlisPassEstimateCoversRealAccounting) {
  // 2 * kRankPoolMinN: the bitmap's plan runs on the pool.
  for (int64_t n : {int64_t{0}, int64_t{1}, int64_t{17}, int64_t{560},
                    int64_t{1000}, int64_t{65536}, int64_t{100000},
                    2 * internal::kRankPoolMinN}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::vector<int64_t> a = make_vals(n, 111 + n);
    const std::vector<int64_t> w = make_weights(n, 112 + n);
    const uint64_t hi = admitting_budget(Options{}, n, [&](Solver& s) {
      WlisResult out;
      s.solve_wlis(std::span<const int64_t>(a), w, out,
                   std::greater<int64_t>{});
    });
    for (const bool custom : {true, false}) {
      SCOPED_TRACE(custom ? "rank image" : "value cache");
      Solver s;
      WlisResult out;
      if (custom) {
        s.solve_wlis(std::span<const int64_t>(a), w, out,
                     std::greater<int64_t>{});
      } else {
        s.solve_wlis(a, w, out);
      }
      EXPECT_LE(s.resident_bytes() + out.resident_bytes(), hi);
    }
    if (n == 0) continue;
    // rank_only_into's largest bitmap: a span of exactly
    // rank_only_max_words(n) words, under both ties policies. The hashed
    // 63-bit `a` takes the sort.
    const uint64_t top = 64 * rank_only_max_words(n) - 1;
    std::vector<int64_t> at_cap(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; i++) {
      at_cap[i] = static_cast<int64_t>(uniform(113 + n, i, top + 1));
    }
    at_cap[0] = 0;
    at_cap[n - 1] = static_cast<int64_t>(top);
    for (const TiesPolicy ties :
         {TiesPolicy::kStrict, TiesPolicy::kNonDecreasing}) {
      SCOPED_TRACE(ties == TiesPolicy::kStrict ? "value cache"
                                               : "nondec rank image");
      Options o;
      o.ties = ties;
      {
        SCOPED_TRACE("bitmap at the cap");
        Solver s(o);
        WlisResult out;
        s.solve_wlis(at_cap, w, out);
        EXPECT_LE(s.resident_bytes() + out.resident_bytes(), hi);
      }
      for (const bool sort_first : {true, false}) {
        SCOPED_TRACE(sort_first ? "sort, bitmap, sort"
                                : "bitmap, sort, bitmap");
        Solver s(o);
        WlisResult out;
        for (int r = 0; r < 3; r++) {
          s.solve_wlis((r % 2 == 0) == sort_first ? a : at_cap, w, out);
          EXPECT_LE(s.resident_bytes() + out.resident_bytes(), hi);
        }
      }
    }
  }
}

// A bitmap at n leaves the scratch's buffers at its own sizes; a sort of
// a wider span at 2n that follows grows each of them, and the rank
// space's arrays, to exactly its need, as a fresh pair does (resize alone
// would grow the presence words' prefix, about 1.6n words here, to twice
// that rather than to 2n).
TEST(MemoryBudget, SortAfterABitmapGrowsExactly) {
  const int64_t n = 2 * internal::kRankPoolMinN;
  const std::vector<int64_t> banded = line_pattern(n, 100, 150);
  const std::vector<int64_t> wide = make_vals(2 * n, 151);
  for (const TiesPolicy ties :
       {TiesPolicy::kStrict, TiesPolicy::kNonDecreasing}) {
    SCOPED_TRACE(ties == TiesPolicy::kStrict ? "strict" : "nondec");
    RankSpace rs, fresh;
    RankSpaceScratch scratch, fresh_scratch;
    rank_only_into<int64_t>(banded, ties, rs, scratch);
    ASSERT_TRUE(rs.order.empty());  // the bitmap
    const size_t words = scratch.run_masks.size();
    ASSERT_GT(2 * words, static_cast<size_t>(2 * n));
    ASSERT_LT(words, static_cast<size_t>(2 * n));
    rank_only_into<int64_t>(wide, ties, rs, scratch);
    rank_only_into<int64_t>(wide, ties, fresh, fresh_scratch);
    ASSERT_FALSE(rs.order.empty());  // the sort
    EXPECT_EQ(rs.resident_bytes(), fresh.resident_bytes());
    EXPECT_EQ(scratch.sort_buf.capacity(), fresh_scratch.sort_buf.capacity());
    EXPECT_EQ(scratch.carry_qpos.capacity(),
              fresh_scratch.carry_qpos.capacity());
    EXPECT_EQ(scratch.carry_rank.capacity(),
              fresh_scratch.carry_rank.capacity());
    EXPECT_EQ(scratch.sorted_keys.capacity(),
              fresh_scratch.sorted_keys.capacity());
    EXPECT_EQ(scratch.run_masks.capacity(),
              std::max(words, fresh_scratch.run_masks.capacity()));
  }
}

// The wavefront borrows the rank space's sort buffer for its per-element
// lengths and cell tables, and the weighted model prices that buffer at 2n
// words, so a fresh Solver after one wavefront solve still fits the
// admitting budget. On the banded line the bitmap already left the buffer
// larger than n words; on a dense span (a falling run over 2n values) the
// bitmap is small, and the borrowed array grows the buffer. The plan runs
// both as wavefronts on 4 or more workers.
TEST(MemoryBudget, WavefrontSolveFitsTheWeightedModel) {
  for (const int64_t n : {int64_t{1} << 15, int64_t{1} << 18}) {
    const std::vector<int64_t> w = make_weights(n, 140 + n);
    std::vector<int64_t> dense(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; i++) dense[i] = 2 * (n - i);
    for (const bool is_dense : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "n=" << n << (is_dense ? ", dense span" : ", banded"));
      const std::vector<int64_t> a =
          is_dense ? dense : line_pattern(n, 100, 142 + n);
      const uint64_t hi = admitting_budget(Options{}, n, [&](Solver& s) {
        WlisResult out;
        s.solve_wlis(std::span<const int64_t>(a), w, out,
                     std::greater<int64_t>{});
      });
      Solver s;
      WlisResult out;
      const uint64_t before = scheduler_stats().spawns;
      s.solve_wlis(a, w, out);
      if (num_workers() >= 4) {
        EXPECT_GT(scheduler_stats().spawns, before);
      }
      EXPECT_LE(s.resident_bytes() + out.resident_bytes(), hi);
    }
  }
}

// The LIS plan's estimate (patience, plus the rank space for a rank image)
// and the Seq-AVL fallback's bound what a solve really holds, from n = 0
// up. The fallback's node pool (48 B per node) is freed before the solve
// returns, so it is added to the measured figure.
TEST(MemoryBudget, LisAndFallbackEstimatesCoverRealAccounting) {
  for (int64_t n : {int64_t{0}, int64_t{1}, int64_t{17}, int64_t{300},
                    int64_t{560}, int64_t{5000}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::vector<int64_t> a = make_vals(n, 121 + n);
    const std::vector<int64_t> w = make_weights(n, 122 + n);
    std::vector<double> da(a.begin(), a.end());
    Options nd;
    nd.ties = TiesPolicy::kNonDecreasing;
    // Raw keys, a typed rank image, and an int64 nondec rank image.
    for (int path = 0; path < 3; path++) {
      SCOPED_TRACE("lis path " + std::to_string(path));
      auto solve = [&](Solver& s, LisResult& out) {
        if (path == 1) {
          s.solve_lis(std::span<const double>(da), out);
        } else {
          s.solve_lis(a, out);
        }
      };
      const Options o = path == 2 ? nd : Options{};
      const uint64_t hi = admitting_budget(o, n, [&](Solver& s) {
        LisResult out;
        solve(s, out);
      });
      Solver s(o);
      LisResult out;
      solve(s, out);
      EXPECT_LE(s.resident_bytes() + out.resident_bytes(), hi);
    }
    // The fallback's price: the smallest budget admitting a raw weighted
    // solve lies below the full plan's, so the solve under it degrades.
    const uint64_t lo = admitting_budget(Options{}, n, [&](Solver& s) {
      WlisResult out;
      s.solve_wlis(a, w, out);
    });
    Options o;
    o.memory_budget_bytes = lo;
    Solver s(o);
    WlisResult out;
    s.solve_wlis(a, w, out);
    EXPECT_LE(s.resident_bytes() + out.resident_bytes() +
                  48 * static_cast<uint64_t>(n),
              lo);
  }
}

TEST(MemoryBudget, ZeroMeansUnlimited) {
  Options o;
  o.memory_budget_bytes = 0;
  Solver s(o);
  const std::vector<int64_t> a = make_vals(100000, 101);
  LisResult out;
  s.solve_lis(a, out);
  EXPECT_GT(out.k, 0);
}

}  // namespace
}  // namespace parlis
