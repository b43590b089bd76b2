// Serving-engine suite (ctest -L serve; also rides the ASan fault leg and
// the TSan leg):
//
//  * ServeTable  — SessionTable semantics: hit/miss accounting, LRU
//    eviction under a measured byte budget, the pin contract, exclusive
//    leases, one budget a tenant may use whole, budget rejection, and the
//    churn pin: a tenant evicted and re-admitted answers bit-identically
//    to its pre-eviction warm self (both the weighted dp vector and a
//    streaming replay).
//  * ServeEngine — admission-queue behavior end to end: coalesced batches
//    match direct solves, a request cancelled (or expired) while queued
//    never reaches a worker, kReject overload fail-fast vs kBlock
//    backpressure, tenant ops (append / solve_warm) against direct
//    references, tenant ops whose guard trips while they wait for the
//    lease, threads sharing one series, an engine that starts no
//    thread, and multi-client stress legs for the TSan build (one races
//    the hand-over of combining passes between callers).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "parlis/api/solver.hpp"
#include "parlis/lis/seq_lis.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/parallel/scheduler.hpp"
#include "parlis/serve/engine.hpp"
#include "parlis/serve/session_table.hpp"
#include "parlis/stream/lis_session.hpp"
#include "parlis/util/cancel.hpp"
#include "parlis/util/error.hpp"
#include "parlis/util/exec_context.hpp"
#include "parlis/wlis/seq_avl.hpp"

namespace parlis {
namespace {

using serve::BackpressureMode;
using serve::Engine;
using serve::EngineConfig;
using serve::RequestGuard;
using serve::SessionTable;

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

// Measured footprint of one tenant warmed by `warm` — run against an
// unbudgeted scratch table, so budget tests can size their budgets off the
// real figure instead of a guess.
template <typename WarmFn>
uint64_t warm_tenant_bytes(WarmFn&& warm) {
  SessionTable::Config cfg;
  SessionTable table(cfg);
  {
    auto lease = table.acquire(1);
    warm(lease);
  }
  return table.resident_bytes();
}

// Threads of this process, or -1 where /proc/self/task cannot be read.
int64_t thread_count() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec), end;
  int64_t n = 0;
  for (; !ec && it != end; it.increment(ec)) n++;
  return ec ? -1 : n;
}

// -------------------------------------------------------------- ServeTable

TEST(ServeTable, HitMissAndLruAccounting) {
  SessionTable::Config cfg;
  SessionTable table(cfg);
  EXPECT_FALSE(table.contains(7));
  { auto lease = table.acquire(7); EXPECT_EQ(lease.series(), 7u); }
  EXPECT_TRUE(table.contains(7));
  { auto lease = table.acquire(7); }
  { auto lease = table.acquire(8); }
  auto st = table.stats();
  EXPECT_EQ(st.table_misses, 2);
  EXPECT_EQ(st.table_hits, 1);
  EXPECT_EQ(st.admissions, 2);
  EXPECT_EQ(st.tenants, 2);
  EXPECT_EQ(st.evictions, 0);
  EXPECT_GT(st.resident_bytes, 0);
}

TEST(ServeTable, FreshTenantTooBigForBudgetIsRejected) {
  SessionTable::Config cfg;
  cfg.memory_budget_bytes = 16;  // smaller than any entry
  SessionTable table(cfg);
  expect_error(ErrorCode::kBudgetExceeded, [&] { table.acquire(1); });
  auto st = table.stats();
  EXPECT_EQ(st.budget_rejections, 1);
  EXPECT_EQ(st.tenants, 0);
  EXPECT_EQ(st.resident_bytes, 0);
}

TEST(ServeTable, PinnedEntryIsNeverEvicted) {
  // Streaming growth: session appends are not gated by the solver's
  // budget estimates, so the footprint per tenant is deterministic and the
  // eviction pressure is guaranteed.
  const auto vals = make_vals(2048, 11);
  const uint64_t one = warm_tenant_bytes([&](SessionTable::Lease& lease) {
    for (int64_t v : vals) lease.session().append(v);
  });

  SessionTable::Config cfg;
  cfg.memory_budget_bytes = one + one / 2;  // room for ~1.5 warm tenants
  SessionTable table(cfg);
  auto pinned = table.acquire(1);
  for (int64_t v : vals) pinned.session().append(v);
  // Admissions under pressure may evict anything idle — but never series 1,
  // whose lease is live.
  for (uint64_t s = 2; s < 8; s++) {
    auto lease = table.acquire(s);
    for (int64_t v : vals) lease.session().append(v);
  }
  EXPECT_TRUE(table.contains(1));
  EXPECT_GT(table.stats().evictions, 0);
}

TEST(ServeTable, ChurnEvictReAdmitIsBitIdentical) {
  const int64_t n = 2048;
  const auto vals = make_vals(n, 21);
  const auto wts = make_weights(n, 22);
  const uint64_t one = warm_tenant_bytes([&](SessionTable::Lease& lease) {
    WlisResult out;
    lease.solver().solve_wlis(vals, wts, out);
  });

  SessionTable::Config cfg;
  // ~2.5 warm tenants: enough headroom that the solver's conservative
  // admission ESTIMATE (which runs ahead of the measured footprint) still
  // picks the full plan for the hot tenant, while two grown tenants put
  // the table over budget.
  cfg.memory_budget_bytes = 5 * one / 2;
  SessionTable table(cfg);

  // Warm solve on tenant 1, recording the full dp vector.
  std::vector<int64_t> warm_dp;
  int64_t warm_best = 0;
  {
    auto lease = table.acquire(1);
    WlisResult out;
    lease.solver().solve_wlis(vals, wts, out);
    warm_dp = out.dp;
    warm_best = out.best;
    // Second warm solve over the same values: the tenant's value cache
    // must not change the answer.
    lease.solver().solve_wlis(vals, wts, out);
    ASSERT_EQ(out.dp, warm_dp);
  }

  // Churn other tenants through the table until tenant 1 is evicted.
  // Each churn tenant grows by solve AND by session appends (the latter is
  // never estimate-gated), so the pressure builds regardless of which plan
  // the budgeted solves pick.
  for (uint64_t s = 2; s < 10 && table.contains(1); s++) {
    auto lease = table.acquire(s);
    WlisResult out;
    lease.solver().solve_wlis(vals, make_weights(n, s), out);
    for (int64_t v : vals) lease.session().append(v);
  }
  ASSERT_FALSE(table.contains(1)) << "budget never forced the eviction";
  ASSERT_GT(table.stats().evictions, 0);

  // Re-admit: the cold solve must reproduce the warm answer bit for bit.
  {
    auto lease = table.acquire(1);
    WlisResult out;
    lease.solver().solve_wlis(vals, wts, out);
    EXPECT_EQ(out.best, warm_best);
    EXPECT_EQ(out.dp, warm_dp);
  }
}

TEST(ServeTable, StreamingChurnReplayIsBitIdentical) {
  const int64_t n = 1500;
  const auto vals = make_vals(n, 31);
  const uint64_t one = warm_tenant_bytes([&](SessionTable::Lease& lease) {
    for (int64_t v : vals) lease.session().append(v);
  });

  SessionTable::Config cfg;
  cfg.memory_budget_bytes = one + one / 2;
  SessionTable table(cfg);

  std::vector<int64_t> warm_lengths, warm_window;
  {
    auto lease = table.acquire(1);
    for (int64_t v : vals) warm_lengths.push_back(lease.session().append(v));
    const std::span<const int64_t> win = lease.session().window();
    warm_window.assign(win.begin(), win.end());
  }
  for (uint64_t s = 2; s < 10 && table.contains(1); s++) {
    auto lease = table.acquire(s);
    for (int64_t v : make_vals(n, s)) lease.session().append(v);
  }
  ASSERT_FALSE(table.contains(1)) << "budget never forced the eviction";

  // Replay the same stream into the re-admitted (cold) tenant.
  {
    auto lease = table.acquire(1);
    std::vector<int64_t> cold_lengths;
    for (int64_t v : vals) cold_lengths.push_back(lease.session().append(v));
    EXPECT_EQ(cold_lengths, warm_lengths);
    EXPECT_TRUE(std::ranges::equal(lease.session().window(), warm_window));
  }
}

TEST(ServeTable, ResidentStaysWithinBudgetAcrossChurn) {
  const int64_t n = 1024;
  const auto vals = make_vals(n, 41);
  const uint64_t one = warm_tenant_bytes([&](SessionTable::Lease& lease) {
    for (int64_t v : vals) lease.session().append(v);
  });

  SessionTable::Config cfg;
  cfg.memory_budget_bytes = 3 * one;
  SessionTable table(cfg);
  for (uint64_t s = 1; s <= 24; s++) {
    try {
      auto lease = table.acquire(s);
      for (int64_t v : vals) lease.session().append(v);
    } catch (const Error& e) {
      // The budget can be tighter than one warm tenant; rejection is a
      // legal answer, silently blowing the budget is not.
      ASSERT_EQ(e.code(), ErrorCode::kBudgetExceeded) << e.what();
    }
    // Idle-state invariant: with no lease live, measured residency never
    // exceeds the configured budget once the table has settled.
    table.enforce_budget();
    EXPECT_LE(table.resident_bytes(), table.budget_bytes());
  }
  auto st = table.stats();
  EXPECT_GT(st.evictions, 0);
  EXPECT_GT(st.admissions, 3);
}

// Leases are exclusive: threads leasing one series take turns, so no two
// are ever inside a lease at once, and every append lands. The threads
// start together and yield inside the lease, so without the lock they
// would overlap.
TEST(ServeTable, LeasesOnOneSeriesNeverOverlap) {
  SessionTable table(SessionTable::Config{});
  const int kThreads = 4, kRounds = 200;
  std::atomic<int> ready{0}, inside{0}, most{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      ready++;
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int r = 0; r < kRounds; r++) {
        auto lease = table.acquire(9);
        const int now = inside.fetch_add(1) + 1;
        int seen = most.load();
        while (now > seen && !most.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::yield();
        lease.session().append(t * kRounds + r);
        inside.fetch_sub(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(most.load(), 1);
  auto lease = table.acquire(9);
  EXPECT_EQ(lease.session().size(), kThreads * kRounds);
}

// A second acquire of a leased series returns only after the first lease
// is released; meanwhile the rest of the table stays available.
TEST(ServeTable, SecondAcquireWaitsForRelease) {
  SessionTable table(SessionTable::Config{});
  std::optional<SessionTable::Lease> first;
  first.emplace(table.acquire(3));
  std::atomic<bool> released{false}, acquired{false};
  std::thread second([&] {
    auto lease = table.acquire(3);
    acquired = true;
    EXPECT_TRUE(released.load()) << "the second lease overlapped the first";
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(acquired.load());
  { auto other = table.acquire(4); }  // another series does not wait
  EXPECT_TRUE(table.contains(3));
  released = true;
  first.reset();
  second.join();
  EXPECT_TRUE(acquired.load());
}

// One table, one budget: a lone tenant may use all of it. A kNonDecreasing
// weighted solve has no smaller path, and this one is priced above an
// eighth of the budget (a bare Solver under budget/8 rejects it) and
// below the whole budget, so it solves.
TEST(ServeTable, OneTenantMayUseTheWholeBudget) {
  const int64_t n = 4096;
  const auto vals = make_vals(n, 81);
  const auto wts = make_weights(n, 82);
  SessionTable::Config cfg;
  cfg.memory_budget_bytes = uint64_t{1} << 20;
  cfg.solver.ties = TiesPolicy::kNonDecreasing;
  WlisResult want;
  Solver(cfg.solver).solve_wlis(vals, wts, want);
  Options eighth = cfg.solver;
  eighth.memory_budget_bytes = cfg.memory_budget_bytes / 8;
  expect_error(ErrorCode::kBudgetExceeded, [&] {
    WlisResult out;
    Solver(eighth).solve_wlis(vals, wts, out);
  });

  SessionTable table(cfg);
  auto lease = table.acquire(1);
  WlisResult out;
  lease.solver().solve_wlis(vals, wts, out);
  EXPECT_EQ(out.dp, want.dp);
  EXPECT_EQ(out.best, want.best);
  EXPECT_EQ(out.k, want.k);
}

// ------------------------------------------------------------- ServeEngine

TEST(ServeEngine, CoalescedSolvesMatchDirect) {
  const int kClients = 4, kQueriesEach = 8;
  const int64_t n = 1024;
  std::vector<std::vector<int64_t>> inputs;
  std::vector<QueryResult> want;
  Solver direct;
  for (int c = 0; c < kClients; c++) {
    for (int q = 0; q < kQueriesEach; q++) {
      inputs.push_back(make_vals(n, 100 + static_cast<uint64_t>(c * 17 + q)));
      LisResult r;
      direct.solve_lis(inputs.back(), r);
      want.push_back({r.k, r.k});
    }
  }

  EngineConfig cfg;
  Engine engine(cfg);
  engine.pause();  // everything queues, so one drain coalesces all
  std::vector<std::thread> clients;
  std::vector<std::vector<QueryResult>> got(kClients);
  for (int c = 0; c < kClients; c++) {
    clients.emplace_back([&, c] {
      std::vector<Query> qs(kQueriesEach);
      got[c].resize(kQueriesEach);
      for (int q = 0; q < kQueriesEach; q++) {
        qs[q].a = inputs[static_cast<size_t>(c * kQueriesEach + q)];
      }
      engine.solve(qs, got[c]);
    });
  }
  while (engine.queue_depth() < kClients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  engine.resume();
  for (auto& t : clients) t.join();

  for (int c = 0; c < kClients; c++) {
    for (int q = 0; q < kQueriesEach; q++) {
      const auto& w = want[static_cast<size_t>(c * kQueriesEach + q)];
      EXPECT_EQ(got[c][static_cast<size_t>(q)].k, w.k);
      EXPECT_EQ(got[c][static_cast<size_t>(q)].best, w.best);
    }
  }
  auto st = engine.stats();
  EXPECT_EQ(st.requests, kClients);
  EXPECT_EQ(st.coalesced_queries, kClients * kQueriesEach);
  // All clients were queued before resume(), so one batch carried them all.
  EXPECT_EQ(st.coalesced_batches, 1);
  EXPECT_EQ(st.coalesced_batch_max, kClients * kQueriesEach);
}

TEST(ServeEngine, CancelledWhileQueuedNeverReachesAWorker) {
  const auto vals = make_vals(512, 7);
  EngineConfig cfg;
  Engine engine(cfg);
  engine.pause();
  auto token = CancelToken::make();
  std::vector<int32_t> rank(vals.size(), -7);  // sentinel: must stay put
  Query q;
  q.a = vals;
  q.rank_out = rank;
  std::thread client([&] {
    expect_error(ErrorCode::kCancelled,
                 [&] { engine.solve_one(q, {token, 0}); });
  });
  while (engine.queue_depth() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  token.request_cancel();
  engine.resume();
  client.join();
  EXPECT_TRUE(std::all_of(rank.begin(), rank.end(),
                          [](int32_t r) { return r == -7; }))
      << "a cancelled-while-queued request touched its output";
  EXPECT_EQ(engine.stats().cancelled_queued, 1);
}

TEST(ServeEngine, DeadlineExpiredWhileQueuedNeverReachesAWorker) {
  const auto vals = make_vals(512, 8);
  EngineConfig cfg;
  Engine engine(cfg);
  engine.pause();
  Query q;
  q.a = vals;
  std::thread client([&] {
    expect_error(ErrorCode::kDeadlineExceeded,
                 [&] { engine.solve_one(q, {CancelToken{}, 40}); });
  });
  while (engine.queue_depth() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  engine.resume();
  client.join();
  EXPECT_EQ(engine.stats().expired_queued, 1);
}

TEST(ServeEngine, RejectModeThrowsOverloadedWhenFull) {
  const auto vals = make_vals(512, 9);
  EngineConfig cfg;
  cfg.queue_capacity = 2;
  cfg.backpressure = BackpressureMode::kReject;
  Engine engine(cfg);
  engine.pause();
  Query q;
  q.a = vals;
  std::vector<std::thread> fillers;
  for (int i = 0; i < 2; i++) {
    fillers.emplace_back([&] { engine.solve_one(q); });
  }
  while (engine.queue_depth() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  expect_error(ErrorCode::kOverloaded, [&] { engine.solve_one(q); });
  engine.resume();
  for (auto& t : fillers) t.join();
  auto st = engine.stats();
  EXPECT_EQ(st.overload_rejections, 1);
  EXPECT_EQ(st.queue_depth_hwm, 2);
}

TEST(ServeEngine, BlockModeWaitsForASlot) {
  const auto vals = make_vals(512, 10);
  EngineConfig cfg;
  cfg.queue_capacity = 1;
  cfg.backpressure = BackpressureMode::kBlock;
  Engine engine(cfg);
  engine.pause();
  Query q;
  q.a = vals;
  std::atomic<int> done{0};
  std::thread a([&] { engine.solve_one(q); done++; });
  while (engine.queue_depth() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread b([&] { engine.solve_one(q); done++; });  // blocks on admission
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(done.load(), 0);
  engine.resume();
  a.join();
  b.join();
  EXPECT_EQ(done.load(), 2);
  EXPECT_EQ(engine.stats().overload_rejections, 0);
}

TEST(ServeEngine, CancelWhileBlockedOnAdmission) {
  const auto vals = make_vals(512, 12);
  EngineConfig cfg;
  cfg.queue_capacity = 1;
  cfg.backpressure = BackpressureMode::kBlock;
  Engine engine(cfg);
  engine.pause();
  Query q;
  q.a = vals;
  std::thread filler([&] { engine.solve_one(q); });
  while (engine.queue_depth() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto token = CancelToken::make();
  std::thread blocked([&] {
    expect_error(ErrorCode::kCancelled,
                 [&] { engine.solve_one(q, {token, 0}); });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  token.request_cancel();
  blocked.join();  // must unblock without ever being queued
  engine.resume();
  filler.join();
}

// Three callers wait on a paused engine; destroying it fails each queued
// request with kCancelled, and the destructor returns only after every
// caller has left solve() (under ASan, a caller touching the engine after
// that is a use after free).
TEST(ServeEngine, DestructorFailsQueuedRequests) {
  const auto vals = make_vals(512, 13);
  EngineConfig cfg;
  auto engine = std::make_unique<Engine>(cfg);
  engine->pause();
  Query q;
  q.a = vals;
  const int kCallers = 3;
  std::vector<std::thread> clients;
  for (int c = 0; c < kCallers; c++) {
    clients.emplace_back([&] {
      expect_error(ErrorCode::kCancelled, [&] { engine->solve_one(q); });
    });
  }
  while (engine->queue_depth() < kCallers) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  engine.reset();  // stop: queued requests complete with kCancelled
  for (auto& t : clients) t.join();
}

// A combiner serves the requests it drains under their scopes, not its own.
// A thread under a tripped outer scope makes a guard-free solve: its
// request carries that scope, so it runs alone and fails. It becomes the
// combiner and lingers until this thread's guard-free solve fills the
// ring; that solve runs in a batch under no scope and must succeed.
TEST(ServeEngine, CombinersScopeFailsOnlyItsOwnRequest) {
  const auto vals = make_vals(512, 14);
  EngineConfig cfg;
  cfg.queue_capacity = 2;
  cfg.coalesce_linger_us = 2'000'000;
  Engine engine(cfg);
  Query q;
  q.a = vals;
  std::thread combiner([&] {
    const auto token = CancelToken::make();
    token.request_cancel();
    internal::CancelScope scope(token, 0);
    expect_error(ErrorCode::kCancelled, [&] { (void)engine.solve_one(q); });
  });
  while (engine.stats().requests < 1) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  QueryResult got{};
  try {
    got = engine.solve_one(q);
  } catch (const Error& e) {
    ADD_FAILURE() << "the combiner's scope failed this caller: " << e.what();
  }
  combiner.join();
  EXPECT_EQ(got.k, seq_bs_length(vals));
}

// The Engine owns no thread: with the pool already running, constructing
// one and serving each verb on it leaves the process's thread count as it
// was. Every verb runs on its caller.
TEST(ServeEngine, EngineOwnsNoThread) {
  if (thread_count() < 0) GTEST_SKIP() << "/proc/self/task is not readable";
  (void)num_workers();  // starts the pool
  const int64_t n = 512;
  const auto vals = make_vals(n, 91);
  const auto wts = make_weights(n, 92);
  const int64_t before = thread_count();
  Engine engine(EngineConfig{});
  Query q;
  q.a = vals;
  EXPECT_EQ(engine.solve_one(q).k, seq_bs_length(vals));
  EXPECT_EQ(engine.append(1, 5), 1);
  Query wq;
  wq.a = vals;
  wq.w = wts;
  EXPECT_GT(engine.solve_warm(2, wq).best, 0);
  EXPECT_EQ(thread_count(), before);
}

TEST(ServeEngine, AppendAndWarmSolveMatchDirect) {
  const int64_t n = 1200;
  const auto vals = make_vals(n, 51);
  const auto wts = make_weights(n, 52);

  // Direct references: a plain session for the lengths, a plain solver for
  // the weighted dp.
  std::vector<int64_t> want_lengths;
  {
    Solver s;
    auto session = s.make_session();
    for (int64_t v : vals) want_lengths.push_back(session.append(v));
  }
  WlisResult want_w;
  {
    Solver s;
    s.solve_wlis(vals, wts, want_w);
  }

  Engine engine(EngineConfig{});
  const uint64_t kSeries = 42;
  for (int64_t i = 0; i < n; i++) {
    EXPECT_EQ(engine.append(kSeries, vals[static_cast<size_t>(i)]),
              want_lengths[static_cast<size_t>(i)]);
  }

  std::vector<int64_t> dp(static_cast<size_t>(n));
  Query q;
  q.a = vals;
  q.w = wts;
  q.dp_out = dp;
  auto r1 = engine.solve_warm(kSeries, q);
  EXPECT_EQ(r1.k, want_w.k);
  EXPECT_EQ(r1.best, want_w.best);
  EXPECT_EQ(dp, want_w.dp);
  // Same values again: the tenant's value cache must hit and agree.
  auto r2 = engine.solve_warm(kSeries, q);
  EXPECT_EQ(r2.best, want_w.best);
  auto st = engine.stats();
  EXPECT_EQ(st.value_cache_hits, 1);
  EXPECT_EQ(st.value_cache_misses, 1);
  EXPECT_EQ(st.tenants, 1);
}

// The value-cache counters count what the tenant's Solver reports: a
// kNonDecreasing tenant solves on a rank image every time, so repeated
// warm weighted solves of one series are all misses.
TEST(ServeEngine, NonDecreasingTenantCountsNoValueCacheHits) {
  const int64_t n = 1200;
  const auto vals = make_vals(n, 53);
  const auto wts = make_weights(n, 54);
  EngineConfig cfg;
  cfg.table.solver.ties = TiesPolicy::kNonDecreasing;
  WlisResult want;
  Solver(cfg.table.solver).solve_wlis(vals, wts, want);
  Engine engine(cfg);
  Query q;
  q.a = vals;
  q.w = wts;
  for (int r = 0; r < 3; r++) {
    const QueryResult got = engine.solve_warm(42, q);
    EXPECT_EQ(got.k, want.k);
    EXPECT_EQ(got.best, want.best);
  }
  const auto st = engine.stats();
  EXPECT_EQ(st.value_cache_hits, 0);
  EXPECT_EQ(st.value_cache_misses, 3);
}

// A warm query whose output span is shorter than |a| must fail at submit,
// before the tenant is leased: the solve would copy |a| results into it.
TEST(ServeEngine, WarmSolveRejectsUndersizedOutputSpans) {
  const int64_t n = 4096;
  const auto vals = make_vals(n, 55);
  const auto wts = make_weights(n, 56);
  Engine engine(EngineConfig{});
  std::vector<int32_t> rank(16, -7);
  std::vector<int64_t> dp(16, -7);
  Query lq;
  lq.a = vals;
  lq.rank_out = rank;
  expect_error(ErrorCode::kInvalidArgument,
               [&] { (void)engine.solve_warm(1, lq); });
  Query wq;
  wq.a = vals;
  wq.w = wts;
  wq.dp_out = dp;
  expect_error(ErrorCode::kInvalidArgument,
               [&] { (void)engine.solve_warm(1, wq); });
  EXPECT_FALSE(engine.table().contains(1));
  EXPECT_TRUE(std::all_of(rank.begin(), rank.end(),
                          [](int32_t r) { return r == -7; }));
  EXPECT_TRUE(std::all_of(dp.begin(), dp.end(),
                          [](int64_t d) { return d == -7; }));
  // A well-formed query on the same series still solves.
  WlisResult want;
  Solver().solve_wlis(vals, wts, want);
  wq.dp_out = {};
  EXPECT_EQ(engine.solve_warm(1, wq).best, want.best);
}

// A malformed query fails at submit, so it never joins a coalesced batch:
// the well-formed request queued beside it still succeeds. (Were the bad
// one queued too, the two would coalesce on resume and both fail.)
TEST(ServeEngine, MalformedQueryFailsOnlyItsOwnRequest) {
  const auto vals = make_vals(64, 57);
  LisResult want;
  Solver().solve_lis(vals, want);
  EngineConfig cfg;
  Engine engine(cfg);
  engine.pause();
  Query good;
  good.a = vals;
  QueryResult got;
  std::thread good_client([&] {
    try {
      got = engine.solve_one(good);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "the well-formed request failed: " << e.what();
    }
  });
  while (engine.queue_depth() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<int32_t> rank(4);
  Query bad;
  bad.a = vals;
  bad.rank_out = rank;
  std::atomic<bool> bad_done{false};
  std::thread bad_client([&] {
    expect_error(ErrorCode::kInvalidArgument,
                 [&] { (void)engine.solve_one(bad); });
    bad_done = true;
  });
  while (!bad_done && engine.queue_depth() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(bad_done) << "the malformed request was queued";
  engine.resume();
  good_client.join();
  bad_client.join();
  EXPECT_EQ(got.k, want.k);
  EXPECT_EQ(got.best, want.k);
}

// A tenant verb's guard ends with its call: a later lease on the tenant
// (here a direct one) starts unguarded.
TEST(ServeEngine, TenantGuardEndsWithItsCall) {
  Engine engine(EngineConfig{});
  auto token = CancelToken::make();
  engine.append(1, 5, {token, 40});
  token.request_cancel();
  auto lease = engine.table().acquire(1);
  EXPECT_FALSE(lease.solver().options().cancel.valid());
  EXPECT_EQ(lease.solver().options().deadline_ms, 0);
  const std::vector<int64_t> a = {3, 1, 2};
  LisResult out;
  lease.solver().solve_lis(a, out);
  EXPECT_EQ(out.k, 2);
}

// The engine's solvers carry no guard of their own: a tripped token in the
// configured solver options fails no call, stateless or tenant.
TEST(ServeEngine, ConfiguredSolverTokenFailsNoCall) {
  EngineConfig cfg;
  cfg.table.solver.cancel = CancelToken::make();
  cfg.table.solver.cancel.request_cancel();
  Engine engine(cfg);
  const auto vals = make_vals(512, 15);
  Query q;
  q.a = vals;
  EXPECT_EQ(engine.solve_one(q).k, seq_bs_length(vals));
  EXPECT_EQ(engine.solve_one(q, {CancelToken{}, 1000}).k, seq_bs_length(vals));
  EXPECT_EQ(engine.solve_warm(1, q).k, seq_bs_length(vals));
  EXPECT_EQ(engine.append(2, 5), 1);
}

// Runs one tenant verb (0: append, 1: solve_warm) with `guard` on another
// thread while this one holds the tenant's lease; `wait_ms` into the verb's
// wait, runs `trip`, then keeps the lease until the verb has thrown (at
// most 2 s) before releasing it. The verb must throw `want` in the wait,
// while the lease is still held, and run nothing: the append admits no
// value, the warm solve writes no rank.
template <typename Trip>
void expect_fails_in_lease_wait(int verb, ErrorCode want,
                                const RequestGuard& guard, int64_t wait_ms,
                                Trip&& trip) {
  const auto vals = make_vals(512, 93);
  Engine engine(EngineConfig{});
  engine.append(1, 7);
  std::vector<int32_t> rank(vals.size(), -7);  // sentinel: must stay put
  Query q;
  q.a = vals;
  q.rank_out = rank;
  std::optional<SessionTable::Lease> holder;
  holder.emplace(engine.table().acquire(1));
  const int64_t hits = engine.stats().table_hits;
  std::atomic<bool> thrown{false};
  std::thread client([&] {
    expect_error(want, [&] {
      if (verb == 0) {
        engine.append(1, 9, guard);
      } else {
        engine.solve_warm(1, q, guard);
      }
    });
    thrown = true;
  });
  // The verb's acquire counts a hit before it waits, and after the verb
  // started its deadline's clock.
  while (engine.stats().table_hits == hits) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
  trip();
  const auto cap = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!thrown && std::chrono::steady_clock::now() < cap) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(thrown) << "verb " << verb
                      << " still waited 2 s after its guard tripped";
  holder.reset();
  client.join();
  EXPECT_TRUE(std::all_of(rank.begin(), rank.end(),
                          [](int32_t r) { return r == -7; }))
      << "verb " << verb << " wrote its output";
  EXPECT_EQ(engine.table().acquire(1).session().size(), 1) << "verb " << verb;
}

// A tenant verb's deadline runs from its call, so its wait for a busy
// tenant counts: one whose deadline passes in that wait throws
// kDeadlineExceeded there, before its op runs, while the holder still
// holds the lease.
TEST(ServeEngine, TenantVerbFailsWhenItsDeadlinePassesInTheLeaseWait) {
  for (int verb = 0; verb < 2; verb++) {
    expect_fails_in_lease_wait(verb, ErrorCode::kDeadlineExceeded,
                               {CancelToken{}, 5}, 25, [] {});
  }
}

// The same for a token tripped during the wait: kCancelled.
TEST(ServeEngine, TenantVerbFailsWhenCancelledInTheLeaseWait) {
  for (int verb = 0; verb < 2; verb++) {
    const auto token = CancelToken::make();
    expect_fails_in_lease_wait(verb, ErrorCode::kCancelled, {token, 0}, 5,
                               [&] { token.request_cancel(); });
  }
}

// Tenant verbs run on their callers' threads, serialized by the table's
// exclusive lease: four threads append to one series and interleave warm
// weighted solves on it. Every append lands (the grow-only window holds
// exactly the appended values), no thread sees the length shrink, the
// final length is the window's LIS, and every warm dp matches Seq-AVL.
// Under TSan this races each lease's release-time measure against the
// next holder's op.
TEST(ServeEngine, SharedSeriesVerbsSerialize) {
  const int kThreads = 4, kAppends = 300, kSolveEvery = 50;
  const int64_t n = 600;
  const auto shared_vals = make_vals(n, 71);
  const uint64_t kSeries = 5;
  Engine engine(EngineConfig{});
  std::vector<std::vector<int64_t>> fed(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; t++) {
    clients.emplace_back([&, t] {
      fed[t] = make_vals(kAppends, 200 + static_cast<uint64_t>(t));
      const auto own_vals = make_vals(n, 300 + static_cast<uint64_t>(t));
      int64_t last = 0;
      for (int i = 0; i < kAppends; i++) {
        const int64_t len = engine.append(kSeries, fed[t][i]);
        if (len < last || len < 1) failures++;
        last = len;
        if (i % kSolveEvery != 0) continue;
        // Alternate a value-cache hit candidate with this thread's own
        // values, so the tenant's cache flips between callers.
        const auto& vals = (i / kSolveEvery) % 2 == 0 ? shared_vals : own_vals;
        const auto wts =
            make_weights(n, 400 + static_cast<uint64_t>(t * kAppends + i));
        std::vector<int64_t> dp(static_cast<size_t>(n));
        Query q;
        q.a = vals;
        q.w = wts;
        q.dp_out = dp;
        const QueryResult r = engine.solve_warm(kSeries, q);
        const std::vector<int64_t> want = seq_avl_wlis(vals, wts);
        if (dp != want) failures++;
        if (r.best != *std::max_element(want.begin(), want.end())) failures++;
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(failures.load(), 0);

  auto lease = engine.table().acquire(kSeries);
  const std::span<const int64_t> win = lease.session().window();
  const std::vector<int64_t> window(win.begin(), win.end());
  Solver fresh;
  auto ref = fresh.make_session();
  for (int64_t v : window) ref.append(v);
  EXPECT_EQ(lease.session().length(), ref.length());
  std::vector<int64_t> got = window, all;
  for (const auto& f : fed) all.insert(all.end(), f.begin(), f.end());
  std::sort(got.begin(), got.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(got, all);
  const auto st = engine.stats();
  EXPECT_EQ(st.value_cache_hits + st.value_cache_misses,
            kThreads * (kAppends / kSolveEvery));
}

// Four threads each send kCalls solve_one calls; every fourth carries a
// token that never trips, so guarded solo passes interleave with coalesced
// ones. Every k matches Seq-BS, every unguarded query went through a
// coalesced batch, and every call counts as a request. Under TSan this
// races the hand-over of the pass between callers.
TEST(ServeEngine, CombiningStress) {
  const int kThreads = 4, kCalls = 1000, kInputs = 16;
  std::vector<std::vector<int64_t>> inputs;
  std::vector<int64_t> want;
  for (int i = 0; i < kInputs; i++) {
    inputs.push_back(make_vals(32 + 24 * i, 500 + static_cast<uint64_t>(i)));
    want.push_back(seq_bs_length(inputs.back()));
  }
  EngineConfig cfg;
  cfg.queue_capacity = 2;  // callers also wait on admission
  Engine engine(cfg);
  const auto token = CancelToken::make();
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; t++) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kCalls; i++) {
        const auto in = static_cast<size_t>((7 * t + i) % kInputs);
        Query q;
        q.a = inputs[in];
        const RequestGuard guard =
            i % 4 == 0 ? RequestGuard{token, 0} : RequestGuard{};
        if (engine.solve_one(q, guard).k != want[in]) failures++;
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(failures.load(), 0);
  const auto st = engine.stats();
  EXPECT_EQ(st.requests, kThreads * kCalls);
  EXPECT_EQ(st.coalesced_queries, kThreads * kCalls * 3 / 4);
}

TEST(ServeEngine, MultiClientStress) {
  // TSan target: concurrent clients mixing coalescable solves with tenant
  // ops on a budget small enough to force eviction churn underneath them.
  const int64_t n = 700;
  const auto vals = make_vals(n, 61);
  const uint64_t one = warm_tenant_bytes([&](SessionTable::Lease& lease) {
    WlisResult out;
    lease.solver().solve_wlis(vals, make_weights(n, 62), out);
  });

  EngineConfig cfg;
  cfg.table.memory_budget_bytes = 4 * one;
  cfg.queue_capacity = 16;
  Engine engine(cfg);

  LisResult want_lis;
  {
    Solver s;
    s.solve_lis(vals, want_lis);
  }
  std::vector<int64_t> want_lengths;
  {
    Solver s;
    auto session = s.make_session();
    for (int64_t v : vals) want_lengths.push_back(session.append(v));
  }

  const int kThreads = 4, kRounds = 6;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; t++) {
    clients.emplace_back([&, t] {
      for (int round = 0; round < kRounds; round++) {
        const uint64_t series = static_cast<uint64_t>(t * kRounds + round);
        try {
          if (round % 2 == 0) {
            // Streaming tenant: replay the shared stream, check lengths.
            for (int64_t i = 0; i < n; i += 7) {
              const auto idx = static_cast<size_t>(i);
              if (engine.append(series, vals[idx]) <= 0) failures++;
            }
          } else {
            // Warm weighted tenant + a coalescable stateless solve.
            std::vector<int64_t> w = make_weights(n, series);
            Query wq;
            wq.a = vals;
            wq.w = w;
            if (engine.solve_warm(series, wq).best <= 0) failures++;
            Query lq;
            lq.a = vals;
            if (engine.solve_one(lq).k != want_lis.k) failures++;
          }
        } catch (const Error& e) {
          // Budget rejection is legal under churn; anything else is a bug.
          if (e.code() != ErrorCode::kBudgetExceeded) {
            ADD_FAILURE() << e.what();
            failures++;
          }
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(failures.load(), 0);
  auto st = engine.stats();
  EXPECT_GT(st.requests, 0);
  EXPECT_GT(st.admissions, 0);
  // Settled, unpinned: measured residency obeys the budget.
  engine.table().enforce_budget();
  EXPECT_LE(engine.table().resident_bytes(), engine.table().budget_bytes());
}

}  // namespace
}  // namespace parlis
