// Umbrella-header honesty: this TU includes ONLY parlis/parlis.hpp and
// touches every public entry point of the library. If a public header
// drifts out of the umbrella (the api/ layer once shipped without being
// included) or an entry point stops compiling through it, this file breaks
// the build instead of letting the drift land silently.
#include <gtest/gtest.h>

#include <atomic>

#include "parlis/parlis.hpp"  // the ONLY parlis include, by design

namespace parlis {
namespace {

TEST(Umbrella, EveryPublicEntryPointIsReachable) {
  const std::vector<int64_t> a = {5, 2, 7, 3, 9, 4, 8, 1, 6, 0};
  const std::vector<int64_t> w = uniform_weights(10, 3);

  // --- parallel runtime -------------------------------------------------
  EXPECT_GE(num_workers(), 1);
  EXPECT_GE(worker_id(), 0);
  EXPECT_GE(pool_thread_id(), -1);
  (void)scheduler_stats().spawns;
  bool seq = set_thread_sequential(true);
  EXPECT_TRUE(sequential_mode());
  set_thread_sequential(seq);
  par_do([] {}, [] {});
  // Atomic: once the pool runs, the ten iterations are ten tasks.
  std::atomic<int64_t> sum{0};
  parallel_for(0, 10, [&](int64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 45);

  // --- primitives -------------------------------------------------------
  EXPECT_EQ(reduce_sum(a), 45);
  EXPECT_EQ(reduce(a, int64_t{0},
                   [](int64_t x, int64_t y) { return std::max(x, y); }),
            9);
  std::vector<int64_t> xs = a;
  EXPECT_EQ(scan_exclusive(xs), 45);
  EXPECT_EQ(pack_index(10, [&](int64_t i) { return a[i] > 4; }).size(), 5u);
  EXPECT_EQ(filter(a, [](int64_t v) { return v < 3; }).size(), 3u);
  std::vector<int64_t> sorted_a = sorted(a);
  EXPECT_TRUE(std::is_sorted(sorted_a.begin(), sorted_a.end()));
  std::vector<int64_t> merged(20);
  merge_into(sorted_a.begin(), 10, sorted_a.begin(), 10, merged.begin(),
             std::less<int64_t>{});
  std::vector<int64_t> s1 = a, buf(10);
  sort_with_buffer(s1.data(), buf.data(), 10);
  sort_with_buffer_total(s1.data(), buf.data(), 10);
  auto [order, offsets] =
      counting_sort_index(10, 2, [&](int64_t i) { return a[i] % 2; });
  EXPECT_EQ(offsets.back(), 10);
  EXPECT_NE(hash64(1, 2), hash64(1, 3));
  EXPECT_LT(uniform(1, 2, 10), 10u);
  WorkerCounter wc;
  wc.add(2);
  EXPECT_EQ(wc.read(), 2u);
  Arena arena;
  EXPECT_NE(arena.create_array<int64_t>(8), nullptr);
  arena.reset();
  Timer timer;
  EXPECT_GE(timer.elapsed(), 0.0);

  // --- LIS (Alg. 1) -----------------------------------------------------
  LisResult lr = lis_ranks(a);
  EXPECT_EQ(lr.k, 4);
  EXPECT_EQ(lis_length(a), 4);
  LisFrontiers fr = lis_frontiers(a);
  EXPECT_EQ(fr.k, lr.k);
  EXPECT_EQ(lis_decisions(a, fr).size(), a.size());
  EXPECT_EQ(static_cast<int32_t>(lis_sequence(a).size()), lr.k);
  EXPECT_EQ(longest_nondecreasing_length(a), 4);
  EXPECT_EQ(longest_nondecreasing_ranks(a).k, 4);
  TournamentStorage<int64_t> ts;
  LisResult lr2;
  lis_ranks_into<int64_t>(a, lr2, ts);
  EXPECT_EQ(lr2.rank, lr.rank);
  LisFrontiers fr2;
  lis_frontiers_into<int64_t>(a, fr2, ts);
  EXPECT_EQ(fr2.frontier_flat, fr.frontier_flat);
  TournamentTree<int64_t> tree(a, INT64_MAX);
  EXPECT_FALSE(tree.empty());
  EXPECT_EQ(tree.min_value(), 0);
  EXPECT_EQ(tree.size(), 10);
  (void)tree.nodes_visited();
  tree.extract_frontier([](int64_t) {});
  (void)tree.extract_frontier_collect();
  EXPECT_EQ(seq_bs_ranks(a), lr.rank);
  EXPECT_EQ(seq_bs_length(a), 4);
  EXPECT_EQ(brute_lis_ranks(a), lr.rank);

  // --- weighted LIS (Alg. 2) --------------------------------------------
  WlisResult wr = wlis(a, w);
  EXPECT_EQ(wr.dp, brute_wlis_dp(a, w));
  EXPECT_EQ(wlis(a, w, WlisStructure::kRangeVeb).dp, wr.dp);
  EXPECT_EQ(wlis(a, w, WlisStructure::kRangeVebTabulated).dp, wr.dp);
  EXPECT_FALSE(wlis_sequence(a, w, wr).empty());
  EXPECT_EQ(seq_avl_wlis(a, w), wr.dp);
  WlisWorkspace ws;
  WlisResult wr2;
  wlis_into(a, w, ws, wr2);
  EXPECT_EQ(wr2.dp, wr.dp);
  std::vector<int64_t> perm = {3, 1, 4, 0, 2};
  RangeTreeMax rt(perm);
  static_assert(RangeStructure<RangeTreeMax>);
  EXPECT_EQ(rt.n(), 5);
  ScoreUpdate up{0, 7};
  rt.update_batch(&up, 1);
  EXPECT_EQ(rt.dominant_max(5, 5), 7);
  rt.rebuild(perm);
  EXPECT_EQ(rt.dominant_max(5, 5), 0);  // scores reset
  RangeVeb rv(perm);
  static_assert(RangeStructure<RangeVeb>);
  rv.update_batch(&up, 1);
  EXPECT_EQ(rv.dominant_max(5, 5), 7);
  rv.check();

  // --- SWGS baseline ----------------------------------------------------
  SwgsStats stats;
  LisResult sw = swgs_lis_ranks(a, 42, &stats);
  EXPECT_EQ(sw.rank, lr.rank);
  EXPECT_GT(stats.total_checks, 0);
  EXPECT_EQ(swgs_wlis(a, w).dp, wr.dp);
  LisResult sw2;
  swgs_lis_ranks_into(a, 42, sw2);
  EXPECT_EQ(sw2.rank, lr.rank);
  WlisResult sw3;
  swgs_wlis_into(a, w, 42, ws, sw3);
  EXPECT_EQ(sw3.dp, wr.dp);
  rank_only_into<int64_t>(std::span<const int64_t>(a), TiesPolicy::kStrict,
                          ws.rank_space, ws.rank_scratch);
  EXPECT_EQ(ws.rank_space.n_distinct, 10);
  rank_space_into<int64_t>(std::span<const int64_t>(a), TiesPolicy::kStrict,
                           ws.rank_space, ws.rank_scratch);
  const std::vector<int64_t> image = ws.rank_space.rank;
  swgs_wlis_into(image, w, 42, ws, sw3);
  EXPECT_EQ(sw3.dp, wr.dp);
  DominanceOracle oracle(a);
  EXPECT_EQ(oracle.n(), 10);
  EXPECT_EQ(oracle.count_dominators(2), 2);
  oracle.erase(0);

  // --- vEB family -------------------------------------------------------
  VebTree set(64);
  set.batch_insert({3, 9, 27});
  EXPECT_EQ(*set.min(), 3u);
  MonoVeb mv(16);
  MonoVeb::Point pt{4, 11};
  mv.insert_staircase(&pt, 1);
  EXPECT_EQ(mv.max_below(5).score, 11);
  mv.check_staircase();

  // --- Solver / session API ---------------------------------------------
  Options opts;
  opts.deadline_ms = 60000;
  Solver solver(opts);
  EXPECT_EQ(solver.options().deadline_ms, 60000);
  LisResult s_lis;
  solver.solve_lis(a, s_lis);
  EXPECT_EQ(s_lis.rank, lr.rank);
  solver.solve_lis(std::span<const int64_t>(a), s_lis,
                   std::greater<int64_t>{});
  EXPECT_EQ(s_lis.k, 4);  // longest decreasing run of `a`
  LisFrontiers s_fr;
  solver.solve_lis_frontiers(a, s_fr);
  EXPECT_EQ(s_fr.frontier_flat, fr.frontier_flat);
  EXPECT_EQ(solver.lis_length(a), 4);
  WlisResult s_wlis;
  solver.solve_wlis(a, w, s_wlis);
  EXPECT_EQ(s_wlis.dp, wr.dp);
  Query queries[2];
  queries[0].a = a;
  queries[1].a = a;
  queries[1].w = w;
  QueryResult results[2];
  solver.solve_many(queries, results);
  EXPECT_EQ(results[0].k, lr.k);
  EXPECT_EQ(results[1].best, wr.best);

  // --- generators -------------------------------------------------------
  EXPECT_EQ(range_pattern(100, 10, 1).size(), 100u);
  EXPECT_EQ(line_pattern(100, 10, 2).size(), 100u);
  EXPECT_EQ(uniform_weights(100, 3).size(), 100u);
}

}  // namespace
}  // namespace parlis
