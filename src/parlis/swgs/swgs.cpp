#include "parlis/swgs/swgs.hpp"

#include <algorithm>
#include <cassert>

#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/primitives.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/swgs/dominance_oracle.hpp"
#include "parlis/util/exec_context.hpp"
#include "parlis/util/failpoint.hpp"
#include "parlis/util/rank_space.hpp"
#include "parlis/wlis/range_tree.hpp"
#include "parlis/wlis/wlis_workspace.hpp"

namespace parlis {

namespace {

// One wake-up-scheme execution writing ranks into `rank` (resized to n) and
// the round count into `k`; returns the probe count. `a` is any int64
// sequence — raw values or a rank image (util/rank_space.hpp): the oracle
// is comparison-based and a rank reduction is order-isomorphic, so both
// produce bit-identical rounds and certificates. That is how any key type
// reaches this baseline: the caller compresses once (rank_space_into) and
// passes the rank image here. Each round's frontier (sorted by index) is
// reported through on_frontier(round, indices).
template <typename OnFrontier>
int64_t run_rounds(std::span<const int64_t> a, uint64_t seed,
                   std::vector<int32_t>& rank, int32_t& k,
                   const OnFrontier& on_frontier) {
  int64_t n = static_cast<int64_t>(a.size());
  rank.assign(n, 0);
  k = 0;
  if (n == 0) return 0;
  DominanceOracle oracle(a);
  // subscribers[j]: sleeping objects whose certificate is j.
  std::vector<std::vector<int32_t>> subscribers(n);
  std::vector<int64_t> awake(n);
  parallel_for(0, n, [&](int64_t i) { awake[i] = i; });
  int32_t round = 0;
  int64_t total_checks = 0;
  while (!awake.empty()) {
    // Wake-up-round boundary: cancellation/deadline poll + fault site.
    internal::poll_cancellation();
    PARLIS_FAILPOINT("swgs.round");
    round++;
    int64_t m = static_cast<int64_t>(awake.size());
    total_checks += m;
    // Probe every awake object: ready (no alive dominator) -> frontier;
    // otherwise sample a random alive dominator and subscribe to it.
    std::vector<int64_t> cert(m, -1);
    parallel_for(0, m, [&](int64_t t) {
      int64_t i = awake[t];
      int64_t c = oracle.count_dominators(i);
      if (c > 0) {
        int64_t r = 1 + static_cast<int64_t>(
                            uniform(seed + round, static_cast<uint64_t>(i),
                                    static_cast<uint64_t>(c)));
        cert[t] = oracle.kth_dominator(i, r);
      }
    });
    std::vector<int64_t> fidx =
        pack_index(m, [&](int64_t t) { return cert[t] < 0; });
    std::vector<int64_t> frontier(fidx.size());
    parallel_for(0, static_cast<int64_t>(fidx.size()),
                 [&](int64_t t) { frontier[t] = awake[fidx[t]]; });
    // Record subscriptions (grouped sequentially; each object subscribes to
    // exactly one certificate per probe).
    for (int64_t t = 0; t < m; t++) {
      if (cert[t] >= 0) {
        subscribers[cert[t]].push_back(static_cast<int32_t>(awake[t]));
      }
    }
    // Process the frontier.
    parallel_for(0, static_cast<int64_t>(frontier.size()), [&](int64_t t) {
      rank[frontier[t]] = round;
      oracle.erase(frontier[t]);
    });
    on_frontier(round, frontier);
    // Wake the subscribers of processed objects.
    std::vector<int64_t> next;
    for (int64_t f : frontier) {
      for (int32_t s : subscribers[f]) next.push_back(s);
      subscribers[f].clear();
    }
    sort_inplace(next);
    awake = std::move(next);
  }
  k = round;
  return total_checks;
}

}  // namespace

void swgs_lis_ranks_into(std::span<const int64_t> a, uint64_t seed,
                         LisResult& out, SwgsStats* stats) {
  // No reduction needed: the oracle compares elements, never ranks them.
  int64_t checks = run_rounds(
      a, seed, out.rank, out.k, [](int32_t, const std::vector<int64_t>&) {});
  if (stats != nullptr) stats->total_checks = checks;
}

LisResult swgs_lis_ranks(std::span<const int64_t> a, uint64_t seed,
                         SwgsStats* stats) {
  LisResult res;
  swgs_lis_ranks_into(a, seed, res, stats);
  return res;
}

void swgs_wlis_into(std::span<const int64_t> a, std::span<const int64_t> w,
                    uint64_t seed, WlisWorkspace& ws, WlisResult& out,
                    SwgsStats* stats) {
  assert(a.size() == w.size());
  int64_t n = static_cast<int64_t>(a.size());
  out.dp.assign(n, 0);
  out.best = 0;
  out.k = 0;
  if (stats != nullptr) stats->total_checks = 0;
  if (n == 0) return;
  // The same rank-space pass and dominant-max tree as Alg. 2.
  rank_space_into<int64_t>(a, TiesPolicy::kStrict, ws.rank_space,
                           ws.rank_scratch);
  const RankSpace& rsp = ws.rank_space;
  ws.tree.rebuild(rsp.order);
  ws.batch.resize(n);  // frontiers partition [0, n): reused across rounds
  int64_t checks = run_rounds(
      a, seed, ws.swgs_rank, out.k,
      [&](int32_t, const std::vector<int64_t>& frontier) {
        int64_t fn = static_cast<int64_t>(frontier.size());
        parallel_for(0, fn, [&](int64_t t) {
          int64_t j = frontier[t];
          int64_t q = ws.tree.dominant_max(rsp.qpos[j], j);
          out.dp[j] = internal::checked_dp(w[j], q, j);
        });
        parallel_for(0, fn, [&](int64_t t) {
          ws.batch[t] = {rsp.pos[frontier[t]], out.dp[frontier[t]]};
        });
        ws.tree.update_batch(ws.batch.data(), fn);
      });
  if (stats != nullptr) stats->total_checks = checks;
  out.best = reduce_index<int64_t>(
      0, n, 0, [&](int64_t i) { return out.dp[i]; },
      [](int64_t x, int64_t y) { return std::max(x, y); });
}

WlisResult swgs_wlis(std::span<const int64_t> a, std::span<const int64_t> w,
                     uint64_t seed, SwgsStats* stats) {
  WlisResult res;
  WlisWorkspace ws;
  swgs_wlis_into(a, w, seed, ws, res, stats);
  return res;
}

}  // namespace parlis
