#include "parlis/wlis/wlis.hpp"

#include <algorithm>
#include <cassert>

#include "parlis/lis/lis.hpp"
#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/primitives.hpp"
#include "parlis/util/exec_context.hpp"
#include "parlis/util/failpoint.hpp"
#include "parlis/util/rank_space.hpp"
#include "parlis/wlis/range_structure.hpp"
#include "parlis/wlis/range_tree.hpp"
#include "parlis/wlis/range_veb.hpp"
#include "parlis/wlis/wlis_workspace.hpp"

namespace parlis {

namespace {

// Thin adapters binding a workspace to one RangeStruct flavour: the update
// side is the uniform RangeStructure batch API; only the query side differs
// (Appendix E tables vs. generic queries). The tree rebuilds in place
// (allocation-free when warm) or, on a value-cache hit, only resets its
// scores; the vEB variants are re-emplaced per solve.
struct TreeAdapter {
  RangeTreeMax& rs;
  explicit TreeAdapter(WlisWorkspace& ws) : rs(ws.tree) {
    if (ws.tree_ready) {
      rs.reset_scores();
    } else {
      rs.rebuild(ws.rank_space.order);
      ws.tree_ready = true;
    }
  }
};

struct VebAdapter {
  RangeVeb& rs;
  explicit VebAdapter(WlisWorkspace& ws)
      : rs(ws.veb.emplace(std::span<const int64_t>(ws.rank_space.order))) {}
};

// Like VebAdapter but with the Appendix E label tables: queries for input
// point j go through dominant_max_point(j).
struct VebTabulatedAdapter {
  RangeVeb& rs;
  explicit VebTabulatedAdapter(WlisWorkspace& ws)
      : rs(ws.veb.emplace(std::span<const int64_t>(ws.rank_space.order))) {
    rs.precompute_query_labels(ws.rank_space.qpos);  // indexed by y already
  }
  int64_t dominant_max_point(int64_t j) const {
    return rs.dominant_max_point(j);
  }
};

// The round engine of Alg. 2. `a` is whatever int64 sequence the frontiers
// and rank space describe — raw values on the classic path, a rank image on
// the generic-key path; the rounds only consume comparisons through the
// rank-space arrays, so they cannot tell the difference. When
// `rank_space_ready`, ws.rank_space already describes `a` (the caller
// compressed the original keys) and a cache miss skips re-deriving it.
template <typename Adapter>
void run_wlis(std::span<const int64_t> a, std::span<const int64_t> w,
              WlisWorkspace& ws, WlisResult& res, bool rank_space_ready) {
  int64_t n = static_cast<int64_t>(a.size());
  ws.cache_values(a, rank_space_ready);
  if (!ws.frontiers_ready) {
    // The frontiers run on the rank image: it orders like `a`, and its
    // values all lie below n, so n is a sentinel no input can reach (raw
    // values may hold INT64_MAX).
    lis_frontiers_into<int64_t>(std::span<const int64_t>(ws.rank_space.rank),
                                ws.frontiers, ws.tournament, n);
    ws.frontiers_ready = true;
  }
  Adapter ad(ws);
  const RankSpace& rsp = ws.rank_space;
  res.dp.assign(n, 0);
  res.k = ws.frontiers.k;
  const LisFrontiers& fr = ws.frontiers;
  // Every object appears in exactly one frontier, so n-sized buffers serve
  // all rounds: the loop allocates nothing.
  ws.batch.resize(n);
  ScoreUpdate* batch = ws.batch.data();
  constexpr bool kBatchedQueries =
      requires { ad.rs.dominant_max_batch(nullptr, nullptr, 0, nullptr); } &&
      !requires { ad.dominant_max_point(int64_t{0}); };
  if constexpr (kBatchedQueries) {
    ws.qpos_buf.resize(n);
    ws.qres.resize(n);
  }
  for (int32_t r = 1; r <= fr.k; r++) {
    // Round boundary: cancellation/deadline poll + fault-injection site.
    // A throw here unwinds through wlis_dispatch's cache-invalidation
    // chokepoint, so a half-updated tree is never mistaken for warm state.
    internal::poll_cancellation();
    PARLIS_FAILPOINT("wlis.round");
    const int64_t* f = fr.frontier_flat.data() + fr.frontier_offset[r - 1];
    int64_t fn = fr.frontier_offset[r] - fr.frontier_offset[r - 1];
    // Line 16: all dp values of the frontier in parallel. The frontier is
    // the y (= index) array of its own queries, so batched structures get
    // the whole round's queries in one level-synchronous call.
    if constexpr (kBatchedQueries) {
      parallel_for(0, fn, [&](int64_t t) { ws.qpos_buf[t] = rsp.qpos[f[t]]; });
      ad.rs.dominant_max_batch(ws.qpos_buf.data(), f, fn, ws.qres.data());
      parallel_for(0, fn, [&](int64_t t) {
        int64_t j = f[t];
        res.dp[j] = w[j] + std::max<int64_t>(0, ws.qres[t]);
      });
    } else {
      parallel_for(0, fn, [&](int64_t t) {
        int64_t j = f[t];
        int64_t q;
        if constexpr (requires { ad.dominant_max_point(j); }) {
          q = ad.dominant_max_point(j);  // Appendix E tables
        } else {
          q = ad.rs.dominant_max(rsp.qpos[j], j);
        }
        res.dp[j] = w[j] + std::max<int64_t>(0, q);
      });
    }
    // Lines 17-18: publish the new scores as one batch. The frontier is
    // sorted by index (= by y), satisfying the concept's batch contract.
    parallel_for(0, fn,
                 [&](int64_t t) { batch[t] = {rsp.pos[f[t]], res.dp[f[t]]}; });
    ad.rs.update_batch(batch, fn);
  }
  res.best = reduce_index<int64_t>(
      0, n, 0, [&](int64_t i) { return res.dp[i]; },
      [](int64_t x, int64_t y) { return std::max(x, y); });
}

void wlis_dispatch(std::span<const int64_t> a, std::span<const int64_t> w,
                   WlisWorkspace& ws, WlisResult& out, WlisStructure structure,
                   bool rank_space_ready) {
  assert(a.size() == w.size());
  out.dp.clear();
  out.best = 0;
  out.k = 0;
  if (a.empty()) return;
  // Failure chokepoint: any throw out of the round engine (cancellation,
  // deadline, injected fault, allocation failure mid-rebuild) invalidates
  // the value cache before propagating, so the next solve on this
  // workspace rebuilds everything from scratch — bit-identical to cold.
  try {
    switch (structure) {
      case WlisStructure::kRangeTree:
        run_wlis<TreeAdapter>(a, w, ws, out, rank_space_ready);
        return;
      case WlisStructure::kRangeVeb:
        run_wlis<VebAdapter>(a, w, ws, out, rank_space_ready);
        return;
      case WlisStructure::kRangeVebTabulated:
        run_wlis<VebTabulatedAdapter>(a, w, ws, out, rank_space_ready);
        return;
    }
  } catch (...) {
    ws.invalidate_cache();
    throw;
  }
}

}  // namespace

bool WlisWorkspace::cache_values(std::span<const int64_t> a,
                                 bool rank_space_ready) {
  return key.match_or_rebuild(a, [&] {
    invalidate_cache();
    if (!rank_space_ready) {
      rank_space_into<int64_t>(a, TiesPolicy::kStrict, rank_space,
                               rank_scratch);
    }
  });
}

void wlis_into(std::span<const int64_t> a, std::span<const int64_t> w,
               WlisWorkspace& ws, WlisResult& out, WlisStructure structure) {
  wlis_dispatch(a, w, ws, out, structure, /*rank_space_ready=*/false);
}

void wlis_compressed_into(std::span<const int64_t> ranks,
                          std::span<const int64_t> w, WlisWorkspace& ws,
                          WlisResult& out, WlisStructure structure) {
  // Pin the cross-call contract: the rank space consulted by the rounds
  // must be the one that produced `ranks` — a span from any other
  // RankSpace would silently route updates through stale pos/qpos.
  assert(ranks.data() == ws.rank_space.rank.data() &&
         ranks.size() == ws.rank_space.rank.size() &&
         "ws.rank_space must be the rank_space_into output describing ranks");
  wlis_dispatch(ranks, w, ws, out, structure, /*rank_space_ready=*/true);
}

WlisResult wlis(std::span<const int64_t> a, std::span<const int64_t> w,
                WlisStructure structure) {
  WlisResult res;
  WlisWorkspace ws;
  wlis_into(a, w, ws, res, structure);
  return res;
}

std::vector<int64_t> wlis_sequence(std::span<const int64_t> a,
                                   std::span<const int64_t> w,
                                   const WlisResult& result) {
  const std::vector<int64_t>& dp = result.dp;
  if (dp.empty()) return {};
  // Start at the leftmost argmax (any works; leftmost is deterministic).
  int64_t cur = 0;
  for (size_t i = 1; i < dp.size(); i++) {
    if (dp[i] > dp[cur]) cur = static_cast<int64_t>(i);
  }
  std::vector<int64_t> seq = {cur};
  // Follow decisions backwards: dp[cur] = w[cur] + max(0, dp[j]) for some
  // j < cur with a[j] < a[cur]; stop when the tail contribution is <= 0.
  while (dp[cur] - w[cur] > 0) {
    int64_t target = dp[cur] - w[cur];
    int64_t j = cur - 1;
    while (j >= 0 && !(dp[j] == target && a[j] < a[cur])) j--;
    assert(j >= 0 && "dp table inconsistent with inputs");
    seq.push_back(j);
    cur = j;
  }
  std::reverse(seq.begin(), seq.end());
  return seq;
}

}  // namespace parlis
