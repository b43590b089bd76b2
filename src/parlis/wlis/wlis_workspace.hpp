// Reusable scratch state for the paper's weighted LIS rounds: every buffer
// and structure a solve needs, owned by the caller. Alg. 2 (wlis_into) and
// the SWGS WLIS baseline (swgs_wlis_into) draw on it; parlis::Solver does
// not (it keeps its own rank space and Fenwick scratch, api/solver.hpp).
// After a warm-up solve, repeated same-size solves through the same
// workspace perform zero heap allocations — the tournament storage,
// frontier buffers, rank-space arrays, round batches and the range tree's
// arena are all recycled.
//
// The vEB-backed structures (kRangeVeb / kRangeVebTabulated) are
// reconstructed per solve (their inner Mono-vEB staircases allocate during
// batch refinement by design), so only the kRangeTree backend — the
// practical default — has the allocation-free steady state.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "parlis/lis/lis.hpp"
#include "parlis/lis/tournament_tree.hpp"
#include "parlis/util/rank_space.hpp"
#include "parlis/util/value_cache_key.hpp"
#include "parlis/wlis/range_structure.hpp"
#include "parlis/wlis/range_tree.hpp"
#include "parlis/wlis/range_veb.hpp"

namespace parlis {

struct WlisWorkspace {
  // Alg. 1 phase: tournament-tree storage + per-round frontiers.
  TournamentStorage<int64_t> tournament;
  LisFrontiers frontiers;

  // Rank-space view of the value sequence (util/rank_space.hpp): order is
  // the y_by_pos permutation the range structures build over, pos its
  // inverse (update positions), qpos the x-prefix of each point's
  // dominant-max query. Shared by Alg. 2 and the SWGS driver — one
  // compression pass per solve.
  RankSpace rank_space;
  RankSpaceScratch rank_scratch;

  // Round buffers: frontiers partition [0, n), so n-sized spans serve every
  // round without clearing.
  std::vector<ScoreUpdate> batch;
  std::vector<int64_t> qpos_buf, qres;

  // Range structures. The tree persists and is rebuilt in place; the vEB
  // variants are re-emplaced per solve.
  RangeTreeMax tree;
  std::optional<RangeVeb> veb;

  // SWGS: round-rank scratch for swgs_wlis_into (ranks are not part of the
  // weighted result but drive the rounds).
  std::vector<int32_t> swgs_rank;

  // Value-sequence cache. The rank space, the frontiers and the range
  // tree's rank/bridge tables are pure functions of the value array `a`;
  // the weights only enter the dp. Repeated solves over a hot value
  // sequence (same series, different weight models) therefore skip
  // whatever preparation the cache holds: cache_values checks `a` against
  // the key (util/value_cache_key.hpp: the size, then equality). Each level
  // is built on demand and promises only itself:
  //  * key.valid:       rank_space describes key.values;
  //  * frontiers_ready: so do the frontiers (built by wlis_into);
  //  * tree_ready:      so do the tree's tables (built by wlis_into).
  // The last two imply the first. Anything that clobbers any level for a
  // different sequence must call invalidate_cache().
  ValueCacheKey key;
  bool frontiers_ready = false;
  bool tree_ready = false;

  // The one sanctioned way to poison the cache: every site that overwrites
  // frontiers / rank_space / tree tables out-of-band (SWGS reusing the
  // workspace, tests clobbering state) goes through this, so the invariant
  // above has a single chokepoint to audit.
  void invalidate_cache() {
    key.valid = false;
    frontiers_ready = false;
    tree_ready = false;
  }

  /// Keys the cache to `a`. Returns true when it already described `a`
  /// (every built level is kept). Otherwise invalidates it, compresses `a`
  /// (kStrict) into rank_space unless the caller already did
  /// (`rank_space_ready`), and re-keys it to `a` with only key.valid set.
  /// Exception-safe: a throw leaves it invalid.
  bool cache_values(std::span<const int64_t> a, bool rank_space_ready = false);

  /// Measured heap bytes this workspace holds: vector capacities, the
  /// range tree's reserved arena chunks (tracked at chunk grant), and the
  /// vEB pool when a vEB-backed solve left one emplaced.
  size_t resident_bytes() const {
    size_t b = tournament.resident_bytes() + frontiers.resident_bytes() +
               rank_space.resident_bytes() + rank_scratch.resident_bytes() +
               vec_bytes(batch) + vec_bytes(qpos_buf) + vec_bytes(qres) +
               vec_bytes(swgs_rank) + key.resident_bytes() +
               tree.pool_reserved_bytes();
    if (veb.has_value()) b += veb->pool_reserved_bytes();
    return b;
  }
};

}  // namespace parlis
