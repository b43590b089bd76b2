// Reusable scratch state for weighted LIS: every buffer and structure a
// solve needs, owned by the caller. Alg. 2 (wlis_into), the SWGS WLIS
// baseline (swgs_wlis_into) and parlis::Solver's sequential pass
// (wlis_sweep.hpp) all draw on it; the Solver holds one per session (plus
// one per worker for batched serving). After a warm-up solve, repeated
// same-size solves through the same workspace perform zero heap
// allocations — the tournament storage, frontier buffers, rank-space
// arrays, round batches, the range tree's arena and the pass's Fenwick
// tree are all recycled.
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
#include "parlis/wlis/range_structure.hpp"
#include "parlis/wlis/range_tree.hpp"
#include "parlis/wlis/range_veb.hpp"
#include "parlis/wlis/wlis_sweep.hpp"

namespace parlis {

struct WlisWorkspace {
  // Alg. 1 phase: tournament-tree storage + per-round frontiers.
  TournamentStorage<int64_t> tournament;
  LisFrontiers frontiers;

  // Rank-space view of the value sequence (util/rank_space.hpp): order is
  // the y_by_pos permutation the range structures build over, pos its
  // inverse (update positions), qpos the x-prefix of each point's
  // dominant-max query. Shared by Alg. 2, the SWGS driver, and the
  // Solver's int64 weighted solves — one compression pass per solve.
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

  // The Solver's pass: its Fenwick tree over the ranks.
  WlisSweepScratch sweep;

  // Value-sequence cache. The rank space, the frontiers and the range
  // tree's rank/bridge tables are pure functions of the value array `a`;
  // the weights only enter the dp. A session serving repeated queries over
  // a hot value sequence (same series, different weight models) therefore
  // skips whatever preparation the cache holds: cache_values checks `a`
  // against it — size, then the 64-bit content hash, then (only on a hash
  // match, so collisions stay correct) a full std::equal. Each level is
  // built on demand and promises only itself:
  //  * cache_valid:     rank_space and cached_hash describe cached_a (all
  //                     the Solver's pass needs);
  //  * frontiers_ready: so do the frontiers (built by wlis_into);
  //  * tree_ready:      so do the tree's tables (built by wlis_into).
  // The last two imply the first. Anything that clobbers any level for a
  // different sequence must call invalidate_cache().
  std::vector<int64_t> cached_a;
  uint64_t cached_hash = 0;  // content_hash64(cached_a) while cache_valid
  bool cache_valid = false;
  bool frontiers_ready = false;
  bool tree_ready = false;

  // The one sanctioned way to poison the cache: every site that overwrites
  // frontiers / rank_space / tree tables out-of-band (SWGS reusing the
  // workspace, tests clobbering state) goes through this, so the invariant
  // above has a single chokepoint to audit.
  void invalidate_cache() {
    cache_valid = false;
    frontiers_ready = false;
    tree_ready = false;
  }

  /// Keys the cache to `a`, whose content_hash64 is `hash`. Returns true
  /// when it already described `a` (every built level is kept). Otherwise
  /// invalidates it, compresses `a` (kStrict) into rank_space unless the
  /// caller already did (`rank_space_ready`), and re-keys it to `a` with
  /// only cache_valid set. Exception-safe: a throw leaves it invalid.
  bool cache_values(std::span<const int64_t> a, uint64_t hash,
                    bool rank_space_ready = false);

  /// Measured heap bytes this workspace holds: vector capacities, the
  /// range tree's reserved arena chunks (tracked at chunk grant), and the
  /// vEB pool when a vEB-backed solve left one emplaced. This is the
  /// serving layer's per-tenant eviction accounting — evicting the owning
  /// entry returns exactly these bytes.
  size_t resident_bytes() const {
    size_t b = tournament.resident_bytes() + frontiers.resident_bytes() +
               rank_space.resident_bytes() + rank_scratch.resident_bytes() +
               vec_bytes(batch) + vec_bytes(qpos_buf) + vec_bytes(qres) +
               vec_bytes(swgs_rank) + sweep.resident_bytes() +
               vec_bytes(cached_a) + tree.pool_reserved_bytes();
    if (veb.has_value()) b += veb->pool_reserved_bytes();
    return b;
  }
};

}  // namespace parlis
