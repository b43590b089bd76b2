// Parallel range tree for 2D dominant-max queries (Sec. 4.1).
//
// Points are the WLIS objects viewed as (x = value-order position,
// y = input index) with mutable score = dp value (initially 0, set exactly
// once). The outer tree is a static segment tree over the value-sorted
// positions [0, n); every node owns the y-coordinates of the points in its
// position range, sorted ascending ("merge-sort tree" layout, one flat
// array per level). The inner structure per node is a *prefix-max Fenwick
// tree* over those sorted y's.
//
// DominantMax(qpos, qy) — max score over points with position < qpos and
// y < qy — decomposes [0, qpos) into O(log n) canonical nodes; in each, the
// max score over the y < qy prefix is a Fenwick prefix-max. The asymptotic
// bounds are the paper's (O(log^2 n) query, O(n log^2 n) work for Alg. 2,
// Thm. 4.1), but the constant factors are engineered well below the
// textbook layout's:
//
//  * No binary searches. y_by_pos is a permutation of [0, n), so a query's
//    prefix count at the (virtual) root is just min(qy, n); descending one
//    level refines it through a precomputed *bridge* table (fractional
//    cascading: bridge[s] = how many of a node's first s points fall in its
//    left child), one O(1) lookup per level instead of a per-node binary
//    search. Updates likewise use a precomputed per-level *rank* table
//    (rank[p] = index of point p's y inside its node's sorted block),
//    filled by the same bottom-up merge that builds the tree.
//  * Truncated bottom. Levels below node width 16 are not materialized:
//    width-8 canonical children and the final partial node are resolved by
//    a direct scan of (y, score) over at most 8 contiguous positions —
//    cheaper than three more Fenwick levels and a third of the memory.
//  * Arena-backed flat levels. Every level array (bridge, rank, Fenwick
//    slots) is one allocation from the tree's Arena (per-worker bump
//    cursors via LazyWorkerSlots, so construction has no scheduler side
//    effects); building allocates O(log n) blocks instead of one
//    make_unique per level, and teardown is wholesale.
//
// Update is a point score change that can only increase (dp values replace
// the initial 0), so the Fenwick slots use atomic fetch-max: a whole
// frontier updates in parallel with no locks. Models the RangeStructure
// concept (range_structure.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "parlis/util/arena.hpp"
#include "parlis/wlis/range_structure.hpp"

namespace parlis {

class RangeTreeMax {
 public:
  /// Empty tree (n() == 0); point it at a point set with rebuild().
  RangeTreeMax() = default;

  /// `y_by_pos[p]` is the y-coordinate (input index) of the point at
  /// value-order position p; it must be a permutation of [0, n).
  explicit RangeTreeMax(std::span<const int64_t> y_by_pos) {
    rebuild(y_by_pos);
  }

  /// Re-targets the tree at a new point set, resetting every score to 0.
  /// The previous build's arena chunks and merge scratch are recycled, so a
  /// same-size rebuild performs zero heap allocations.
  void rebuild(std::span<const int64_t> y_by_pos);

  // Level arrays hold plain pointers into arena_ chunks; the arena move
  // transfers chunk ownership without relocating them.
  RangeTreeMax(RangeTreeMax&&) noexcept = default;
  RangeTreeMax& operator=(RangeTreeMax&&) noexcept = default;

  int64_t n() const { return n_; }

  /// Max score over points with position in [0, qpos) and y < qy;
  /// 0 when there is none (the identity of Eq. (2)).
  int64_t dominant_max(int64_t qpos, int64_t qy) const;

  /// Batched queries: out[t] = dominant_max(qpos[t], qy[t]) for t < m.
  /// Groups of queries descend the levels in lockstep, so their (otherwise
  /// serial) bridge and Fenwick cache misses overlap — the way Alg. 2
  /// issues a whole frontier's queries at once. Parallel and const-safe.
  void dominant_max_batch(const int64_t* qpos, const int64_t* qy, int64_t m,
                          int64_t* out) const;

  /// Sets the score of the point at value-order position `pos` (whose
  /// y-coordinate is y_by_pos[pos]) to `score` (>= 0). Scores only grow:
  /// a lower re-publication is a no-op. Safe to call concurrently.
  void update(int64_t pos, int64_t score);

  /// RangeStructure batched update: m items with distinct positions (any
  /// order accepted here; the concept contract says sorted by y).
  void update_batch(const ScoreUpdate* updates, int64_t m);

 private:
  // Level d covers nodes of width_ >> d positions; levels run from the
  // virtual root (width bit_ceil(n), one node) down to width 16. A node's
  // sorted block occupies global slots [node_start, node_start + len).
  struct Level {
    int64_t width = 0;
    // bridge[node_start + s] = #points among the node's first s sorted
    // slots that belong to its left child (levels of width >= 32 only).
    const int32_t* bridge = nullptr;
    // rank[p] = sorted slot of point p inside its node's block, relative
    // to the block start (levels below the root only).
    const int32_t* rank = nullptr;
    // Fenwick prefix-max slots, one block per node (below the root only).
    std::atomic<int64_t>* fenwick = nullptr;
  };

  void rebuild_body(std::span<const int64_t> y_by_pos);
  static int64_t fenwick_prefix_max(const std::atomic<int64_t>* f,
                                    int64_t count);
  static void fenwick_update(std::atomic<int64_t>* f, int64_t len,
                             int64_t idx, int64_t score);
  void dominant_max_group(const int64_t* qpos, const int64_t* qy, int64_t g,
                          int64_t* out) const;
  void update_group(const ScoreUpdate* u, int64_t g);

  int64_t n_ = 0;
  Arena arena_;
  const int32_t* y_ = nullptr;             // y_by_pos (leaf scans)
  std::atomic<int64_t>* scores_ = nullptr;  // score by position (leaf scans)
  std::vector<Level> levels_;               // [0] = virtual root
  // Bottom-up merge + bridge-scan scratch, kept across rebuilds (capacity
  // reuse).
  std::vector<int32_t> build_cur_, build_nxt_, scan_scratch_;
};

static_assert(RangeStructure<RangeTreeMax>);

}  // namespace parlis
