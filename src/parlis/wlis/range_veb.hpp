// Range-vEB tree (Sec. 4.2, Alg. 3): the two-level structure whose outer
// tree is a static segment tree over value-sorted positions and whose inner
// trees are Mono-vEB staircases over *relabeled* y-coordinates
// (Appendix E): each node relabels its points' y's to [0, |S_v|), so the
// inner universes sum to O(n log n) space.
//
// DominantMax decomposes the x-prefix into O(log n) canonical nodes and asks
// each inner Mono-vEB for the predecessor of the (relabeled) query y — one
// O(log log n) Pred per node. Update routes each frontier point to its
// O(log n) ancestor nodes, refines each per-node batch to the staircase,
// and applies CoveredBy + BatchDelete + BatchInsert (Thm. 1.2 bounds).
// Update-side labels come from per-level *rank tables* filled at
// construction (each point's slot inside its node's sorted-y block — the
// same bottom-up merge that builds the levels pays for them), so routing a
// point is an O(1) lookup per level, not a binary search; only the generic
// query path still relabels by binary search (the Appendix E label tables
// of precompute_query_labels remove it for point queries).
//
// The outer tree is truncated at both ends. Stored levels are exactly the
// queried ones — node widths from bit_ceil(n)/2 down to kLeafWidth: the
// root is never a canonical node of a prefix decomposition (storing it
// would route every update through the single largest Mono-vEB for
// nothing), and the sub-leaf remainder of a query (< kLeafWidth positions)
// is a direct linear scan over per-position published scores, mirroring
// the range tree's truncated bottom. That removes O(log kLeafWidth) level
// passes from every update round and every query descent.
//
// Storage: one Arena backs the whole structure — the per-level sorted-y
// arrays and every inner Mono-vEB (nodes and score tables) — so
// construction performs O(log n) chunk allocations instead of one per inner
// tree, and teardown is wholesale. The per-round update machinery (block
// grouping, relabeled point batches) runs in scratch buffers sized once at
// construction: steady-state rounds allocate only inside the inner trees'
// batch refinement. Models the RangeStructure concept.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "parlis/util/arena.hpp"
#include "parlis/veb/mono_veb.hpp"
#include "parlis/wlis/range_structure.hpp"

namespace parlis {

class RangeVeb {
 public:
  /// `y_by_pos[p]` is the y-coordinate of the point at value-order
  /// position p; it must be a permutation of [0, n).
  explicit RangeVeb(std::span<const int64_t> y_by_pos);

  // The arena lives behind a stable pointer, so moves keep every inner
  // tree's pool reference valid.
  RangeVeb(RangeVeb&&) noexcept = default;
  RangeVeb& operator=(RangeVeb&&) noexcept = default;

  int64_t n() const { return n_; }

  /// Max score over points with position in [0, qpos) and y < qy; 0 if none.
  int64_t dominant_max(int64_t qpos, int64_t qy) const;

  /// Batch score update: items (pos, score) with distinct positions, sorted
  /// by y-coordinate ascending. Each position is updated at most once over
  /// the structure's lifetime (WLIS sets each dp exactly once).
  using Item = ScoreUpdate;
  void update_batch(const ScoreUpdate* batch, int64_t m);
  void update(const std::vector<Item>& batch) {
    update_batch(batch.data(), static_cast<int64_t>(batch.size()));
  }

  /// Testing hook: validates every inner staircase.
  void check() const;

  /// Appendix E per-point label tables: precomputes, for every point j, the
  /// relabeled query label in each canonical node of its dominant-max
  /// decomposition (x-prefix qpos_by_y[j], y-bound y of point j). After
  /// this, dominant_max_point(j) answers j's WLIS query with O(1) label
  /// lookups — one Pred per canonical node, no binary searches — matching
  /// the paper's O(log n log log n) query bound.
  void precompute_query_labels(std::span<const int64_t> qpos_by_y);

  /// Dominant-max for input point j (y-coordinate j), using the tables.
  /// Requires precompute_query_labels() and that j's query is exactly
  /// (qpos_by_y[j], j).
  int64_t dominant_max_point(int64_t j) const;

 private:
  /// Width of the narrowest stored level; remainders below it are served by
  /// the direct scan. One cache line of y's — the scan is cheaper than the
  /// level bookkeeping it replaces.
  static constexpr int64_t kLeafWidth = 64;

  struct Level {
    int64_t width = 0;
    const int64_t* ys = nullptr;   // per node block: sorted y's (arena)
    // rank[p] = slot of the point at value-order position p inside its
    // block's sorted y's, relative to the block start (arena): the O(1)
    // update-side label.
    const int32_t* rank = nullptr;
    std::vector<MonoVeb> inner;    // one Mono-vEB per block (shared pool)
  };

  int64_t n_;
  std::unique_ptr<Arena> arena_;  // levels' ys + all inner trees
  // Queried levels only, widest first: widths bit_ceil(n)/2 .. kLeafWidth.
  std::vector<Level> levels_;
  // Truncated-bottom scan tables (arena): y-coordinate per value-order
  // position, and the last published score per position (0 = none yet).
  const int64_t* y_pos_ = nullptr;
  int64_t* score_pos_ = nullptr;
  // Appendix E tables: labels_[d * n + j] is point j's query label in the
  // canonical node consumed at descent step d (-1 = no canonical node
  // there). qpos_ mirrors the argument of precompute_query_labels.
  std::vector<int32_t> labels_;
  std::vector<int64_t> qpos_;
  // Reused update_batch scratch (sized n at construction, clobbered per
  // round): packed (block id, item index) sort keys + merge-sort buffer,
  // relabeled per-block point batches, and group-boundary extraction.
  std::vector<uint64_t> sort_keys_;
  std::vector<uint64_t> sort_buf_;
  std::vector<MonoVeb::Point> pts_;
  std::vector<int64_t> group_pos_;
  std::vector<int64_t> group_start_;
};

static_assert(RangeStructure<RangeVeb>);

}  // namespace parlis
