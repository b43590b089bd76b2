// Dominance oracle for the SWGS baseline (Shen et al. 2022 [64]).
//
// A merge-sort tree over the input *index* order: each segment-tree node
// stores its objects sorted by (key, index), with a Fenwick tree of
// "alive" counts over that sorted order. The oracle is comparison-based —
// raw int64 values and their rank image (util/rank_space.hpp) produce
// bit-identical behavior — which is how generic key types reach this
// baseline: the caller compresses once (rank_space_into) and hands the
// rank span to the SWGS drivers. Supports, for an object i with key A_i, over
// the alive set:
//
//   count(i)        — # alive j with j < i and A_j < A_i       O(log^2 n)
//   kth(i, r)       — index of the r-th such j (1-based)       O(log^2 n)
//   erase(j)        — mark j dead (atomic; phase-concurrent)   O(log^2 n)
//
// This is the range structure SWGS pays O(log^2 n) per probe for, giving
// the O(n log^3 n)-whp total work of their wake-up scheme.
//
// Storage follows the WLIS range structures: every level's (values, idx,
// alive-Fenwick) triple is a flat array drawn from one Arena — no per-level
// make_unique — and the root level, which queries decompose past but never
// read, is not materialized at all (erase skips it too: one less Fenwick
// walk per deletion).
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "parlis/util/arena.hpp"

namespace parlis {

class DominanceOracle {
 public:
  /// `a` is any int64 sequence compared with `<` — raw values or the
  /// dense rank image of the caller's keys.
  explicit DominanceOracle(std::span<const int64_t> a);

  // Level arrays are plain pointers into arena chunks; moves transfer the
  // chunks without relocating them.
  DominanceOracle(DominanceOracle&&) noexcept = default;
  DominanceOracle& operator=(DominanceOracle&&) noexcept = default;

  int64_t n() const { return n_; }

  /// # alive j with j < i and a[j] < a[i].
  int64_t count_dominators(int64_t i) const;

  /// Index of the r-th (1-based, by value-then-index order per node walk)
  /// alive dominator of i. Requires 1 <= r <= count_dominators(i).
  int64_t kth_dominator(int64_t i, int64_t r) const;

  /// Marks j dead. Safe to call concurrently for distinct j, but not
  /// concurrently with count/kth (the SWGS rounds are phase-separated).
  void erase(int64_t i);

  /// Bytes the level arrays reserved from the arena (introspection hook).
  size_t pool_reserved_bytes() const { return arena_.reserved_bytes(); }

 private:
  // levels_[0] has width bit_ceil(n)/2 (the root's children — the root
  // itself is never a canonical node of any [0, i) decomposition);
  // levels_.back() has width 1.
  struct Level {
    int64_t width = 0;
    const int64_t* values = nullptr;          // per block: sorted values
    const int32_t* idx = nullptr;             // original index per entry
    std::atomic<int32_t>* alive = nullptr;    // Fenwick per block
  };

  // Fenwick over [0, len): prefix sum of first `count` entries.
  static int64_t fenwick_prefix(const std::atomic<int32_t>* f, int64_t count);
  static void fenwick_add(std::atomic<int32_t>* f, int64_t len, int64_t pos,
                          int32_t delta);
  // Smallest position with cumulative alive >= r (standard Fenwick walk).
  static int64_t fenwick_select(const std::atomic<int32_t>* f, int64_t len,
                                int64_t r);

  // Rank of (a_[i], i) within the block's sorted entries.
  int64_t entry_pos(const Level& lev, int64_t block_start, int64_t len,
                    int64_t i) const;

  int64_t n_;
  Arena arena_;
  std::vector<int64_t> a_;
  std::vector<Level> levels_;
};

}  // namespace parlis
