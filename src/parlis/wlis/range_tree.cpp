#include "parlis/wlis/range_tree.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/primitives.hpp"
#include "parlis/util/failpoint.hpp"

namespace parlis {

namespace {

// Final partial nodes (and width-8 canonical children) are scanned
// directly; the smallest materialized level therefore has width 16.
constexpr int64_t kLeafWidth = 8;
constexpr int64_t kLeafParentWidth = 2 * kLeafWidth;

// bridge[i] = cnt + #j in [lo, i) with order[j] < mid.
void write_bridge_run(const int32_t* order, int64_t lo, int64_t hi,
                      int32_t mid, int32_t cnt, int32_t* bridge) {
  for (int64_t i = lo; i < hi; i++) {
    bridge[i] = cnt;
    cnt += order[i] < mid ? 1 : 0;
  }
}

// Per-block exclusive count of "position falls in the left child": the
// bridge table of one level. When there are few blocks (the top levels —
// ultimately one block of size n), parallelism must come from inside the
// block via a hand-rolled two-pass scan whose block sums live in the
// caller's scratch (so warm rebuilds never allocate); with many blocks the
// parallel loop over blocks already saturates the pool and each block
// scans sequentially.
void fill_bridges(int64_t n, int64_t width, const int32_t* order,
                  int32_t* bridge, std::vector<int32_t>& sums) {
  int64_t nblocks = (n + width - 1) / width;
  if (nblocks <= 8) {
    constexpr int64_t kBlock = 4096;
    for (int64_t b = 0; b < nblocks; b++) {
      int64_t lo = b * width;
      int64_t len = std::min(n, lo + width) - lo;
      int32_t mid = static_cast<int32_t>(lo + width / 2);
      int64_t nb = (len + kBlock - 1) / kBlock;
      if (nb <= 1) {
        write_bridge_run(order, lo, lo + len, mid, 0, bridge);
        continue;
      }
      if (static_cast<int64_t>(sums.size()) < nb) sums.resize(nb);
      parallel_for(0, nb, [&](int64_t blk) {
        int64_t s = lo + blk * kBlock, e = std::min(lo + len, s + kBlock);
        int32_t c = 0;
        for (int64_t i = s; i < e; i++) c += order[i] < mid ? 1 : 0;
        sums[blk] = c;
      });
      int32_t total = 0;
      for (int64_t blk = 0; blk < nb; blk++) {
        int32_t c = sums[blk];
        sums[blk] = total;
        total += c;
      }
      parallel_for(0, nb, [&](int64_t blk) {
        int64_t s = lo + blk * kBlock, e = std::min(lo + len, s + kBlock);
        write_bridge_run(order, s, e, mid, sums[blk], bridge);
      });
    }
    return;
  }
  parallel_for(0, nblocks, [&](int64_t b) {
    int64_t lo = b * width;
    int64_t hi = std::min(n, lo + width);
    int32_t mid = static_cast<int32_t>(lo + width / 2);
    write_bridge_run(order, lo, hi, mid, 0, bridge);
  });
}

}  // namespace

void RangeTreeMax::rebuild(std::span<const int64_t> y_by_pos) {
  n_ = static_cast<int64_t>(y_by_pos.size());
  // Recycle the previous build wholesale: the arena keeps its chunks (the
  // allocation sequence below is repeated from the calling thread, so a
  // same-size rebuild refills from them exactly), and levels_ / the merge
  // scratch shrink or grow within capacity.
  arena_.reset();
  levels_.clear();
  y_ = nullptr;
  scores_ = nullptr;
  if (n_ == 0) return;
  try {
    rebuild_body(y_by_pos);
  } catch (...) {
    // An allocation failed mid-carve (real OOM or the "rangetree.rebuild" /
    // "arena.chunk_alloc" failpoints): half-filled levels must never look
    // queryable, so fall to the defined empty state. The next rebuild on
    // this object starts from scratch — bit-identical to a cold tree.
    n_ = 0;
    levels_.clear();
    y_ = nullptr;
    scores_ = nullptr;
    arena_.reset();
    throw;
  }
}

void RangeTreeMax::rebuild_body(std::span<const int64_t> y_by_pos) {
  PARLIS_FAILPOINT_OOM("rangetree.rebuild");
  int32_t* y = arena_.create_array_uninit<int32_t>(n_);
  parallel_for(0, n_, [&](int64_t p) {
    assert(y_by_pos[p] >= 0 && y_by_pos[p] < n_ &&
           "y_by_pos must be a permutation of [0, n)");
    y[p] = static_cast<int32_t>(y_by_pos[p]);
  });
  y_ = y;
  scores_ = arena_.create_array<std::atomic<int64_t>>(n_);  // zeroed
  int64_t root_width =
      static_cast<int64_t>(std::bit_ceil(static_cast<uint64_t>(n_)));
  if (root_width < kLeafParentWidth) return;  // scans resolve everything

  // Levels from the virtual root down to width 16. The root is never a
  // canonical node (queries always descend at least once), so it carries a
  // bridge table only; width-16 nodes have width-8 children resolved by
  // scans, so they carry no bridge.
  int64_t nlevels = 0;
  for (int64_t w = root_width; w >= kLeafParentWidth; w /= 2) nlevels++;
  levels_.assign(nlevels, Level{});
  for (int64_t d = 0; d < nlevels; d++) {
    Level& lev = levels_[d];
    lev.width = root_width >> d;
    if (d > 0) {
      lev.fenwick = arena_.create_array<std::atomic<int64_t>>(n_);  // zeroed
    }
  }

  // Bottom-up merge: `cur` holds, per node block of the current width, the
  // block's positions sorted by y ("pos_by_slot"). Width-16 blocks are
  // sorted directly; each coarser level merges adjacent blocks. The sorted
  // orders themselves are transient — only the rank scatter and the bridge
  // counts derived from them persist.
  std::vector<int32_t>& cur = build_cur_;
  std::vector<int32_t>& nxt = build_nxt_;
  cur.resize(n_);
  nxt.resize(n_);
  int64_t nb16 = (n_ + kLeafParentWidth - 1) / kLeafParentWidth;
  parallel_for(0, nb16, [&](int64_t b) {
    int64_t lo = b * kLeafParentWidth;
    int64_t hi = std::min(n_, lo + kLeafParentWidth);
    for (int64_t p = lo; p < hi; p++) cur[p] = static_cast<int32_t>(p);
    // Insertion sort by y over <= 16 entries.
    for (int64_t i = lo + 1; i < hi; i++) {
      int32_t v = cur[i];
      int64_t j = i;
      while (j > lo && y[cur[j - 1]] > y[v]) {
        cur[j] = cur[j - 1];
        j--;
      }
      cur[j] = v;
    }
  });
  auto fill_level = [&](int64_t d, const std::vector<int32_t>& order) {
    Level& lev = levels_[d];
    if (d > 0) {
      int32_t* rank = arena_.create_array_uninit<int32_t>(n_);
      int64_t mask = lev.width - 1;
      parallel_for(0, n_, [&](int64_t i) {
        rank[order[i]] = static_cast<int32_t>(i & mask);
      });
      lev.rank = rank;
    }
    if (lev.width >= 2 * kLeafParentWidth) {
      int32_t* bridge = arena_.create_array_uninit<int32_t>(n_);
      fill_bridges(n_, lev.width, order.data(), bridge, scan_scratch_);
      lev.bridge = bridge;
    }
  };
  fill_level(nlevels - 1, cur);
  for (int64_t d = nlevels - 2; d >= 0; d--) {
    int64_t w = levels_[d].width;
    int64_t half = w / 2;
    int64_t nblocks = (n_ + w - 1) / w;
    parallel_for(0, nblocks, [&](int64_t b) {
      int64_t lo = b * w;
      int64_t mid = std::min(n_, lo + half);
      int64_t hi = std::min(n_, lo + w);
      merge_into(cur.begin() + lo, mid - lo, cur.begin() + mid, hi - mid,
                 nxt.begin() + lo,
                 [&](int32_t p, int32_t q) { return y[p] < y[q]; });
    });
    std::swap(cur, nxt);
    fill_level(d, cur);
  }
}

size_t RangeTreeMax::estimate_build_bytes(int64_t n) {
  if (n <= 0) return 0;
  size_t un = static_cast<size_t>(n);
  // Mirrors the allocation sequence of rebuild_body: y (int32) + scores
  // (atomic int64) + per materialized level below the root a Fenwick block
  // array (atomic int64) and a rank table (int32), plus a bridge table
  // (int32) on every level of width >= 32; the merge scratch (build_cur_ /
  // build_nxt_) adds two int32 arrays on the heap.
  int64_t root_width =
      static_cast<int64_t>(std::bit_ceil(static_cast<uint64_t>(n)));
  size_t bytes = un * (sizeof(int32_t) + sizeof(std::atomic<int64_t>));
  for (int64_t w = root_width; w >= kLeafParentWidth; w /= 2) {
    if (w != root_width) {
      bytes += un * (sizeof(std::atomic<int64_t>) + sizeof(int32_t));
    }
    if (w >= 2 * kLeafParentWidth) bytes += un * sizeof(int32_t);
  }
  bytes += 2 * un * sizeof(int32_t);  // merge scratch
  // Headroom for alignment padding, unused chunk tails, and the per-level
  // granularity of the arena: ~10% plus one default chunk.
  return bytes + bytes / 10 + Arena::kDefaultChunkBytes;
}

void RangeTreeMax::reset_scores() {
  if (n_ == 0) return;
  parallel_for(0, n_, [&](int64_t p) {
    scores_[p].store(0, std::memory_order_relaxed);
  });
  for (size_t d = 1; d < levels_.size(); d++) {
    std::atomic<int64_t>* f = levels_[d].fenwick;
    parallel_for(0, n_,
                 [&](int64_t p) { f[p].store(0, std::memory_order_relaxed); });
  }
}

int64_t RangeTreeMax::fenwick_prefix_max(const std::atomic<int64_t>* f,
                                         int64_t count) {
  // Walk addresses are arithmetic in `count`: issue them all, then read.
  for (int64_t i = count; i > 0; i -= i & (-i)) {
    __builtin_prefetch(&f[i - 1], 0, 1);
  }
  int64_t best = 0;
  for (int64_t i = count; i > 0; i -= i & (-i)) {
    best = std::max(best, f[i - 1].load(std::memory_order_relaxed));
  }
  return best;
}

void RangeTreeMax::fenwick_update(std::atomic<int64_t>* f, int64_t len,
                                  int64_t idx, int64_t score) {
  // Update-walk ranges are nested upward ((j - lowbit(j), j] contains
  // (i - lowbit(i), i] for j = i + lowbit(i)), so slot values never
  // decrease along the walk: the first slot already >= score ends the
  // update. The value there was published by a score inside that slot's
  // range — ours adds nothing above it, and a racing walk that wrote it
  // either completes the shared upper walk (walks that meet coincide
  // forever) or exits behind a still larger one, so every higher slot is
  // >= score once the phase's updates join. Typical frontier points stop
  // within a slot or two instead of walking all O(log w) levels.
  for (int64_t i = idx + 1; i <= len; i += i & (-i)) {
    std::atomic<int64_t>& slot = f[i - 1];
    int64_t cur = slot.load(std::memory_order_relaxed);
    while (true) {
      if (cur >= score) return;
      if (slot.compare_exchange_weak(cur, score, std::memory_order_relaxed)) {
        break;
      }
    }
  }
}

int64_t RangeTreeMax::dominant_max(int64_t qpos, int64_t qy) const {
  // One-query group: the descent logic lives in exactly one place.
  int64_t out;
  dominant_max_group(&qpos, &qy, 1, &out);
  return out;
}

void RangeTreeMax::dominant_max_group(const int64_t* qpos, const int64_t* qy,
                                      int64_t g, int64_t* out) const {
  constexpr int64_t kGroup = 16;
  int64_t qp[kGroup], ns[kGroup], label[kGroup], best[kGroup];
  bool live[kGroup];
  for (int64_t t = 0; t < g; t++) {
    best[t] = 0;
    ns[t] = 0;
    if (qpos[t] <= 0 || n_ == 0) {
      live[t] = false;
      continue;
    }
    qp[t] = std::min(qpos[t], n_);
    label[t] = std::clamp<int64_t>(qy[t], 0, n_);
    live[t] = true;
    int64_t scan_base = (qp[t] - 1) & ~(kLeafParentWidth - 1);
    __builtin_prefetch(&y_[scan_base], 0, 1);
    __builtin_prefetch(&scores_[scan_base], 0, 1);
  }
  // Level-synchronous descent. Whenever a query's prefix boundary crosses
  // the midpoint of its current node, the left child is fully covered:
  // query its Fenwick prefix-max through the bridged label, then descend
  // right; otherwise descend left (label = #points of the current node
  // with y < qy; y_by_pos is a permutation, so at the virtual root it is
  // qy clamped). Per level: (A) prefetch every live query's bridge slot,
  // (B) read them and collect the canonical Fenwick queries, (C) prefetch
  // all collected walks, (D) fold the loads — each pass issues up to
  // kGroup independent lines before any is consumed.
  for (size_t d = 0; d + 1 < levels_.size(); d++) {
    const Level& node = levels_[d];
    const Level& child = levels_[d + 1];
    for (int64_t t = 0; t < g; t++) {
      if (!live[t]) continue;
      int64_t len = std::min(ns[t] + node.width, n_) - ns[t];
      if (label[t] < len) __builtin_prefetch(&node.bridge[ns[t] + label[t]], 0, 1);
    }
    const std::atomic<int64_t>* cn_f[kGroup];
    int64_t cn_count[kGroup], cn_t[kGroup];
    int64_t ncn = 0;
    for (int64_t t = 0; t < g; t++) {
      if (!live[t]) continue;
      int64_t mid = ns[t] + child.width;
      int64_t len = std::min(ns[t] + node.width, n_) - ns[t];
      int64_t left_label = label[t] >= len ? std::min(mid, n_) - ns[t]
                                           : node.bridge[ns[t] + label[t]];
      if (qp[t] >= mid) {
        if (left_label > 0) {
          cn_f[ncn] = child.fenwick + ns[t];
          cn_count[ncn] = left_label;
          cn_t[ncn] = t;
          ncn++;
        }
        if (qp[t] == mid) {
          live[t] = false;  // canonical node recorded; no tail scans
        } else {
          ns[t] = mid;
          label[t] -= left_label;
        }
      } else {
        label[t] = left_label;
      }
    }
    for (int64_t c = 0; c < ncn; c++) {
      for (int64_t i = cn_count[c]; i > 0; i -= i & (-i)) {
        __builtin_prefetch(&cn_f[c][i - 1], 0, 1);
      }
    }
    for (int64_t c = 0; c < ncn; c++) {
      int64_t b = 0;
      for (int64_t i = cn_count[c]; i > 0; i -= i & (-i)) {
        b = std::max(b, cn_f[c][i - 1].load(std::memory_order_relaxed));
      }
      best[cn_t[c]] = std::max(best[cn_t[c]], b);
    }
  }
  // Trailing scans, as in the single-query path.
  for (int64_t t = 0; t < g; t++) {
    if (!live[t]) {
      out[t] = best[t];
      continue;
    }
    int64_t node_start = ns[t], b = best[t];
    auto scan = [&](int64_t lo, int64_t hi) {
      for (int64_t p = lo; p < hi; p++) {
        if (y_[p] < qy[t]) {
          b = std::max(b, scores_[p].load(std::memory_order_relaxed));
        }
      }
    };
    if (!levels_.empty()) {
      int64_t mid = node_start + kLeafWidth;
      if (qp[t] >= mid) {
        scan(node_start, std::min(mid, n_));
        node_start = mid;
      }
    }
    if (node_start < qp[t]) scan(node_start, qp[t]);
    out[t] = b;
  }
}

void RangeTreeMax::dominant_max_batch(const int64_t* qpos, const int64_t* qy,
                                      int64_t m, int64_t* out) const {
  constexpr int64_t kGroup = 16;
  int64_t ngroups = (m + kGroup - 1) / kGroup;
  parallel_for(0, ngroups, [&](int64_t grp) {
    int64_t lo = grp * kGroup;
    int64_t g = std::min(kGroup, m - lo);
    dominant_max_group(qpos + lo, qy + lo, g, out + lo);
  });
}

void RangeTreeMax::update(int64_t pos, int64_t score) {
  std::atomic<int64_t>& slot = scores_[pos];
  int64_t cur = slot.load(std::memory_order_relaxed);
  while (cur < score &&
         !slot.compare_exchange_weak(cur, score, std::memory_order_relaxed)) {
  }
  size_t nlev = levels_.size();
  if (nlev < 2) return;
  // The per-level walks touch independent cache lines whose addresses are
  // pure arithmetic once the level's rank is known, so the whole update is
  // issued as three passes — rank prefetch, walk prefetch, CAS walk — and
  // the memory latency overlaps across levels instead of serializing.
  for (size_t d = 1; d < nlev; d++) {
    __builtin_prefetch(&levels_[d].rank[pos], 0, 1);
  }
  int64_t ranks[64];
  for (size_t d = 1; d < nlev; d++) {
    const Level& lev = levels_[d];
    int64_t block = pos & ~(lev.width - 1);
    int64_t len = std::min(block + lev.width, n_) - block;
    int64_t idx = ranks[d] = lev.rank[pos];
    const std::atomic<int64_t>* f = lev.fenwick + block;
    for (int64_t i = idx + 1; i <= len; i += i & (-i)) {
      __builtin_prefetch(&f[i - 1], 1, 1);
    }
  }
  for (size_t d = 1; d < nlev; d++) {
    const Level& lev = levels_[d];
    int64_t block = pos & ~(lev.width - 1);
    int64_t len = std::min(block + lev.width, n_) - block;
    fenwick_update(lev.fenwick + block, len, ranks[d], score);
  }
}

void RangeTreeMax::update_group(const ScoreUpdate* u, int64_t g) {
  constexpr int64_t kGroup = 8;
  const size_t nlev = levels_.size();
  // Phase A: prefetch every point's score slot and per-level rank entry —
  // up to kGroup * nlev independent lines issued before any is consumed.
  for (int64_t t = 0; t < g; t++) {
    __builtin_prefetch(&scores_[u[t].pos], 1, 1);
    for (size_t d = 1; d < nlev; d++) {
      __builtin_prefetch(&levels_[d].rank[u[t].pos], 0, 1);
    }
  }
  // Phase B: publish the scores, read the (now cached) ranks, and prefetch
  // the first walk slot of every (point, level) pair — the early-exit walk
  // usually ends right there.
  int64_t ranks[kGroup][64];
  for (int64_t t = 0; t < g; t++) {
    std::atomic<int64_t>& slot = scores_[u[t].pos];
    int64_t cur = slot.load(std::memory_order_relaxed);
    while (cur < u[t].score &&
           !slot.compare_exchange_weak(cur, u[t].score,
                                       std::memory_order_relaxed)) {
    }
    for (size_t d = 1; d < nlev; d++) {
      const Level& lev = levels_[d];
      int64_t block = u[t].pos & ~(lev.width - 1);
      int64_t len = std::min(block + lev.width, n_) - block;
      int64_t idx = ranks[t][d] = lev.rank[u[t].pos];
      const std::atomic<int64_t>* f = lev.fenwick + block;
      for (int64_t i = idx + 1; i <= len; i += i & (-i)) {
        __builtin_prefetch(&f[i - 1], 1, 1);
      }
    }
  }
  // Phase C: the CAS walks, against warm lines.
  for (int64_t t = 0; t < g; t++) {
    for (size_t d = 1; d < nlev; d++) {
      const Level& lev = levels_[d];
      int64_t block = u[t].pos & ~(lev.width - 1);
      int64_t len = std::min(block + lev.width, n_) - block;
      fenwick_update(lev.fenwick + block, len, ranks[t][d], u[t].score);
    }
  }
}

void RangeTreeMax::update_batch(const ScoreUpdate* updates, int64_t m) {
  // Grouped like the query side: points go through the levels in phased
  // batches so their (otherwise serial) rank and Fenwick cache misses
  // overlap — a frontier's updates are independent and fetch-max commutes,
  // so any interleaving is correct.
  constexpr int64_t kGroup = 8;
  int64_t ngroups = (m + kGroup - 1) / kGroup;
  parallel_for(0, ngroups, [&](int64_t grp) {
    int64_t lo = grp * kGroup;
    update_group(updates + lo, std::min(kGroup, m - lo));
  });
}

}  // namespace parlis
