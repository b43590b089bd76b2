#include "parlis/wlis/range_veb.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/primitives.hpp"

namespace parlis {

RangeVeb::RangeVeb(std::span<const int64_t> y_by_pos)
    : n_(static_cast<int64_t>(y_by_pos.size())),
      arena_(std::make_unique<Arena>()) {
  if (n_ == 0) return;
  // Direct-scan tables for the truncated bottom: y per position, and the
  // published score per position (0 = not yet published, the same "none"
  // convention the inner trees' dominant-max uses).
  {
    int64_t* yp = arena_->create_array_uninit<int64_t>(n_);
    parallel_for(0, n_, [&](int64_t p) { yp[p] = y_by_pos[p]; });
    y_pos_ = yp;
  }
  score_pos_ = arena_->create_array<int64_t>(n_);
  int64_t width =
      static_cast<int64_t>(std::bit_ceil(static_cast<uint64_t>(n_)));
  // Inverse of y_by_pos (construction scratch): which value-order position
  // holds y. Turns each level's sorted-y block into that level's rank
  // table — rank[pos_of[y]] = slot of y in its block — in one linear pass
  // per level, piggybacking on the merge that builds the block.
  std::vector<int64_t> pos_of(n_);
  parallel_for(0, n_, [&](int64_t p) { pos_of[y_by_pos[p]] = p; });
  // Stored levels are exactly the queried ones: widths width/2 down to
  // kLeafWidth. The bottom levels (width < kLeafWidth) are truncated — the
  // descent's sub-leaf remainder is a linear scan over y_pos_/score_pos_ —
  // and the root (width `width`) is never a canonical node of a prefix
  // decomposition, so neither end gets inner trees or update passes (the
  // root tree would have been the largest Mono-vEB of all).
  std::vector<Level> rev;
  auto fill_ranks = [&](Level& lev) {
    int32_t* rank = arena_->create_array_uninit<int32_t>(n_);
    int64_t nblocks = (n_ + lev.width - 1) / lev.width;
    parallel_for(0, nblocks, [&](int64_t blk) {
      int64_t lo = blk * lev.width;
      int64_t hi = std::min(n_, lo + lev.width);
      for (int64_t s = lo; s < hi; s++) {
        rank[pos_of[lev.ys[s]]] = static_cast<int32_t>(s - lo);
      }
    });
    lev.rank = rank;
  };
  if (width > kLeafWidth) {
    Level leaf;
    leaf.width = kLeafWidth;
    int64_t* ys = arena_->create_array_uninit<int64_t>(n_);
    int64_t nblocks = (n_ + kLeafWidth - 1) / kLeafWidth;
    parallel_for(0, nblocks, [&](int64_t blk) {
      int64_t lo = blk * kLeafWidth;
      int64_t hi = std::min(n_, lo + kLeafWidth);
      std::copy(y_pos_ + lo, y_pos_ + hi, ys + lo);
      std::sort(ys + lo, ys + hi);
    });
    leaf.ys = ys;
    fill_ranks(leaf);
    rev.push_back(std::move(leaf));
    while (rev.back().width < width / 2) {
      const Level& prev = rev.back();
      Level next;
      next.width = prev.width * 2;
      int64_t* ys2 = arena_->create_array_uninit<int64_t>(n_);
      int64_t nb = (n_ + next.width - 1) / next.width;
      parallel_for(0, nb, [&](int64_t blk) {
        int64_t lo = blk * next.width;
        int64_t mid = std::min(n_, lo + prev.width);
        int64_t hi = std::min(n_, lo + next.width);
        merge_into(prev.ys + lo, mid - lo, prev.ys + mid, hi - mid, ys2 + lo,
                   std::less<int64_t>{});
      });
      next.ys = ys2;
      fill_ranks(next);
      rev.push_back(std::move(next));
    }
  }
  // One Mono-vEB per node block, with relabeled universe = block length;
  // all of them draw nodes and score tables from the shared pool.
  for (Level& lev : rev) {
    int64_t nblocks = (n_ + lev.width - 1) / lev.width;
    lev.inner.reserve(nblocks);
    for (int64_t blk = 0; blk < nblocks; blk++) {
      int64_t lo = blk * lev.width;
      int64_t len = std::min(n_, lo + lev.width) - lo;
      lev.inner.emplace_back(static_cast<uint64_t>(len), arena_.get());
    }
  }
  levels_.assign(std::make_move_iterator(rev.rbegin()),
                 std::make_move_iterator(rev.rend()));
  // Round scratch, sized once: a batch never exceeds n distinct positions.
  sort_keys_.resize(n_);
  sort_buf_.resize(n_);
  pts_.resize(n_);
  group_pos_.resize(n_);
  group_start_.resize(n_ + 1);
}

int64_t RangeVeb::dominant_max(int64_t qpos, int64_t qy) const {
  if (qpos <= 0 || n_ == 0) return 0;
  qpos = std::min(qpos, n_);
  int64_t best = 0;
  int64_t node_start = 0;
  for (const Level& child : levels_) {
    int64_t mid = node_start + child.width;
    if (qpos >= mid) {
      int64_t len = std::min(mid, n_) - node_start;
      if (len > 0) {
        const int64_t* ys = child.ys + node_start;
        // Relabel qy: its label in this node is the count of y's below it.
        uint64_t label = std::lower_bound(ys, ys + len, qy) - ys;
        const MonoVeb& mv = child.inner[node_start / child.width];
        MonoVeb::MaxBelow mb = mv.max_below(label);
        if (mb.found) best = std::max(best, mb.score);
      }
      if (qpos == mid) return best;
      node_start = mid;
    }
  }
  // Sub-leaf remainder (< kLeafWidth positions): scan published scores
  // directly. Unpublished positions hold 0 and never beat a real score.
  for (int64_t p = node_start; p < qpos; p++) {
    if (y_pos_[p] < qy) best = std::max(best, score_pos_[p]);
  }
  return best;
}

void RangeVeb::update_batch(const ScoreUpdate* batch, int64_t m) {
  if (m == 0) return;
  assert(m <= n_ && "batch positions must be distinct");
  // Publish for the truncated bottom's direct scans.
  parallel_for(0, m, [&](int64_t i) {
    score_pos_[batch[i].pos] = batch[i].score;
  });
  // Per level: group the batch by node block, relabel each point inside its
  // block through the construction-time rank table (one O(1) lookup, no
  // binary search), and update every touched inner tree in parallel.
  // Grouping sorts packed (block id, batch index) keys — stable by
  // construction, so each group stays sorted by y — entirely inside the
  // preallocated scratch.
  for (Level& lev : levels_) {
    parallel_for(0, m, [&](int64_t i) {
      uint64_t blk = static_cast<uint64_t>(batch[i].pos / lev.width);
      sort_keys_[i] = (blk << 32) | static_cast<uint32_t>(i);
    });
    // Packed keys carry the batch index in the low bits, so the order is
    // total and the allocation-free std::sort base case applies.
    sort_with_buffer_total(sort_keys_.data(), sort_buf_.data(), m,
                           std::less<uint64_t>{});
    parallel_for(0, m, [&](int64_t i) {
      const ScoreUpdate& it = batch[sort_keys_[i] & 0xffffffffu];
      pts_[i] = {static_cast<uint64_t>(lev.rank[it.pos]), it.score};
    });
    auto blk_of = [&](int64_t i) { return sort_keys_[i] >> 32; };
    auto is_start = [&](int64_t i) {
      return i == 0 || blk_of(i) != blk_of(i - 1);
    };
    int64_t ngroups = scan_exclusive_index<int64_t>(
        m, 0, [&](int64_t i) { return is_start(i) ? int64_t{1} : 0; },
        [&](int64_t i, int64_t pre) { group_pos_[i] = pre; },
        std::plus<int64_t>{});
    parallel_for(0, m, [&](int64_t i) {
      if (is_start(i)) group_start_[group_pos_[i]] = i;
    });
    group_start_[ngroups] = m;
    parallel_for(0, ngroups, [&](int64_t g) {
      int64_t s = group_start_[g], e = group_start_[g + 1];
      lev.inner[blk_of(s)].insert_staircase(pts_.data() + s, e - s);
    });
  }
}

void RangeVeb::precompute_query_labels(std::span<const int64_t> qpos_by_y) {
  qpos_.assign(qpos_by_y.begin(), qpos_by_y.end());
  int64_t steps = static_cast<int64_t>(levels_.size());
  labels_.assign(steps * n_, -1);
  parallel_for(0, n_, [&](int64_t j) {
    int64_t qpos = std::min(qpos_by_y[j], n_);
    if (qpos <= 0) return;
    int64_t node_start = 0;
    for (int64_t d = 0; d < steps; d++) {
      const Level& child = levels_[d];
      int64_t mid = node_start + child.width;
      if (qpos >= mid) {
        int64_t len = std::min(mid, n_) - node_start;
        if (len > 0) {
          const int64_t* ys = child.ys + node_start;
          labels_[d * n_ + j] =
              static_cast<int32_t>(std::lower_bound(ys, ys + len, j) - ys);
        }
        if (qpos == mid) return;
        node_start = mid;
      }
    }
  });
}

int64_t RangeVeb::dominant_max_point(int64_t j) const {
  int64_t qpos = std::min(qpos_[j], n_);
  if (qpos <= 0 || n_ == 0) return 0;
  int64_t best = 0;
  int64_t node_start = 0;
  int64_t steps = static_cast<int64_t>(levels_.size());
  for (int64_t d = 0; d < steps; d++) {
    const Level& child = levels_[d];
    int64_t mid = node_start + child.width;
    if (qpos >= mid) {
      int32_t label = labels_[d * n_ + j];
      if (label > 0) {
        const MonoVeb& mv = child.inner[node_start / child.width];
        MonoVeb::MaxBelow mb = mv.max_below(static_cast<uint64_t>(label));
        if (mb.found) best = std::max(best, mb.score);
      }
      if (qpos == mid) return best;
      node_start = mid;
    }
  }
  for (int64_t p = node_start; p < qpos; p++) {
    if (y_pos_[p] < j) best = std::max(best, score_pos_[p]);
  }
  return best;
}

void RangeVeb::check() const {
  for (const Level& lev : levels_) {
    for (const MonoVeb& mv : lev.inner) mv.check_staircase();
  }
}

}  // namespace parlis
