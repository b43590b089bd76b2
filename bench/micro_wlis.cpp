// Before/after microbenchmark for the weighted-LIS range-structure
// overhaul (the counterpart of micro_hotpath, which gated the PR-1
// lis/vEB work):
//
//   wlis         — Alg. 2 with the range tree (Sec. 4.1). Seed: per-level
//                  make_unique Fenwick arrays, a binary search per level on
//                  every query and update. Current: arena-backed flat
//                  levels, fractional-cascading bridge tables (O(1) label
//                  descent), merge-computed update rank tables, truncated
//                  bottom levels with direct leaf scans, allocation-free
//                  round loop.
//   wlis_veb     — Alg. 2 with the Range-vEB (Sec. 4.2) on the word-block
//                  vEB trees, one variant: the seed Range-vEB cannot run at
//                  n = 10^6 (it gave every inner Mono-vEB a private 64KB
//                  arena chunk, tens of gigabytes at this size), so there
//                  is no before-side to pair it with.
//   oracle_build — SWGS dominance-oracle construction. Seed: per-level
//                  make_unique + three init passes + a root level that no
//                  query ever reads. Current: arena-backed flat levels,
//                  no root level, placement-init Fenwick slots.
//
// The *seed* implementations (range tree, oracle) are embedded below
// (namespace seedref) exactly as they shipped, so one binary measures both
// sides back to back; runs are interleaved (seed, current, seed, ...) so
// machine drift cancels, and medians are reported. Defaults match the acceptance
// setup: wlis and wlis_veb over n = 10^6 uniform-random keys with uniform
// [1,1000] weights.
//
// Flags: --n, --nveb, --norcl, --reps, --threads, --out FILE (BENCH_*.json
// records), --strict (exit 2 unless the wlis speedup clears 25%; off by
// default so tiny CI smoke sizes don't fail on noise).
#include <algorithm>
#include <atomic>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/bench_json.hpp"
#include "parlis/lis/lis.hpp"
#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/primitives.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/swgs/dominance_oracle.hpp"
#include "parlis/wlis/wlis.hpp"

namespace seedref {

using parlis::merge_into;
using parlis::parallel_for;
using parlis::scan_exclusive_index;
using parlis::sort_inplace;

// ------------------------------------------------- seed range tree (4.1) ---
// Verbatim seed behaviour: one merge-sort-tree level per power of two down
// to width 1 (root included), a make_unique'd atomic Fenwick array per
// level zeroed by a second pass, and a std::lower_bound per level on every
// query and every update.

class SeedRangeTreeMax {
 public:
  explicit SeedRangeTreeMax(const std::vector<int64_t>& y_by_pos)
      : n_(static_cast<int64_t>(y_by_pos.size())) {
    if (n_ == 0) return;
    int64_t width =
        static_cast<int64_t>(std::bit_ceil(static_cast<uint64_t>(n_)));
    std::vector<Level> rev;
    {
      Level leaf;
      leaf.width = 1;
      leaf.ys = y_by_pos;
      rev.push_back(std::move(leaf));
    }
    while (rev.back().width < width) {
      const Level& prev = rev.back();
      Level next;
      next.width = prev.width * 2;
      next.ys.resize(n_);
      int64_t nblocks = (n_ + next.width - 1) / next.width;
      const Level* prev_ptr = &prev;
      Level* next_ptr = &next;
      parallel_for(0, nblocks, [&, prev_ptr, next_ptr](int64_t blk) {
        int64_t lo = blk * next_ptr->width;
        int64_t mid = std::min(n_, lo + prev_ptr->width);
        int64_t hi = std::min(n_, lo + next_ptr->width);
        merge_into(prev_ptr->ys.begin() + lo, mid - lo,
                   prev_ptr->ys.begin() + mid, hi - mid,
                   next_ptr->ys.begin() + lo, std::less<int64_t>{});
      });
      rev.push_back(std::move(next));
    }
    for (Level& lev : rev) {
      lev.fenwick = std::make_unique<std::atomic<int64_t>[]>(n_);
      parallel_for(0, n_, [&](int64_t i) {
        lev.fenwick[i].store(0, std::memory_order_relaxed);
      });
    }
    levels_.assign(std::make_move_iterator(rev.rbegin()),
                   std::make_move_iterator(rev.rend()));
  }

  int64_t dominant_max(int64_t qpos, int64_t qy) const {
    if (qpos <= 0 || n_ == 0) return 0;
    qpos = std::min(qpos, n_);
    int64_t best = 0;
    int64_t node_start = 0;
    for (size_t d = 0; d + 1 < levels_.size(); d++) {
      const Level& child = levels_[d + 1];
      int64_t mid = node_start + child.width;
      if (qpos >= mid) {
        int64_t len = std::min(mid, n_) - node_start;
        if (len > 0) {
          const int64_t* ys = child.ys.data() + node_start;
          int64_t cnt = std::lower_bound(ys, ys + len, qy) - ys;
          if (cnt > 0) {
            best = std::max(
                best, fenwick_prefix_max(child.fenwick.get() + node_start, cnt));
          }
        }
        if (qpos == mid) return best;
        node_start = mid;
      }
    }
    if (qpos > node_start && node_start < n_) {
      const Level& leaf = levels_.back();
      if (leaf.ys[node_start] < qy) {
        best = std::max(
            best, leaf.fenwick[node_start].load(std::memory_order_relaxed));
      }
    }
    return best;
  }

  void update(int64_t pos, int64_t score) {
    int64_t y = levels_.back().ys[pos];
    for (size_t d = 0; d < levels_.size(); d++) {
      const Level& lev = levels_[d];
      int64_t block = (pos / lev.width) * lev.width;
      int64_t len = std::min(block + lev.width, n_) - block;
      const int64_t* ys = lev.ys.data() + block;
      int64_t idx = std::lower_bound(ys, ys + len, y) - ys;
      fenwick_update(lev.fenwick.get() + block, len, idx, score);
    }
  }

 private:
  struct Level {
    int64_t width;
    std::vector<int64_t> ys;
    std::unique_ptr<std::atomic<int64_t>[]> fenwick;
  };

  static int64_t fenwick_prefix_max(const std::atomic<int64_t>* f,
                                    int64_t count) {
    int64_t best = 0;
    for (int64_t i = count; i > 0; i -= i & (-i)) {
      best = std::max(best, f[i - 1].load(std::memory_order_relaxed));
    }
    return best;
  }
  static void fenwick_update(std::atomic<int64_t>* f, int64_t len, int64_t idx,
                             int64_t score) {
    for (int64_t i = idx + 1; i <= len; i += i & (-i)) {
      std::atomic<int64_t>& slot = f[i - 1];
      int64_t cur = slot.load(std::memory_order_relaxed);
      while (cur < score && !slot.compare_exchange_weak(
                                cur, score, std::memory_order_relaxed)) {
      }
    }
  }

  int64_t n_;
  std::vector<Level> levels_;
};

// --------------------------------------------- seed dominance oracle init ---
// Verbatim seed behaviour: a root level that queries never read, one
// make_unique'd Fenwick per level, and three initialization passes (value
// init, zero store, lowbit store). Queries (count_dominators) are embedded
// for the cross-check.

class SeedDominanceOracle {
 public:
  explicit SeedDominanceOracle(const std::vector<int64_t>& a)
      : n_(static_cast<int64_t>(a.size())), a_(a) {
    if (n_ == 0) return;
    int64_t width =
        static_cast<int64_t>(std::bit_ceil(static_cast<uint64_t>(n_)));
    std::vector<Level> rev;
    {
      Level leaf;
      leaf.width = 1;
      leaf.values = a;
      leaf.idx.resize(n_);
      parallel_for(0, n_,
                   [&](int64_t i) { leaf.idx[i] = static_cast<int32_t>(i); });
      rev.push_back(std::move(leaf));
    }
    while (rev.back().width < width) {
      const Level& prev = rev.back();
      Level next;
      next.width = prev.width * 2;
      next.values.resize(n_);
      next.idx.resize(n_);
      int64_t nblocks = (n_ + next.width - 1) / next.width;
      parallel_for(0, nblocks, [&](int64_t blk) {
        int64_t lo = blk * next.width;
        int64_t mid = std::min(n_, lo + prev.width);
        int64_t hi = std::min(n_, lo + next.width);
        int64_t i = lo, j = mid, o = lo;
        auto less = [&](int64_t x, int64_t y) {
          return prev.values[x] != prev.values[y]
                     ? prev.values[x] < prev.values[y]
                     : prev.idx[x] < prev.idx[y];
        };
        while (i < mid && j < hi) {
          int64_t src = less(i, j) ? i++ : j++;
          next.values[o] = prev.values[src];
          next.idx[o++] = prev.idx[src];
        }
        while (i < mid) {
          next.values[o] = prev.values[i];
          next.idx[o++] = prev.idx[i++];
        }
        while (j < hi) {
          next.values[o] = prev.values[j];
          next.idx[o++] = prev.idx[j++];
        }
      });
      rev.push_back(std::move(next));
    }
    for (Level& lev : rev) {
      lev.alive = std::make_unique<std::atomic<int32_t>[]>(n_);
      int64_t nblocks = (n_ + lev.width - 1) / lev.width;
      parallel_for(0, n_, [&](int64_t i) {
        lev.alive[i].store(0, std::memory_order_relaxed);
      });
      parallel_for(0, nblocks, [&](int64_t blk) {
        int64_t lo = blk * lev.width;
        int64_t len = std::min(n_, lo + lev.width) - lo;
        std::atomic<int32_t>* f = lev.alive.get() + lo;
        for (int64_t i = 1; i <= len; i++) {
          f[i - 1].store(static_cast<int32_t>(i & (-i)),
                         std::memory_order_relaxed);
        }
      });
    }
    levels_.assign(std::make_move_iterator(rev.rbegin()),
                   std::make_move_iterator(rev.rend()));
  }

  int64_t count_dominators(int64_t i) const {
    int64_t total = 0;
    int64_t node_start = 0;
    for (size_t d = 0; d + 1 < levels_.size(); d++) {
      const Level& child = levels_[d + 1];
      int64_t mid = node_start + child.width;
      if (i >= mid) {
        int64_t len = std::min(mid, n_) - node_start;
        if (len > 0) {
          const int64_t* vals = child.values.data() + node_start;
          int64_t cnt = std::lower_bound(vals, vals + len, a_[i]) - vals;
          if (cnt > 0) {
            total += fenwick_prefix(child.alive.get() + node_start, cnt);
          }
        }
        if (i == mid) return total;
        node_start = mid;
      }
    }
    if (i > node_start && node_start < n_) {
      const Level& leaf = levels_.back();
      if (leaf.values[node_start] < a_[i]) {
        total += leaf.alive[node_start].load(std::memory_order_relaxed);
      }
    }
    return total;
  }

  void erase(int64_t i) {
    for (size_t d = 0; d < levels_.size(); d++) {
      const Level& lev = levels_[d];
      int64_t block = (i / lev.width) * lev.width;
      int64_t len = std::min(block + lev.width, n_) - block;
      const int64_t* vals = lev.values.data() + block;
      const int32_t* idx = lev.idx.data() + block;
      int64_t lo = 0, hi = len;
      while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        bool before = vals[mid] != a_[i] ? vals[mid] < a_[i]
                                         : idx[mid] < static_cast<int32_t>(i);
        if (before) lo = mid + 1;
        else hi = mid;
      }
      for (int64_t f = lo + 1; f <= len; f += f & (-f)) {
        lev.alive[block + f - 1].fetch_sub(1, std::memory_order_relaxed);
      }
    }
  }

 private:
  struct Level {
    int64_t width;
    std::vector<int64_t> values;
    std::vector<int32_t> idx;
    std::unique_ptr<std::atomic<int32_t>[]> alive;
  };

  static int64_t fenwick_prefix(const std::atomic<int32_t>* f, int64_t count) {
    int64_t sum = 0;
    for (int64_t i = count; i > 0; i -= i & (-i)) {
      sum += f[i - 1].load(std::memory_order_relaxed);
    }
    return sum;
  }

  int64_t n_;
  std::vector<int64_t> a_;
  std::vector<Level> levels_;
};

// ----------------------------------------------------- seed WLIS driver ---
// Verbatim seed round loop: a fresh Item vector per Range-vEB round, point
// updates routed one binary-search chain per level.

struct ValueOrder {
  std::vector<int64_t> pos;
  std::vector<int64_t> qpos;
  std::vector<int64_t> y_by_pos;
};

ValueOrder build_value_order(const std::vector<int64_t>& a) {
  int64_t n = static_cast<int64_t>(a.size());
  ValueOrder vo;
  vo.y_by_pos.resize(n);
  parallel_for(0, n, [&](int64_t i) { vo.y_by_pos[i] = i; });
  sort_inplace(vo.y_by_pos, [&](int64_t i, int64_t j) {
    return a[i] != a[j] ? a[i] < a[j] : i < j;
  });
  vo.pos.resize(n);
  vo.qpos.resize(n);
  parallel_for(0, n, [&](int64_t p) { vo.pos[vo.y_by_pos[p]] = p; });
  std::vector<int64_t> run_start(n);
  parallel_for(0, n, [&](int64_t p) {
    run_start[p] = (p == 0 || a[vo.y_by_pos[p - 1]] != a[vo.y_by_pos[p]])
                       ? p
                       : int64_t{-1};
  });
  scan_exclusive_index<int64_t>(
      n, int64_t{-1}, [&](int64_t p) { return run_start[p]; },
      [&](int64_t p, int64_t pre) {
        if (run_start[p] < 0) run_start[p] = pre;
      },
      [](int64_t acc, int64_t v) { return v < 0 ? acc : v; });
  parallel_for(0, n,
               [&](int64_t p) { vo.qpos[vo.y_by_pos[p]] = run_start[p]; });
  return vo;
}

struct TreeAdapter {
  SeedRangeTreeMax rs;
  explicit TreeAdapter(const ValueOrder& vo) : rs(vo.y_by_pos) {}
  void update_frontier(const int64_t* f, int64_t fn, const ValueOrder& vo,
                       const std::vector<int64_t>& dp) {
    parallel_for(0, fn,
                 [&](int64_t t) { rs.update(vo.pos[f[t]], dp[f[t]]); });
  }
};

template <typename Adapter>
parlis::WlisResult run_wlis(const std::vector<int64_t>& a,
                            const std::vector<int64_t>& w) {
  parlis::WlisResult res;
  int64_t n = static_cast<int64_t>(a.size());
  parlis::LisFrontiers fr = parlis::lis_frontiers(a);
  ValueOrder vo = build_value_order(a);
  Adapter ad(vo);
  res.dp.assign(n, 0);
  res.k = fr.k;
  for (int32_t r = 1; r <= fr.k; r++) {
    const int64_t* f = fr.frontier_flat.data() + fr.frontier_offset[r - 1];
    int64_t fn = fr.frontier_offset[r] - fr.frontier_offset[r - 1];
    parallel_for(0, fn, [&](int64_t t) {
      int64_t j = f[t];
      int64_t q = ad.rs.dominant_max(vo.qpos[j], j);
      res.dp[j] = w[j] + std::max<int64_t>(0, q);
    });
    ad.update_frontier(f, fn, vo, res.dp);
  }
  res.best = parlis::reduce_index<int64_t>(
      0, n, 0, [&](int64_t i) { return res.dp[i]; },
      [](int64_t x, int64_t y) { return std::max(x, y); });
  return res;
}

parlis::WlisResult wlis_tree(const std::vector<int64_t>& a,
                             const std::vector<int64_t>& w) {
  return run_wlis<TreeAdapter>(a, w);
}

}  // namespace seedref

namespace {

using namespace parlis;
using namespace parlis::bench;

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  int64_t n = flags.get("n", 1000000);
  // The veb/oracle legs draw prefixes of the main workload, so they are
  // capped at n (keeps per-op math honest when --n shrinks a smoke run).
  int64_t nveb = std::min(n, flags.get("nveb", 1000000));
  int64_t norcl = std::min(n, flags.get("norcl", n));
  int reps = static_cast<int>(flags.get("reps", 5));
  if (flags.has("threads")) {
    set_num_workers(static_cast<int>(flags.get("threads", 0)));
  }
  BenchJson json(flags.get_str("out", ""));
  std::printf("micro_wlis: n=%lld, nveb=%lld, norcl=%lld, reps=%d, threads=%d\n",
              static_cast<long long>(n), static_cast<long long>(nveb),
              static_cast<long long>(norcl), reps, num_workers());

  // Acceptance workload: uniform-random values, uniform [1, 1000] weights.
  std::vector<int64_t> a(n), w(n);
  parallel_for(0, n, [&](int64_t i) {
    a[i] = static_cast<int64_t>(hash64(42, i) >> 1);
    w[i] = 1 + static_cast<int64_t>(uniform(43, i, 1000));
  });
  std::vector<int64_t> av(a.begin(), a.begin() + std::min(n, nveb));
  std::vector<int64_t> wv(w.begin(), w.begin() + std::min(n, nveb));
  std::vector<int64_t> ao(a.begin(), a.begin() + std::min(n, norcl));

  std::printf("\n%-14s  %14s  %16s  %9s\n", "op", "seed med(ms)",
              "current med(ms)", "speedup");
  auto report = [&](const char* op, int64_t size, const PairMedians& mm) {
    std::printf("%-14s  %14.1f  %16.1f  %8.1f%%\n", op, mm.a_ms(), mm.b_ms(),
                mm.speedup_pct());
    for (int variant = 0; variant < 2; variant++) {
      double ms = variant == 0 ? mm.a_ms() : mm.b_ms();
      JsonRecord rec;
      rec.field("bench", "micro_wlis")
          .field("op", op)
          .field("variant", variant == 0 ? "seed" : "current")
          .field("n", size)
          .field("threads", num_workers())
          .field("median_ms", ms)
          .field("per_op_ns", size > 0 ? ms * 1e6 / size : 0.0);
      if (variant == 1) rec.field("speedup_pct", mm.speedup_pct());
      json.add(rec);
    }
  };

  // ----------------------------------------------------------- wlis (tree)
  WlisResult seed_tree, cur_tree;
  PairMedians m_tree = measure_pair(
      reps, [&] { seed_tree = seedref::wlis_tree(a, w); },
      [&] { cur_tree = wlis(a, w, WlisStructure::kRangeTree); });
  report("wlis", n, m_tree);

  // ------------------------------------------------------------- wlis_veb
  WlisResult word_veb;
  std::vector<double> veb_ts(reps);
  for (int r = 0; r < reps; r++) {
    Timer t;
    word_veb = wlis(av, wv, WlisStructure::kRangeVeb);
    veb_ts[r] = t.elapsed();
  }
  std::sort(veb_ts.begin(), veb_ts.end());
  const double veb_ms = veb_ts[(reps - 1) / 2] * 1e3;
  std::printf("%-14s  %14s  %16.1f\n", "wlis_veb", "-", veb_ms);
  if (json.enabled()) {
    JsonRecord rec;
    rec.field("bench", "micro_wlis")
        .field("op", "wlis_veb")
        .field("variant", "word")
        .field("n", nveb)
        .field("threads", num_workers())
        .field("median_ms", veb_ms)
        .field("per_op_ns", nveb > 0 ? veb_ms * 1e6 / nveb : 0.0);
    json.add(rec);
  }

  // --------------------------------------------------------- oracle_build
  volatile int64_t sink = 0;
  PairMedians m_orcl = measure_pair(
      reps,
      [&] {
        seedref::SeedDominanceOracle o(ao);
        sink = sink + o.count_dominators(static_cast<int64_t>(ao.size()) - 1);
      },
      [&] {
        DominanceOracle o(ao);
        sink = sink + o.count_dominators(static_cast<int64_t>(ao.size()) - 1);
      });
  report("oracle_build", norcl, m_orcl);

  // Cross-checks: the range tree and the oracle agree seed-vs-current
  // (the oracle including after deletions), and the Range-vEB agrees with
  // the range tree on its prefix.
  const WlisResult veb_ref =
      nveb == n ? cur_tree : wlis(av, wv, WlisStructure::kRangeTree);
  bool ok = seed_tree.dp == cur_tree.dp && seed_tree.best == cur_tree.best &&
            seed_tree.k == cur_tree.k && word_veb.dp == veb_ref.dp &&
            word_veb.best == veb_ref.best && word_veb.k == veb_ref.k;
  {
    seedref::SeedDominanceOracle so(ao);
    DominanceOracle co(ao);
    int64_t no = static_cast<int64_t>(ao.size());
    for (int64_t i = 1; i < no; i = i * 2 + 1) {
      so.erase(i / 2);
      co.erase(i / 2);
      ok = ok && so.count_dominators(i) == co.count_dominators(i);
    }
  }
  std::printf("\ncross-check (seed and current agree): %s\n",
              ok ? "OK" : "MISMATCH");
  bool pass_tree = m_tree.speedup_pct() >= 25.0;
  std::printf("acceptance (>=25%% on wlis): %s%s\n",
              pass_tree ? "PASS" : "FAIL",
              flags.has("strict") ? "" : " (advisory; --strict gates exit)");
  if (!ok) return 1;
  return flags.has("strict") && !pass_tree ? 2 : 0;
}
