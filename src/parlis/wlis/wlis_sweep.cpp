#include "parlis/wlis/wlis_sweep.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <string>

#include "parlis/parallel/parallel.hpp"
#include "parlis/util/error.hpp"
#include "parlis/util/exec_context.hpp"
#include "parlis/util/failpoint.hpp"

namespace parlis {

void internal::throw_wlis_overflow(int64_t i) {
  throw Error(ErrorCode::kInvalidArgument,
              "weighted LIS: dp[" + std::to_string(i) +
                  "] overflows int64 (w[i] plus the best chain before it)");
}

namespace {

using Node = WlisSweepScratch::Node;

constexpr int64_t kPoll = 4096;

// What every cell of one pass reads and writes.
struct Pass {
  const int64_t* rank;
  const int64_t* w;
  int64_t* dp;
  int64_t* len;   // per-element LIS length; unused by the one-cell schedule
  Node* fenwick;  // u + 1 nodes; block b's tree is nodes [blo + 1, bhi]
  int64_t u;
  int shift;  // block b holds the ranks [b << shift, (b + 1) << shift)
};

// The kernel's three compile-time forms: the one-cell schedule (every
// element is the cell's, and nothing reads its length), a cell whose chunk
// has no earlier element in a lower block, and one that has (the row).
enum class Cell { kOne, kNoRow, kRow };

// Cell (chunk, b): the elements of positions [lo, hi) whose rank lies in
// block b, in index order. An element's predecessor max is the max of
// `corner` (earlier chunks, lower blocks), block b's Fenwick tree (earlier
// chunks and this cell, lower ranks) and, for kRow, the running max of the
// chunk's earlier elements in lower blocks, whose dp and len are already
// written (so [lo, hi) starts at or before the first of them). `zero`
// clears the block's tree first: the block's first non-empty cell sets it.
// Returns the cell's max (dp, len), floored at 0. Cache-line aligned, like
// internal::patience_ranks.
template <Cell kKind>
[[gnu::aligned(64)]] Node run_cell(const Pass& p, int64_t lo, int64_t hi,
                                   int64_t b, Node corner, bool zero) {
  const int64_t* rank = p.rank;
  const int64_t* w = p.w;
  int64_t* dp = p.dp;
  int64_t* lens = p.len;
  const int shift = p.shift;
  const int64_t blo = b << shift;
  const int64_t bsize = std::min(p.u - blo, int64_t{1} << shift);
  Node* f = p.fenwick + blo;  // the block's node x is f[x], x in [1, bsize]
  if (zero) std::fill(f + 1, f + bsize + 1, Node{0, 0});
  Node row{0, 0}, mx{0, 0};
  for (int64_t plo = lo; plo < hi; plo += kPoll) {
    internal::poll_cancellation();
    PARLIS_FAILPOINT("wlis.sweep");
    const int64_t phi = std::min(hi, plo + kPoll);
    for (int64_t i = plo; i < phi; i++) {
      const int64_t r = rank[i];
      assert(r >= 0 && r < p.u);
      if constexpr (kKind != Cell::kOne) {
        const int64_t rb = r >> shift;
        if constexpr (kKind == Cell::kRow) {
          if (rb < b) {
            row.dp = std::max(row.dp, dp[i]);
            row.len = std::max(row.len, lens[i]);
            continue;
          }
        }
        if (rb != b) continue;
      }
      int64_t q = std::max(corner.dp, row.dp);
      int64_t len = std::max(corner.len, row.len);
      const int64_t x = r - blo;
      for (int64_t j = x; j > 0; j &= j - 1) {
        q = std::max(q, f[j].dp);
        len = std::max(len, f[j].len);
      }
      int64_t d;
      if (__builtin_add_overflow(w[i], q, &d)) [[unlikely]] {
        internal::throw_wlis_overflow(i);
      }
      len++;
      dp[i] = d;
      if constexpr (kKind != Cell::kOne) lens[i] = len;
      mx.dp = std::max(mx.dp, d);
      mx.len = std::max(mx.len, len);
      for (int64_t j = x + 1; j <= bsize; j += j & -j) {
        f[j].dp = std::max(f[j].dp, d);
        f[j].len = std::max(f[j].len, len);
      }
    }
  }
  return mx;
}

// ---- The plan -----------------------------------------------------------
//
// The wavefront runs g index chunks x nb <= g rank blocks. A diagonal's
// cells run in parallel and the diagonals in order, so it takes the sum
// over diagonals of max(largest cell, all cells / p) plus a barrier, where
// a cell costs its elements at the block tree's per-element price plus,
// when a lower block of its chunk is occupied, a scan of the chunk. The
// one-cell pass costs n elements at the whole tree's price. Prices are in
// row-scan steps; the constants come from a sweep of the forced schedules
// over the differential suite's shapes at n = 2^16, 2^18 and 10^6 on 4
// workers (EXPERIMENTS.md, "Wavefront weighted pass").

constexpr int kMaxChunks = 32;
// Below this many ranks the tree sits in L2, the one-cell pass costs
// 5-40 ns per element, and the row scans of a full grid cost more than the
// pool saves (the range pattern at u = 8 ... 10^4 read 0.4-0.9x).
constexpr int64_t kWavefrontMinU = int64_t{1} << 14;
// The plan prices every kSampleStride-th element before it counts them
// all: on a declined input the count alone would cost several percent.
constexpr int64_t kSampleStride = 32;
// Per-element price of a tree of m nodes: kElemBase + kElemPerLevel *
// bit_width(m).
constexpr double kElemBase = 10;
constexpr double kElemPerLevel = 0.5;
// Fork, join and barrier of one diagonal.
constexpr double kDiagonalSteps = 20000;
// The wavefront runs when it prices below this share of the one-cell
// pass. Every swept input it picks read at least 1.2x faster forced; the
// ones it declines read at most 1.7x (rising lines, random values).
constexpr double kWaveShare = 0.45;

double elem_price(int64_t nodes) {
  return kElemBase +
         kElemPerLevel * std::bit_width(static_cast<uint64_t>(nodes));
}

struct Grid {
  int64_t n;
  int g;          // chunks: chunk c is [c n / g, (c + 1) n / g)
  int nb;         // blocks
  int shift = 0;  // block b holds the ranks [b << shift, (b + 1) << shift)

  // g chunks over n elements, and the fewest blocks of 2^shift ranks, at
  // most g of them, that cover [0, u).
  Grid(int64_t n_, int64_t u, int g_) : n(n_), g(g_) {
    while (((u - 1) >> shift) + 1 > g) shift++;
    nb = u > 0 ? static_cast<int>(((u - 1) >> shift) + 1) : 1;
  }

  int64_t chunk_lo(int c) const { return c * n / g; }
};

// Whether the wavefront over `cnt` (g x nb cell counts, row-major, each
// count standing for `scale` elements) prices below the one-cell pass.
bool wave_pays(const Grid& gr, const int64_t* cnt, int64_t scale, int64_t u,
               int p) {
  const double chunk = static_cast<double>(gr.n) / gr.g;
  const double cell_elem = elem_price(int64_t{1} << gr.shift);
  double wave = 0;
  for (int d = 0; d <= gr.g + gr.nb - 2; d++) {
    double big = 0, sum = 0;
    for (int c = std::max(0, d - gr.nb + 1); c <= std::min(gr.g - 1, d);
         c++) {
      const int b = d - c;
      const int64_t* row = cnt + c * gr.nb;
      if (row[b] == 0) continue;
      const bool lower =
          std::any_of(row, row + b, [](int64_t x) { return x != 0; });
      const double cost = static_cast<double>(row[b] * scale) * cell_elem +
                          (lower ? chunk : 0.0);
      big = std::max(big, cost);
      sum += cost;
    }
    if (sum > 0) wave += std::max(big, sum / p) + kDiagonalSteps;
  }
  return wave < kWaveShare * static_cast<double>(gr.n) * elem_price(u);
}

// The plan: one cell (g = 1) for small, narrow or sequential solves and
// for inputs whose sampled wavefront does not pay, else g = 4p chunks (at
// most kMaxChunks).
Grid plan(std::span<const int64_t> rank, int64_t u) {
  const int64_t n = static_cast<int64_t>(rank.size());
  if (n < kWavefrontMinN || u < kWavefrontMinU || sequential_mode()) {
    return Grid(n, u, 1);
  }
  const int p = num_workers();
  if (p == 1) return Grid(n, u, 1);
  const Grid gr(n, u, std::min(kMaxChunks, 4 * p));
  std::array<int64_t, kMaxChunks * kMaxChunks> sample{};
  for (int c = 0; c < gr.g; c++) {
    int64_t* row = sample.data() + c * gr.nb;
    for (int64_t i = gr.chunk_lo(c), e = gr.chunk_lo(c + 1); i < e;
         i += kSampleStride) {
      row[rank[i] >> gr.shift]++;
    }
  }
  return wave_pays(gr, sample.data(), kSampleStride, u, p) ? gr
                                                           : Grid(n, u, 1);
}

// Per-cell tables of the wavefront, g x nb row-major arrays carved from the
// borrowed buffer after the per-element length array.
struct Tables {
  static constexpr int kFields = 7;
  int64_t* cnt;    // elements in the cell
  int64_t* first;  // first and last position of the cell's elements
  int64_t* last;
  int64_t* cdp;    // corner: max (dp, len) over earlier chunks, lower blocks
  int64_t* clen;
  int64_t* mdp;    // the cell's own max (dp, len), 0 while empty
  int64_t* mlen;

  Tables(int64_t* at, int64_t cells)
      : cnt(at), first(at + cells), last(at + 2 * cells),
        cdp(at + 3 * cells), clen(at + 4 * cells), mdp(at + 5 * cells),
        mlen(at + 6 * cells) {}
};

// Counts every cell of `gr` (one task per chunk), then runs its diagonals
// in order and each diagonal's non-empty cells in parallel. With `priced`
// it first prices the exact counts and returns false, having run no cell,
// when the wavefront does not pay.
bool run_wave(Pass& pass, const Grid& gr, std::vector<int64_t>& borrowed,
              WlisResult& out, bool priced) {
  const int nb = gr.nb;
  const int64_t cells = int64_t{gr.g} * nb;
  // Sized exactly: a buffer that must grow allocates what it needs. Never
  // shrunk: the rank space's bitmap, which lends it, keeps its words at
  // size between calls, and a shrunk buffer would be zero-filled again.
  const size_t need = static_cast<size_t>(gr.n + Tables::kFields * cells);
  if (borrowed.capacity() < need) {
    borrowed.clear();
    borrowed.reserve(need);
  }
  if (borrowed.size() < need) borrowed.resize(need);
  pass.len = borrowed.data();
  const Tables t(borrowed.data() + gr.n, cells);
  const int64_t* rank = pass.rank;
  const int shift = gr.shift;
  parallel_for(
      0, gr.g,
      [&](int64_t c) {
        // Counted on the stack: the chunks' rows share cache lines.
        std::array<int64_t, kMaxChunks> cnt{}, first{}, last{};
        for (int64_t i = gr.chunk_lo(static_cast<int>(c)),
                     e = gr.chunk_lo(static_cast<int>(c) + 1);
             i < e; i++) {
          const int64_t b = rank[i] >> shift;
          if (cnt[b]++ == 0) first[b] = i;
          last[b] = i;
        }
        std::copy_n(cnt.begin(), nb, t.cnt + c * nb);
        std::copy_n(first.begin(), nb, t.first + c * nb);
        std::copy_n(last.begin(), nb, t.last + c * nb);
      },
      /*grain=*/1);
  if (priced && !wave_pays(gr, t.cnt, 1, pass.u, num_workers())) {
    return false;
  }
  std::fill(t.mdp, t.mdp + cells, 0);
  std::fill(t.mlen, t.mlen + cells, 0);
  std::array<bool, kMaxChunks> column_started{};
  for (int d = 0; d <= gr.g + nb - 2; d++) {
    std::array<int64_t, kMaxChunks> todo;
    std::array<bool, kMaxChunks> zero;
    int m = 0;
    for (int c = std::max(0, d - nb + 1); c <= std::min(gr.g - 1, d); c++) {
      const int b = d - c;
      const int64_t i = int64_t{c} * nb + b;
      // D[c][b] = max(D[c-1][b], D[c][b-1], M[c-1][b-1]).
      int64_t cdp = 0, clen = 0;
      if (c > 0) {
        cdp = t.cdp[i - nb];
        clen = t.clen[i - nb];
      }
      if (b > 0) {
        cdp = std::max(cdp, t.cdp[i - 1]);
        clen = std::max(clen, t.clen[i - 1]);
      }
      if (c > 0 && b > 0) {
        cdp = std::max(cdp, t.mdp[i - nb - 1]);
        clen = std::max(clen, t.mlen[i - nb - 1]);
      }
      t.cdp[i] = cdp;
      t.clen[i] = clen;
      if (t.cnt[i] == 0) continue;
      zero[m] = !column_started[b];
      column_started[b] = true;
      todo[m++] = i;
    }
    parallel_for(
        0, m,
        [&](int64_t k) {
          const int64_t i = todo[k];
          const int64_t b = i % nb;
          // The chunk's first element in a lower block, if any.
          int64_t lower = gr.n;
          for (int64_t j = i - b; j < i; j++) {
            if (t.cnt[j] != 0) lower = std::min(lower, t.first[j]);
          }
          const Node corner{t.cdp[i], t.clen[i]};
          const int64_t hi = t.last[i] + 1;
          const Node mx =
              lower < t.last[i]
                  ? run_cell<Cell::kRow>(pass, std::min(lower, t.first[i]),
                                         hi, b, corner, zero[k])
                  : run_cell<Cell::kNoRow>(pass, t.first[i], hi, b, corner,
                                           zero[k]);
          t.mdp[i] = mx.dp;
          t.mlen[i] = mx.len;
        },
        /*grain=*/1);
  }
  out.best = *std::max_element(t.mdp, t.mdp + cells);
  out.k = static_cast<int32_t>(*std::max_element(t.mlen, t.mlen + cells));
  return true;
}

// Runs `gr`'s schedule over `rank`: the wavefront when gr.g > 1 (unless,
// with `priced`, its exact counts do not pay), otherwise one cell.
void run_pass(std::span<const int64_t> rank, int64_t universe,
              std::span<const int64_t> w, WlisSweepScratch& s,
              std::vector<int64_t>& borrowed, WlisResult& out,
              const Grid& gr, bool priced) {
  assert(rank.size() == w.size());
  const int64_t n = static_cast<int64_t>(rank.size());
  out.dp.resize(static_cast<size_t>(n));
  out.best = 0;
  out.k = 0;
  const size_t nodes = static_cast<size_t>(universe) + 1;
  Pass pass{rank.data(), w.data(), out.dp.data(), nullptr,
            nullptr, universe, gr.shift};
  if (gr.g > 1 && n > 0) {
    // Sized exactly like assign(u + 1); each block's first cell zeroes its
    // nodes.
    if (s.fenwick.capacity() < nodes) {
      s.fenwick.clear();
      s.fenwick.reserve(nodes);
    }
    s.fenwick.resize(nodes);
    pass.fenwick = s.fenwick.data();
    if (run_wave(pass, gr, borrowed, out, priced)) return;
  }
  // Node 0 is unused: rank r lives at node r + 1, so the ranks below r are
  // the prefix [1, r]. Zeroed up front: inside the kernel the one-cell
  // pass at 10^6 read 5-10% slower.
  s.fenwick.assign(nodes, Node{0, 0});
  if (n == 0) return;
  pass.len = nullptr;
  pass.fenwick = s.fenwick.data();
  pass.shift = Grid(n, universe, 1).shift;
  const Node mx =
      run_cell<Cell::kOne>(pass, 0, n, 0, Node{0, 0}, /*zero=*/false);
  out.best = mx.dp;
  out.k = static_cast<int32_t>(mx.len);
}

}  // namespace

// Cache-line aligned, like internal::patience_ranks.
[[gnu::aligned(64)]] void wlis_sweep_into(
    std::span<const int64_t> rank, int64_t universe,
    std::span<const int64_t> w, WlisSweepScratch& s,
    std::vector<int64_t>& borrowed, WlisResult& out) {
  run_pass(rank, universe, w, s, borrowed, out, plan(rank, universe),
           /*priced=*/true);
}

namespace internal {

void wlis_wavefront_into(std::span<const int64_t> rank, int64_t universe,
                         std::span<const int64_t> w, WlisSweepScratch& s,
                         std::vector<int64_t>& borrowed, int chunks,
                         WlisResult& out) {
  const Grid gr(static_cast<int64_t>(rank.size()), universe,
                std::clamp(chunks, 1, kMaxChunks));
  run_pass(rank, universe, w, s, borrowed, out, gr, /*priced=*/false);
}

}  // namespace internal

}  // namespace parlis
