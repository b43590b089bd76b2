// rank_only_into's bitmap path (util/rank_space.hpp), compiled once here
// rather than inline into each caller.
//
// The plan runs a min/max pass per 4096-key block, the bit set with a
// popcount prefix over the words, and the rank pass. From kRankPoolMinN
// keys up, outside (thread-)sequential mode and on 2 or more workers, the
// min/max pass runs on the pool. The word range is then cut into 2p to 4p
// segments of 2^shift words, and where the keys are banded (kSegments)
// each segment zeroes, sets and popcounts only its own words, reading only
// the blocks whose [min, max] meets it: no two tasks write one word, so it
// needs no atomics. A short scan of the segments' totals on the caller and
// a pooled rank pass follow. The segments' reads add up to n times the
// segments a block meets, so when they pass 2n (keys spread over the whole
// range) the set, prefix and rank run on the calling thread (kCaller), as
// they do below the threshold. Under kNonDecreasing the per-rank counts
// run on the calling thread.
#include "parlis/util/rank_space.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>

#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/scheduler.hpp"

namespace parlis::internal {
namespace {

constexpr int64_t kBlock = 4096;  // keys per min/max block
constexpr int kMaxSegments = 128;
// kSegments while the keys its segments read number at most this many
// times n (EXPERIMENTS.md, "Rank on the pool").
constexpr int64_t kSegmentReadsPerKey = 2;

// In uint64: INT64_MIN with INT64_MAX spans 2^64 - 1, past int64.
uint64_t words_over(int64_t lo, int64_t hi) {
  return (static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo)) / 64 + 1;
}

// The min and max of keys [lo, hi) into *mn and *mx. A plain loop over
// locals: GCC vectorizes no std::min/std::max form of it.
void block_min_max(const int64_t* keys, int64_t lo, int64_t hi, int64_t* mn,
                   int64_t* mx) {
  int64_t a = keys[lo], b = keys[lo];
  for (int64_t i = lo; i < hi; i++) {
    const int64_t v = keys[i];
    a = v < a ? v : a;
    b = v > b ? v : b;
  }
  *mn = a;
  *mx = b;
}

// rank[i] for keys [lo, hi): the present keys below key i's bit in its
// word, plus prefix[w], plus (kSegments) the keys of the segments before
// w's. The caller's instance reads no segment offset, which keeps it as
// fast as one loop over a global prefix.
template <bool kSegments>
void rank_keys(const int64_t* keys, int64_t lo, int64_t hi, uint64_t base,
               const uint64_t* bits, const int64_t* prefix,
               const int64_t* seg_base, int shift, int64_t* rank) {
  for (int64_t i = lo; i < hi; i++) {
    const uint64_t off = static_cast<uint64_t>(keys[i]) - base;
    const uint64_t w = off >> 6;
    int64_t r = prefix[w] +
                std::popcount(bits[w] & ((uint64_t{1} << (off & 63)) - 1));
    if constexpr (kSegments) r += seg_base[w >> shift];
    rank[i] = r;
  }
}

}  // namespace

BitmapPath rank_by_bitmap(std::span<const int64_t> keys, TiesPolicy ties,
                          RankSpace& rs, RankSpaceScratch& scratch) {
  const int64_t n = static_cast<int64_t>(keys.size());
  if (n == 0) return BitmapPath::kTooWide;
  const uint64_t cap = rank_only_max_words(n);
  // In this order, so no case that stays on the caller starts the pool.
  const int p = n < kRankPoolMinN || sequential_mode() ? 1 : num_workers();
  const bool pooled = p > 1;
  const int64_t nblocks = (n + kBlock - 1) / kBlock;
  int64_t* bmin = hold(scratch.carry_qpos, static_cast<size_t>(nblocks));
  int64_t* bmax = hold(scratch.carry_rank, static_cast<size_t>(nblocks));
  const int64_t* kp = keys.data();
  auto scan_block = [&](int64_t b) {
    block_min_max(kp, b * kBlock, std::min(n, (b + 1) * kBlock), bmin + b,
                  bmax + b);
  };
  // A wide span leaves for the sort early: on the caller after the first
  // block that takes the running span past the cap, on the pool once a
  // block's own span passes it.
  int64_t lo = keys[0], hi = keys[0];
  if (pooled) {
    std::atomic<bool> wide{false};
    parallel_for(0, nblocks, [&](int64_t b) {
      if (wide.load(std::memory_order_relaxed)) return;
      scan_block(b);
      if (words_over(bmin[b], bmax[b]) > cap) {
        wide.store(true, std::memory_order_relaxed);
      }
    });
    if (wide.load(std::memory_order_relaxed)) return BitmapPath::kTooWide;
  }
  for (int64_t b = 0; b < nblocks; b++) {
    if (!pooled) scan_block(b);
    lo = std::min(lo, bmin[b]);
    hi = std::max(hi, bmax[b]);
    if (words_over(lo, hi) > cap) return BitmapPath::kTooWide;
  }
  const uint64_t base = static_cast<uint64_t>(lo);
  const uint64_t words = words_over(lo, hi);
  auto word_of = [base](int64_t v) {
    return (static_cast<uint64_t>(v) - base) >> 6;
  };
  auto bit_of = [base](int64_t v) {
    return uint64_t{1} << ((static_cast<uint64_t>(v) - base) & 63);
  };

  // Segment s owns words [s << shift, (s + 1) << shift), 2p to 4p of them.
  int shift = 0;
  bool segments = false;
  if (pooled) {
    const uint64_t most = static_cast<uint64_t>(std::min(kMaxSegments, 4 * p));
    while (((words - 1) >> shift) + 1 > most) shift++;
    int64_t reads = 0;
    for (int64_t b = 0; b < nblocks; b++) {
      const int64_t met = static_cast<int64_t>((word_of(bmax[b]) >> shift) -
                                               (word_of(bmin[b]) >> shift)) +
                          1;
      reads += (std::min(n, (b + 1) * kBlock) - b * kBlock) * met;
    }
    segments = reads <= kSegmentReadsPerKey * n;
  }

  rs.order.clear();
  rs.pos.clear();
  rs.qpos.clear();
  resize_exact(rs.rank, static_cast<size_t>(n));
  int64_t* rank = rs.rank.data();
  uint64_t* bits = hold(scratch.run_masks, words);
  int64_t* prefix = hold(scratch.sort_buf, words);
  int64_t distinct = 0;
  if (segments) {
    // prefix[w]: the present keys in w's segment, in words before w.
    const int64_t nseg = static_cast<int64_t>(((words - 1) >> shift) + 1);
    // Each segment's present keys, then the present keys before it.
    std::array<int64_t, kMaxSegments> seg{};
    parallel_for(
        0, nseg,
        [&](int64_t s) {
          const uint64_t us = static_cast<uint64_t>(s);
          const uint64_t w0 = us << shift;
          const uint64_t w1 = std::min(words, w0 + (uint64_t{1} << shift));
          std::fill(bits + w0, bits + w1, 0);
          for (int64_t b = 0; b < nblocks; b++) {
            if ((word_of(bmin[b]) >> shift) > us ||
                (word_of(bmax[b]) >> shift) < us) {
              continue;
            }
            for (int64_t i = b * kBlock, e = std::min(n, i + kBlock); i < e;
                 i++) {
              const uint64_t w = word_of(kp[i]);
              if ((w >> shift) == us) bits[w] |= bit_of(kp[i]);
            }
          }
          int64_t c = 0;
          for (uint64_t w = w0; w < w1; w++) {
            prefix[w] = c;
            c += std::popcount(bits[w]);
          }
          seg[s] = c;
        },
        /*grain=*/1);
    for (int64_t s = 0; s < nseg; s++) {
      const int64_t c = seg[s];
      seg[s] = distinct;
      distinct += c;
    }
    parallel_for(0, nblocks, [&](int64_t b) {
      rank_keys<true>(kp, b * kBlock, std::min(n, (b + 1) * kBlock), base,
                      bits, prefix, seg.data(), shift, rank);
    });
  } else {
    // prefix[w]: the present keys in words before w.
    std::fill(bits, bits + words, 0);
    for (const int64_t v : keys) bits[word_of(v)] |= bit_of(v);
    for (uint64_t w = 0; w < words; w++) {
      prefix[w] = distinct;
      distinct += std::popcount(bits[w]);
    }
    rank_keys<false>(kp, 0, n, base, bits, prefix, nullptr, 0, rank);
  }
  rs.n_distinct = distinct;
  if (ties == TiesPolicy::kNonDecreasing) {
    // The stable (key, index) position: a key's slots start after every
    // smaller key's occurrences, and equal keys take them in input order.
    // The counts reuse the prefix's buffer.
    int64_t* next = hold(scratch.sort_buf, static_cast<size_t>(distinct));
    std::fill(next, next + distinct, 0);
    for (int64_t i = 0; i < n; i++) next[rank[i]]++;
    for (int64_t r = 0, start = 0; r < distinct; r++) {
      const int64_t c = next[r];
      next[r] = start;
      start += c;
    }
    for (int64_t i = 0; i < n; i++) rank[i] = next[rank[i]]++;
    rs.n_distinct = n;
  }
  return segments ? BitmapPath::kSegments : BitmapPath::kCaller;
}

}  // namespace parlis::internal
