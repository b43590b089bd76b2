// Tests for the bit-packed word layer (veb_words.hpp) and the tree built
// on it: randomized differentials of the word/block kernels and of VebTree
// (one internal level below 2^24, two at 2^32) vs a std::set oracle
// (dense, sparse, boundary-straddling, and all-64-set patterns), the
// zero-leaf-allocation gate, and the tracking-allocator accounting itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "parlis/parallel/random.hpp"
#include "parlis/util/arena.hpp"
#include "parlis/util/tracking_allocator.hpp"
#include "parlis/veb/veb_tree.hpp"
#include "parlis/veb/veb_words.hpp"

namespace parlis {
namespace {

using veb_words::kWordNone;
using veb_words::WordBlock4096;
using veb_words::WordLeaf;

// -------------------------------------------------------- word leaf kernels

// Oracle check of one leaf state against a std::set over the same keys.
template <typename W>
void expect_leaf_matches(const WordLeaf<W>& leaf,
                         const std::set<uint64_t>& ref) {
  ASSERT_EQ(leaf.count(), static_cast<int>(ref.size()));
  if (ref.empty()) {
    EXPECT_TRUE(leaf.empty());
    EXPECT_EQ(leaf.min(), kWordNone);
    EXPECT_EQ(leaf.max(), kWordNone);
    return;
  }
  EXPECT_EQ(leaf.min(), *ref.begin());
  EXPECT_EQ(leaf.max(), *ref.rbegin());
  for (uint64_t x = 0; x < leaf.universe(); x++) {
    ASSERT_EQ(leaf.contains(x), ref.count(x) > 0) << "x=" << x;
    auto s = ref.upper_bound(x);
    ASSERT_EQ(leaf.succ_gt(x), s == ref.end() ? kWordNone : *s) << "x=" << x;
    auto p = ref.lower_bound(x);
    ASSERT_EQ(leaf.pred_lt(x),
              p == ref.begin() ? kWordNone : *std::prev(p))
        << "x=" << x;
  }
  // pred of the universe bound (the post-clamp query).
  EXPECT_EQ(leaf.pred_lt(leaf.universe()), *ref.rbegin());
}

template <typename W>
void leaf_random_ops(uint64_t seed) {
  WordLeaf<W> leaf;
  std::set<uint64_t> ref;
  const uint64_t u = leaf.universe();
  for (int op = 0; op < 600; op++) {
    uint64_t x = uniform(seed, op, u);
    if (hash64(seed + 1, op) % 3 == 0) {
      leaf.erase(x);
      ref.erase(x);
    } else {
      leaf.insert(x);
      ref.insert(x);
    }
    if (op % 37 == 0) expect_leaf_matches(leaf, ref);
  }
  expect_leaf_matches(leaf, ref);
  // Saturate: the all-set word exercises the countl/countr extremes.
  for (uint64_t x = 0; x < u; x++) {
    leaf.insert(x);
    ref.insert(x);
  }
  expect_leaf_matches(leaf, ref);
  for (uint64_t x = 0; x < u; x++) {
    leaf.erase(x);
    ref.erase(x);
  }
  expect_leaf_matches(leaf, ref);
}

TEST(VebWords, Leaf8MatchesStdSet) { leaf_random_ops<uint8_t>(11); }
TEST(VebWords, Leaf16MatchesStdSet) { leaf_random_ops<uint16_t>(12); }
TEST(VebWords, Leaf32MatchesStdSet) { leaf_random_ops<uint32_t>(13); }
TEST(VebWords, Leaf64MatchesStdSet) { leaf_random_ops<uint64_t>(14); }

TEST(VebWords, LeafBoundaryBits) {
  // Lowest/highest bit of each width: the shift-count edge cases.
  WordLeaf<uint64_t> leaf;
  leaf.insert(0);
  leaf.insert(63);
  EXPECT_EQ(leaf.min(), 0u);
  EXPECT_EQ(leaf.max(), 63u);
  EXPECT_EQ(leaf.succ_gt(0), 63u);
  EXPECT_EQ(leaf.succ_gt(62), 63u);
  EXPECT_EQ(leaf.succ_gt(63), kWordNone);
  EXPECT_EQ(leaf.pred_lt(63), 0u);
  EXPECT_EQ(leaf.pred_lt(1), 0u);
  EXPECT_EQ(leaf.pred_lt(0), kWordNone);
}

// ------------------------------------------------------- 4096-word block ---

void expect_block_matches(const WordBlock4096& blk,
                          const std::set<uint64_t>& ref,
                          const std::vector<uint64_t>& probes) {
  ASSERT_EQ(blk.count(), static_cast<int64_t>(ref.size()));
  if (ref.empty()) {
    EXPECT_TRUE(blk.empty());
    EXPECT_EQ(blk.min(), kWordNone);
    EXPECT_EQ(blk.max(), kWordNone);
  } else {
    EXPECT_EQ(blk.min(), *ref.begin());
    EXPECT_EQ(blk.max(), *ref.rbegin());
  }
  for (uint64_t x : probes) {
    ASSERT_EQ(blk.contains(x), ref.count(x) > 0) << "x=" << x;
    auto s = ref.upper_bound(x);
    ASSERT_EQ(blk.succ_gt(x), s == ref.end() ? kWordNone : *s) << "x=" << x;
    auto p = ref.lower_bound(x);
    ASSERT_EQ(blk.pred_lt(x), p == ref.begin() ? kWordNone : *std::prev(p))
        << "x=" << x;
  }
}

std::vector<uint64_t> block_probes(uint64_t seed) {
  // Random probes plus every word-boundary straddle (x in {w*64 - 1, w*64,
  // w*64 + 1}): the succ/pred summary handoff points.
  std::vector<uint64_t> probes;
  for (int i = 0; i < 128; i++) probes.push_back(uniform(seed, i, 4096));
  for (uint64_t w = 1; w < 64; w++) {
    probes.push_back(w * 64 - 1);
    probes.push_back(w * 64);
    probes.push_back(w * 64 + 1);
  }
  probes.push_back(0);
  probes.push_back(4095);
  return probes;
}

TEST(VebWords, BlockDenseMatchesStdSet) {
  WordBlock4096 blk;
  std::set<uint64_t> ref;
  for (int op = 0; op < 8000; op++) {
    uint64_t x = uniform(21, op, 4096);
    if (hash64(22, op) % 3 == 0) {
      blk.erase(x);
      ref.erase(x);
    } else {
      blk.insert(x);
      ref.insert(x);
    }
  }
  expect_block_matches(blk, ref, block_probes(23));
}

TEST(VebWords, BlockSparseMatchesStdSet) {
  WordBlock4096 blk;
  std::set<uint64_t> ref;
  for (int i = 0; i < 12; i++) {
    uint64_t x = uniform(31, i, 4096);
    blk.insert(x);
    ref.insert(x);
  }
  expect_block_matches(blk, ref, block_probes(32));
}

TEST(VebWords, BlockBoundaryStraddling) {
  // Keys hugging every word boundary: summary handoff in both directions.
  WordBlock4096 blk;
  std::set<uint64_t> ref;
  for (uint64_t w = 1; w < 64; w++) {
    for (uint64_t x : {w * 64 - 1, w * 64, w * 64 + 1}) {
      blk.insert(x);
      ref.insert(x);
    }
  }
  expect_block_matches(blk, ref, block_probes(41));
  // Erase the exact boundaries, keep the stragglers.
  for (uint64_t w = 1; w < 64; w++) {
    blk.erase(w * 64);
    ref.erase(w * 64);
  }
  expect_block_matches(blk, ref, block_probes(42));
}

TEST(VebWords, BlockAllSetAndFullWords) {
  // Full universe, then tear whole words out of the middle: exercises the
  // all-64-set word pattern and summary-bit clearing.
  WordBlock4096 blk;
  std::set<uint64_t> ref;
  for (uint64_t x = 0; x < 4096; x++) {
    blk.insert(x);
    ref.insert(x);
  }
  expect_block_matches(blk, ref, block_probes(51));
  for (uint64_t w = 10; w < 20; w++) {
    for (uint64_t x = w * 64; x < (w + 1) * 64; x++) {
      blk.erase(x);
      ref.erase(x);
    }
  }
  expect_block_matches(blk, ref, block_probes(52));
}

TEST(VebWords, BlockForEachRange) {
  WordBlock4096 blk;
  std::set<uint64_t> ref;
  for (int i = 0; i < 300; i++) {
    uint64_t x = uniform(61, i, 4096);
    blk.insert(x);
    ref.insert(x);
  }
  for (int q = 0; q < 50; q++) {
    uint64_t lo = uniform(62, q, 4096);
    uint64_t hi = uniform(63, q, 4096);
    if (lo > hi) std::swap(lo, hi);
    std::vector<uint64_t> got;
    blk.for_each(lo, hi, [&](uint64_t k) { got.push_back(k); });
    std::vector<uint64_t> want(ref.lower_bound(lo), ref.upper_bound(hi));
    ASSERT_EQ(got, want) << "lo=" << lo << " hi=" << hi;
  }
}

// ------------------------------------------- tree vs std::set differential ---

struct LayoutCase {
  uint64_t universe;
  uint64_t seed;
};

class VebWordsLayoutDiff : public ::testing::TestWithParam<LayoutCase> {};

TEST_P(VebWordsLayoutDiff, PointOpsMatchStdSet) {
  auto [universe, seed] = GetParam();
  VebTree word(universe);
  std::set<uint64_t> ref;
  for (int op = 0; op < 4000; op++) {
    uint64_t x = uniform(seed, op, universe);
    switch (hash64(seed + 1, op) % 5) {
      case 0:
        word.insert(x);
        ref.insert(x);
        break;
      case 1:
        word.erase(x);
        ref.erase(x);
        break;
      case 2: {
        ASSERT_EQ(word.contains(x), ref.count(x) > 0);
        break;
      }
      case 3: {
        auto a = word.pred_lt(x);
        auto r = ref.lower_bound(x);
        ASSERT_EQ(a.has_value(), r != ref.begin());
        if (a) {
          ASSERT_EQ(*a, *std::prev(r));
        }
        break;
      }
      default: {
        auto a = word.succ_gt(x);
        auto r = ref.upper_bound(x);
        ASSERT_EQ(a.has_value(), r != ref.end());
        if (a) {
          ASSERT_EQ(*a, *r);
        }
      }
    }
    ASSERT_EQ(word.size(), static_cast<int64_t>(ref.size()));
  }
  EXPECT_EQ(word.check_invariants(), static_cast<int64_t>(ref.size()));
}

TEST_P(VebWordsLayoutDiff, BatchOpsAndRangeMatchStdSet) {
  auto [universe, seed] = GetParam();
  VebTree word(universe);
  std::set<uint64_t> ref;
  for (int round = 0; round < 12; round++) {
    // Insert a sorted random batch, delete a different one, cross-check a
    // range scan — the three Alg. 4/5/6 surfaces in one loop.
    std::vector<uint64_t> ins;
    for (int i = 0; i < 200; i++) {
      ins.push_back(uniform(seed + round, i, universe));
    }
    std::sort(ins.begin(), ins.end());
    ins.erase(std::unique(ins.begin(), ins.end()), ins.end());
    int64_t fresh = 0;
    for (uint64_t x : ins) fresh += ref.insert(x).second ? 1 : 0;
    ASSERT_EQ(word.batch_insert(ins), fresh);

    std::vector<uint64_t> del;
    for (int i = 0; i < 120; i++) {
      del.push_back(uniform(seed + round + 1000, i, universe));
    }
    std::sort(del.begin(), del.end());
    del.erase(std::unique(del.begin(), del.end()), del.end());
    int64_t present = 0;
    for (uint64_t x : del) present += static_cast<int64_t>(ref.erase(x));
    ASSERT_EQ(word.batch_delete(del), present);

    uint64_t lo = uniform(seed + round, 7777, universe);
    uint64_t hi = uniform(seed + round, 8888, universe);
    if (lo > hi) std::swap(lo, hi);
    std::vector<uint64_t> want(ref.lower_bound(lo), ref.upper_bound(hi));
    ASSERT_EQ(word.range(lo, hi), want);

    ASSERT_EQ(word.size(), static_cast<int64_t>(ref.size()));
    word.check_invariants();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VebWordsLayoutDiff,
    ::testing::Values(LayoutCase{64, 101}, LayoutCase{100, 102},
                      LayoutCase{4095, 103}, LayoutCase{4096, 104},
                      LayoutCase{4097, 105}, LayoutCase{1 << 16, 106},
                      LayoutCase{1 << 20, 107},
                      LayoutCase{uint64_t{1} << 32, 108}));

// ---------------------------------------------- allocation accounting ---

TEST(TrackingAllocator, CountsContainerTraffic) {
  AllocStats stats;
  {
    std::vector<uint64_t, TrackingAllocator<uint64_t>> v{
        TrackingAllocator<uint64_t>(&stats)};
    for (int i = 0; i < 1000; i++) v.push_back(i);
    EXPECT_GE(stats.live_bytes.load(), 1000 * 8);
    EXPECT_GE(stats.peak_bytes.load(), stats.live_bytes.load());
    EXPECT_GT(stats.allocations.load(), 0);
  }
  EXPECT_EQ(stats.live_bytes.load(), 0);  // vector freed everything
  EXPECT_GE(stats.total_bytes.load(), stats.peak_bytes.load());
  stats.reset();
  EXPECT_EQ(stats.total_bytes.load(), 0);
}

TEST(TrackingAllocator, ArenaReportsChunkTraffic) {
  AllocStats stats;
  {
    Arena arena(Arena::kDefaultChunkBytes, &stats);
    (void)arena.create_array<uint64_t>(10000);  // oversized -> dedicated chunk
    (void)arena.create<int>(7);
    EXPECT_GE(stats.live_bytes.load(), 80000);
    EXPECT_GE(arena.bytes_allocated(), 80000u + sizeof(int));
    EXPECT_LE(arena.bytes_allocated(), arena.reserved_bytes());
  }
  EXPECT_EQ(stats.live_bytes.load(), 0);  // arena death released the chunks
}

TEST(VebWords, ZeroLeafAllocationsAtWordUniverse) {
  // Universe <= 4096: the whole tree is the root node plus one
  // lazily-created word array. After the first insert faults the
  // array in, no further insert/erase touches the allocator.
  Arena pool;
  VebTree t(4096, &pool);
  t.insert(uniform(401, 0, 4096));
  size_t after_first = pool.bytes_allocated();
  for (int i = 1; i < 4096; i++) t.insert(uniform(401, i, 4096));
  for (int i = 0; i < 2048; i++) t.erase(uniform(401, i, 4096));
  EXPECT_EQ(pool.bytes_allocated(), after_first);
  t.check_invariants();
}

}  // namespace
}  // namespace parlis
