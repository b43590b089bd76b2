// Parallel tournament tree (Sec. 3, Fig. 4 of the paper).
//
// Conceptually a complete min-tree over the input. Supports:
//
//  * parallel construction: O(n) work, O(log n) span (Thm. 3.1),
//  * extract_frontier: the PrefixMin traversal of Alg. 1 — finds every
//    *prefix-min* leaf (<= all live leaves before it), reports it, and
//    removes it (sets it to +inf), in O(m log(n/m)) work for m reported
//    leaves; it returns m,
//  * extract_frontier_collect / extract_frontier_collect_into: the two-pass
//    variant of Appendix A that also writes the frontier's leaf indices, in
//    input order, into an array (pass 1 counts per-subtree "effective sizes"
//    without modifying the tree; pass 2 places indices and removes the
//    leaves). The _into form writes into a caller-owned buffer so repeated
//    rounds allocate nothing.
//
// Layout: the textbook implicit layout (children of node i at 2i, 2i+1 over
// one big array) scatters a root-to-leaf path across O(log n) distant
// regions, so every step below the cached top levels is a DRAM miss. The
// tree here is stored *blocked and flat* (the cache-friendly implicit-vEB
// style): the bottom 512-leaf subtrees each live in one contiguous chunk
// laid out as three 8-ary levels —
//
//      [ 8 supergroup minima | 64 group minima | 512 leaves ]
//
// — and a small implicit binary "top" tree over the per-block minima stays
// cache-hot (n/512 entries). A prefix-min descent into a block reads the
// one supergroup line, one group line per entered supergroup and one leaf
// line per entered group, instead of ~2 lines per binary level; the whole
// structure is ~1.14 entries per leaf instead of 2. Each 8-entry scan is a
// left-to-right prefix-min sweep (enter child iff its pre-round minimum is
// <= the running bound; the bound then absorbs that minimum), which visits
// exactly the leaves the binary traversal visits, so the reported frontiers
// — and the Thm. 3.2 O(n log k) bound on the visit counter — are unchanged.
// Entering a node still guarantees a report beneath it, which is what the
// work bound charges against.
//
// Traversals fork only in the top tree; inside a block they run sequentially
// and batch their visit count into a single WorkerCounter update, so
// instrumentation costs one cache-local store per block visit instead of a
// shared atomic RMW per node (the counter counts considered child entries,
// the 8-ary analogue of per-node visits).
//
// Round granularity: the tree owns the fork decision of every round. A
// round whose predicted frontier is below kRoundGrain descends the top tree
// with plain calls instead of par_do. The prediction is the previous
// round's frontier size m (n before the first round); the placing pass of a
// two-pass extraction uses its counting pass's exact m. Forking costs a few
// microseconds a round, while a frontier of ~10 leaves is well under one
// microsecond of work, so deep inputs (k near n) otherwise spend nearly all
// their time in the scheduler. A mispredicted inline round does not stay
// sequential: once its blocks have reported kRoundGrain leaves, the fork
// sites it has not reached yet fork again. The visited entries, and so the
// work and the visit counter, are the same either way; an inline round
// (or inline prefix) reports at most kRoundGrain + 512 leaves and adds at
// most O(kRoundGrain log n) to the span, so the O~(k) span bound still
// holds.
//
// Storage lives in a TournamentStorage<T>, either owned by the tree (the
// one-shot free functions) or injected by the caller (lis_ranks_into,
// lis_frontiers_into, WlisWorkspace: the vectors' capacity survives the
// tree object, so rebuilding a tree of the same size performs zero heap
// allocations).
//
// The element type T needs operator< and a user-supplied +inf sentinel. An
// input value not below inf would read as an already-removed leaf; the
// build pass flags it (has_inf_input()) so callers can rerun on a rank image.
//
// SIMD: for int64 keys under std::less the block sweeps run the AVX-512
// kernels below (this tree is their only caller); min8 is scalar.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <functional>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/worker_counter.hpp"
#include "parlis/util/resident.hpp"
#include "parlis/util/simd.hpp"

namespace parlis {

// ------------------------------------------------------- level sweeps ---
// The blocks' 8-entry sweeps for int64 keys under std::less ("Vector form"
// below), each with its scalar twin and dispatch (toggle: util/simd.hpp).

namespace simd {

/// Candidate mask of an 8-ary tournament level: bit j set iff
/// p[j] <= bound && p[j] < inf. The prefix-min sweep only ever enters or
/// absorbs children in this set (any child with p[j] > bound can neither
/// qualify against the running bound, which starts at `bound` and only
/// decreases, nor lower it), so the caller walks just these bits.
inline uint32_t cand_mask8_i64_scalar(const int64_t* p, int64_t bound,
                                      int64_t inf) {
  uint32_t m = 0;
  for (int j = 0; j < 8; j++) {
    if (p[j] <= bound && p[j] < inf) m |= uint32_t{1} << j;
  }
  return m;
}

/// Leaf-level prefix-min extraction sweep: exactly the scalar loop
///
///   cur = bound;
///   for j in 0..8: x = p[j];
///     if (x <= cur && x < inf) { extracted |= 1 << j; p[j] = inf; }
///     if (x < cur) cur = x;
///
/// i.e. lane j is extracted iff p[j] <= min(bound, p[0..j-1]) (the running
/// bound is exactly the exclusive prefix-min) and p[j] < inf. Extracted
/// lanes are overwritten with inf, `*new_min` receives the post-sweep
/// min-of-8, and the extracted-lane mask is returned. The vector form
/// computes the exclusive prefix-min across lanes, so the whole sweep —
/// including the level-min refresh — runs branchless out of registers.
inline uint32_t sweep8_extract_i64_scalar(int64_t* p, int64_t bound,
                                          int64_t inf, int64_t* new_min) {
  int64_t cur = bound;
  uint32_t extracted = 0;
  for (int j = 0; j < 8; j++) {
    const int64_t x = p[j];
    if (x <= cur && x < inf) {
      extracted |= uint32_t{1} << j;
      p[j] = inf;
    }
    if (x < cur) cur = x;
  }
  *new_min = *std::min_element(p, p + 8);
  return extracted;
}

/// Counting twin of sweep8_extract: the same sweep without mutation, i.e.
/// #lanes with p[j] <= min(bound, p[0..j-1]) && p[j] < inf.
inline int64_t sweep8_count_i64_scalar(const int64_t* p, int64_t bound,
                                       int64_t inf) {
  int64_t cur = bound;
  int64_t c = 0;
  for (int j = 0; j < 8; j++) {
    const int64_t x = p[j];
    if (x <= cur && x < inf) c++;
    if (x < cur) cur = x;
  }
  return c;
}

#if PARLIS_SIMD_BACKEND == 4
namespace detail {

// Lane shift toward higher indices by (8 - imm) quadwords, vacated low
// lanes filled from the top of `fill`: valignr concatenates [v | fill] and
// takes quadwords imm..imm+7.
#define PARLIS_SHIFT_UP_512(v, fill, by) _mm512_alignr_epi64(v, fill, 8 - (by))

// Exclusive prefix-min over the 8 lanes of v seeded with `bound`:
// e[j] = min(bound, v[0..j-1]). Three shift+min steps build the inclusive
// prefix, one more shifts it to exclusive and folds the seed in.
inline __m512i eprefix_min8_512(__m512i v, __m512i bound, __m512i inf) {
  __m512i i = _mm512_min_epi64(v, PARLIS_SHIFT_UP_512(v, inf, 1));
  i = _mm512_min_epi64(i, PARLIS_SHIFT_UP_512(i, inf, 2));
  i = _mm512_min_epi64(i, PARLIS_SHIFT_UP_512(i, inf, 4));
  return _mm512_min_epi64(bound, PARLIS_SHIFT_UP_512(i, inf, 1));
}

inline uint32_t cand_mask8_i64_vec(const int64_t* p, int64_t bound,
                                   int64_t inf) {
  __m512i v = _mm512_loadu_si512(p);
  return static_cast<uint32_t>(
      _mm512_cmple_epi64_mask(v, _mm512_set1_epi64(bound)) &
      _mm512_cmplt_epi64_mask(v, _mm512_set1_epi64(inf)));
}

inline uint32_t sweep8_extract_i64_vec(int64_t* p, int64_t bound, int64_t inf,
                                       int64_t* new_min) {
  __m512i I = _mm512_set1_epi64(inf);
  __m512i v = _mm512_loadu_si512(p);
  __m512i e = eprefix_min8_512(v, _mm512_set1_epi64(bound), I);
  // Lane j extracted iff p[j] <= e[j] && p[j] < inf.
  __mmask8 ext = _mm512_cmple_epi64_mask(v, e) & _mm512_cmplt_epi64_mask(v, I);
  __m512i nv = _mm512_mask_mov_epi64(v, ext, I);
  _mm512_storeu_si512(p, nv);
  *new_min = _mm512_reduce_min_epi64(nv);
  return ext;
}

inline int64_t sweep8_count_i64_vec(const int64_t* p, int64_t bound,
                                    int64_t inf) {
  __m512i I = _mm512_set1_epi64(inf);
  __m512i v = _mm512_loadu_si512(p);
  __m512i e = eprefix_min8_512(v, _mm512_set1_epi64(bound), I);
  return std::popcount(static_cast<uint32_t>(
      _mm512_cmple_epi64_mask(v, e) & _mm512_cmplt_epi64_mask(v, I)));
}

}  // namespace detail
#endif  // PARLIS_SIMD_BACKEND == 4

// Dispatch: each reads the runtime toggle once; on scalar-only builds the
// toggle is constant-false and the wrapper inlines to the twin.

inline uint32_t cand_mask8_i64(const int64_t* p, int64_t bound, int64_t inf) {
#if PARLIS_SIMD_BACKEND == 4
  if (enabled()) return detail::cand_mask8_i64_vec(p, bound, inf);
#endif
  return cand_mask8_i64_scalar(p, bound, inf);
}

inline uint32_t sweep8_extract_i64(int64_t* p, int64_t bound, int64_t inf,
                                   int64_t* new_min) {
#if PARLIS_SIMD_BACKEND == 4
  if (enabled()) return detail::sweep8_extract_i64_vec(p, bound, inf, new_min);
#endif
  return sweep8_extract_i64_scalar(p, bound, inf, new_min);
}

inline int64_t sweep8_count_i64(const int64_t* p, int64_t bound, int64_t inf) {
#if PARLIS_SIMD_BACKEND == 4
  if (enabled()) return detail::sweep8_count_i64_vec(p, bound, inf);
#endif
  return sweep8_count_i64_scalar(p, bound, inf);
}

}  // namespace simd

/// Frontier size below which a round runs inline on the calling thread
/// (see "Round granularity" above). Set from the interleaved pooled vs
/// one-thread sweep in EXPERIMENTS.md (n = 2^20, 4 workers): with 256 the
/// pooled solve read 1.7x the one-thread time at a mean frontier of 230,
/// with 512 up to 1.09x, with 1024 at most 1.03x at every k.
inline constexpr int64_t kRoundGrain = 1024;

/// Reusable backing storage for a TournamentTree. Inject one into repeated
/// constructions and the buffers are recycled (assign within capacity); the
/// visit counter lives here too, because its lazily-created per-worker slot
/// array must not be reallocated per solve.
template <typename T>
struct TournamentStorage {
  std::vector<T> blocks;        // flat 8-ary block chunks
  std::vector<T> top;           // implicit binary tree over block minima
  std::vector<int64_t> count;   // two-pass extraction pass-1 scratch
  WorkerCounter visits;

  /// Measured heap bytes held (vector capacities + the visit counter's
  /// per-worker slot array); the serving layer's eviction accounting.
  size_t resident_bytes() const {
    return vec_bytes(blocks) + vec_bytes(top) + vec_bytes(count) +
           visits.resident_bytes();
  }
};

template <typename T, typename Less = std::less<T>>
class TournamentTree {
 public:
  /// Builds the tree over `xs`; `inf` must compare greater than every input
  /// under `less`.
  TournamentTree(std::span<const T> xs, T inf, Less less = Less{})
      : TournamentTree(xs, inf, nullptr, less) {}

  TournamentTree(const std::vector<T>& xs, T inf, Less less = Less{})
      : TournamentTree(std::span<const T>(xs.data(), xs.size()), inf, nullptr,
                       less) {}

  /// Workspace-injected form: builds into `storage` (recycling its buffers)
  /// instead of allocating. The tree references `storage` for its lifetime.
  TournamentTree(std::span<const T> xs, T inf, TournamentStorage<T>& storage,
                 Less less = Less{})
      : TournamentTree(xs, inf, &storage, less) {}

  // The tree caches raw pointers into its storage; nothing in the codebase
  // moves one, so simply forbid it.
  TournamentTree(const TournamentTree&) = delete;
  TournamentTree& operator=(const TournamentTree&) = delete;

  /// True when every leaf has been removed.
  bool empty() const { return !less_(top_[1], inf_); }

  /// Minimum live leaf value (inf_ when empty).
  const T& min_value() const { return top_[1]; }

  int64_t size() const { return n_; }

  /// True when some input value is not below `inf` under `less`. Such a
  /// leaf reads as already removed, so no round would ever report it: the
  /// caller must solve the input another way (lis.hpp reruns it on its
  /// rank image). Found by the build itself, per block while the block is
  /// in L1, not by a separate scan of the input.
  bool has_inf_input() const {
    return inf_input_.load(std::memory_order_relaxed);
  }

  /// Total tree entries considered by this tree's extractions so far
  /// (Thm. 3.2 charges O(m_r log(n/m_r)) per round, O(n log k) in total —
  /// the property tests assert this bound empirically). Per-worker slots
  /// summed on read; counts from earlier trees sharing the storage are
  /// subtracted out.
  uint64_t nodes_visited() const { return st_->visits.read() - base_visits_; }

  /// Alg. 1 ProcessFrontier: visits every prefix-min leaf, calls
  /// visit(leaf_index) for each, removes them, and returns their number m.
  /// Blocks are visited in parallel unless the round runs inline (see
  /// kRoundGrain); `visit` must be safe to call concurrently for distinct
  /// indices.
  template <typename Visit>
  int64_t extract_frontier(const Visit& visit) {
    if (empty()) return 0;
    begin_pass(prev_m_);
    prev_m_ = top_extract(1, inf_, visit);
    return prev_m_;
  }

  /// Appendix A two-pass variant: returns the frontier's leaf indices sorted
  /// by index (ascending), and removes those leaves.
  std::vector<int64_t> extract_frontier_collect() {
    if (empty()) return {};
    std::vector<int64_t> out(count_frontier());
    place_frontier(out.data());
    return out;
  }

  /// Allocation-free form: writes the frontier (ascending leaf indices) into
  /// `out`, removes those leaves, and returns the frontier size m. `out`
  /// must have room for the whole frontier; across all rounds exactly
  /// size() indices are written in total.
  int64_t extract_frontier_collect_into(int64_t* out) {
    if (empty()) return 0;
    int64_t m = count_frontier();
    place_frontier(out);
    return m;
  }

  /// Pass 1 of the Appendix A two-pass extraction, standalone: the size of
  /// the current frontier without extracting it (callers size their buffer,
  /// then run extract_frontier_collect_into). Charges the visit counter
  /// exactly like the counting pass it is; the exact m it finds becomes the
  /// prediction for the next extraction.
  int64_t frontier_size() {
    if (empty()) return 0;
    return count_frontier();
  }

 private:
  // Flat 8-ary block geometry: 8 supergroups x 8 groups x 8 leaves.
  static constexpr int64_t kBlockLeaves = 512;
  static constexpr int64_t kL2Off = 8;        // 64 group minima
  static constexpr int64_t kLeafOff = 8 + 64;  // 512 leaves
  static constexpr int64_t kBlockStride = kLeafOff + kBlockLeaves;

  // The level sweeps (top of this header) speak the int64 total order, which
  // is exactly the rank image every public entry point feeds this tree
  // after rank-space reduction. Generic keys / custom comparators keep the
  // scalar sweeps — the discarded if-constexpr branches below never
  // instantiate the int64 kernels for them.
  static constexpr bool kSimdKernels =
      std::is_same_v<T, int64_t> && std::is_same_v<Less, std::less<int64_t>>;

  TournamentTree(std::span<const T> xs, T inf, TournamentStorage<T>* storage,
                 Less less)
      : less_(less),
        n_(static_cast<int64_t>(xs.size())),
        nblocks_((n_ > 0 ? n_ - 1 : 0) / kBlockLeaves + 1),
        top_leaves_(static_cast<int64_t>(
            std::bit_ceil(static_cast<uint64_t>(nblocks_)))),
        inf_(inf),
        st_(storage != nullptr ? storage : &own_),
        prev_m_(n_) {
    // The build below writes every block entry, so the blocks are only
    // resized (a warm storage of the same size is not touched twice).
    st_->blocks.resize(kBlockStride * nblocks_);
    st_->top.assign(2 * top_leaves_, inf);
    blocks_ = st_->blocks.data();
    top_ = st_->top.data();
    base_visits_ = st_->visits.read();
    parallel_for(0, nblocks_, [&](int64_t b) {
      T* blk = blocks_ + kBlockStride * b;
      const int64_t base = b * kBlockLeaves;
      T* leaf = blk + kLeafOff;
      const int64_t fill = std::min(kBlockLeaves, n_ - base);
      for (int64_t j = 0; j < fill; j++) leaf[j] = xs[base + j];
      // The last block's phantom leaves read as removed.
      for (int64_t j = fill; j < kBlockLeaves; j++) leaf[j] = inf;
      // The block is in L1 now; a separate loop keeps the copy a memcpy.
      unsigned reaches_inf = 0;
      for (int64_t j = 0; j < fill; j++) {
        reaches_inf |= static_cast<unsigned>(!less_(leaf[j], inf));
      }
      if (reaches_inf) inf_input_.store(true, std::memory_order_relaxed);
      for (int64_t g = 0; g < 64; g++) {
        blk[kL2Off + g] = min8(leaf + 8 * g);
      }
      for (int64_t s = 0; s < 8; s++) {
        blk[s] = min8(blk + kL2Off + 8 * s);
      }
      top_[top_leaves_ + b] = min8(blk);
    });
    // Phantom top leaves (past the last physical block) keep their inf
    // sentinel, so traversals prune them without touching block storage.
    // Internal top nodes are built with the same parallel recursion as the
    // blocks, preserving the O(log n) construction span of Thm. 3.1.
    build_top(1, top_leaves_);
  }

  T* block(int64_t b) { return blocks_ + kBlockStride * b; }

  // Minimum of the 8 entries at p, scalar for every key: the sweeps re-read
  // entries they just stored one at a time (a vector reload would not
  // store-forward), and at the build a vector body paid under the SIMD bar
  // (EXPERIMENTS.md, "SIMD-kernel methodology").
  T min8(const T* p) const {
    T m = p[0];
    for (int j = 1; j < 8; j++) {
      if (less_(p[j], m)) m = p[j];
    }
    return m;
  }

  // Recomputes internal top-tree nodes below node i (`sub` = leaf slots
  // under it), forking while subtrees are large.
  void build_top(int64_t i, int64_t sub) {
    if (i >= top_leaves_) return;
    if (sub <= 2048) {
      build_top_seq(i);
      return;
    }
    par_do([&] { build_top(2 * i, sub / 2); },
           [&] { build_top(2 * i + 1, sub / 2); });
    top_[i] = less_(top_[2 * i + 1], top_[2 * i]) ? top_[2 * i + 1] : top_[2 * i];
  }

  void build_top_seq(int64_t i) {
    if (i >= top_leaves_) return;
    build_top_seq(2 * i);
    build_top_seq(2 * i + 1);
    top_[i] = less_(top_[2 * i + 1], top_[2 * i]) ? top_[2 * i + 1] : top_[2 * i];
  }

  // (Re)sizes the (persistent, top-tree-sized) pass-1 scratch in the
  // storage and runs the counting pass, inline if the previous m predicts a
  // small frontier; returns the frontier size and keeps it as the next
  // prediction.
  int64_t count_frontier() {
    if (static_cast<int64_t>(st_->count.size()) != 2 * top_leaves_) {
      st_->count.assign(2 * top_leaves_, 0);
    }
    count_ = st_->count.data();
    begin_pass(prev_m_);
    prev_m_ = top_count(1, inf_);
    return prev_m_;
  }

  // Pass 2, inline exactly when pass 1 counted fewer than kRoundGrain.
  void place_frontier(int64_t* out) {
    begin_pass(prev_m_);
    top_place(1, inf_, out);
  }

  // A pass runs inline when `predicted` is below the grain, with a budget
  // of kRoundGrain reported leaves.
  void begin_pass(int64_t predicted) {
    inline_round_ = predicted < kRoundGrain;
    inline_budget_ = kRoundGrain;
  }

  // Charges a block's reported leaves to an inline pass; a pass that
  // overruns its budget forks at every fork site it has not reached yet.
  // Only the calling thread runs an inline pass, so the plain members are
  // race-free: the flag is written before the pass's first par_do and read,
  // unchanged, by everything that par_do starts.
  void charge_inline(int64_t reported) {
    if (inline_round_ && (inline_budget_ -= reported) < 0) {
      inline_round_ = false;
    }
  }

  // The only fork of a round: the two child descents of a top-tree node.
  template <typename Left, typename Right>
  void fork(const Left& left, const Right& right) {
    if (inline_round_) {
      left();
      right();
    } else {
      par_do(left, right);
    }
  }

  // ---------------------------------------------------------- top tree ---
  // Standard binary prefix-min descent over the per-block minima; reaching
  // top leaf i (block b = i - top_leaves_) hands off to the sequential
  // in-block scans and refreshes the cached block minimum on unwind. A top
  // leaf and its block are the same conceptual subtree, so the pruned case
  // is counted here (without touching block storage) and the entered case
  // is counted entirely by the in-block walk.

  // Returns the number of leaves extracted beneath node i.
  template <typename Visit>
  int64_t top_extract(int64_t i, const T& lmin, const Visit& visit) {
    if (less_(lmin, top_[i]) || !less_(top_[i], inf_)) {
      st_->visits.add(1);
      return 0;
    }
    if (i >= top_leaves_) {
      T* blk = block(i - top_leaves_);
      const Swept sw =
          block_extract(blk, (i - top_leaves_) * kBlockLeaves, lmin, visit);
      st_->visits.add(sw.visits);
      top_[i] = min8(blk);
      charge_inline(sw.removed);
      return sw.removed;
    }
    st_->visits.add(1);
    int64_t ml = 0, mr = 0;
    T left_min = top_[2 * i];  // read before the left recursion mutates it
    fork([&] { ml = top_extract(2 * i, lmin, visit); },
         [&] {
           const T& rmin = less_(left_min, lmin) ? left_min : lmin;
           mr = top_extract(2 * i + 1, rmin, visit);
         });
    top_[i] = less_(top_[2 * i + 1], top_[2 * i]) ? top_[2 * i + 1] : top_[2 * i];
    return ml + mr;
  }

  int64_t top_count(int64_t i, const T& lmin) {
    if (less_(lmin, top_[i]) || !less_(top_[i], inf_)) {
      st_->visits.add(1);
      count_[i] = 0;
      return 0;
    }
    if (i >= top_leaves_) {
      uint64_t vis = 0;
      int64_t c = block_count(block(i - top_leaves_), lmin, vis);
      st_->visits.add(vis);
      count_[i] = c;
      charge_inline(c);
      return c;
    }
    st_->visits.add(1);
    int64_t cl = 0, cr = 0;
    T left_min = top_[2 * i];
    fork([&] { cl = top_count(2 * i, lmin); },
         [&] {
           const T& rmin = less_(left_min, lmin) ? left_min : lmin;
           cr = top_count(2 * i + 1, rmin);
         });
    count_[i] = cl + cr;
    return count_[i];
  }

  void top_place(int64_t i, const T& lmin, int64_t* out) {
    if (less_(lmin, top_[i]) || !less_(top_[i], inf_)) {
      st_->visits.add(1);
      return;
    }
    if (i >= top_leaves_) {
      T* blk = block(i - top_leaves_);
      int64_t* cursor = out;
      // In-block reporting is in leaf order, so pass 2 needs no per-node
      // counts below the top tree — a moving cursor replaces them.
      const Swept sw =
          block_extract(blk, (i - top_leaves_) * kBlockLeaves, lmin,
                        [&](int64_t idx) { *cursor++ = idx; });
      st_->visits.add(sw.visits);
      top_[i] = min8(blk);
      return;
    }
    st_->visits.add(1);
    T left_min = top_[2 * i];
    // count_[2i] is 0 when pass 1 skipped the left child, so no branch needed.
    int64_t skip = count_[2 * i];
    fork([&] { top_place(2 * i, lmin, out); },
         [&] {
           const T& rmin = less_(left_min, lmin) ? left_min : lmin;
           top_place(2 * i + 1, rmin, out + skip);
         });
    top_[i] = less_(top_[2 * i + 1], top_[2 * i]) ? top_[2 * i + 1] : top_[2 * i];
  }

  // ------------------------------------------------------------ blocks ---
  // Sequential prefix-min sweeps over the three 8-ary levels. Each level
  // walks its 8 children left to right: a child is entered iff its pre-round
  // minimum qualifies against the running bound, and the bound then absorbs
  // that minimum. Considered entries are tallied per sweep (`vis`, or the
  // returned Swept::visits) and batched into one counter update per block
  // visit.
  //
  // Vector form (int64 keys): one compare against the level's *initial*
  // bound replaces the 8 scalar compares. Any entry with value > bound can
  // neither be entered (the running bound starts at `bound` and only
  // decreases) nor lower the running bound itself, so the candidate mask
  // `value <= bound && value < inf` contains every entry the scalar sweep
  // interacts with; walking its set bits in ascending order with the exact
  // scalar enter/absorb checks reproduces the sweep bit-for-bit. The tally
  // still charges all 8 considered entries per level, so the Thm. 3.2
  // visit accounting the property tests assert is unchanged. Entries are
  // read before their own descent mutates them, and a descent only mutates
  // the entry it descends through, never a later sibling, so the pre-sweep
  // mask stays valid across the walk.
  //
  // The extracting sweeps return both tallies of their descent: considered
  // entries and removed leaves (the leaf tier's vector form reads the
  // latter off the extracted-lane mask). Returning them, rather than adding
  // through a reference, keeps the sums in registers across the hot loops.
  struct Swept {
    uint64_t visits = 0;
    int64_t removed = 0;
    Swept& operator+=(const Swept& o) {
      visits += o.visits;
      removed += o.removed;
      return *this;
    }
  };

  template <typename Visit>
  Swept block_extract(T* blk, int64_t base, const T& lmin,
                      const Visit& visit) {
    Swept acc;
    if constexpr (kSimdKernels) {
      if (simd::enabled()) {
        T cur = lmin;
        uint32_t m = simd::cand_mask8_i64(blk, cur, inf_);
        acc.visits += 8;
        while (m) {
          const int64_t s = std::countr_zero(m);
          m &= m - 1;
          T v = blk[s];  // pre value: the descent below mutates blk[s]
          if (!(cur < v)) acc += super_extract(blk, s, base, cur, visit);
          if (v < cur) cur = v;
        }
        return acc;
      }
    }
    T cur = lmin;
    for (int64_t s = 0; s < 8; s++) {
      acc.visits++;
      T v = blk[s];  // pre value: the descent below mutates blk[s]
      if (!less_(cur, v) && less_(v, inf_)) {
        acc += super_extract(blk, s, base, cur, visit);
      }
      if (less_(v, cur)) cur = v;
    }
    return acc;
  }

  template <typename Visit>
  Swept super_extract(T* blk, int64_t s, int64_t base, const T& bound,
                      const Visit& visit) {
    T* l2 = blk + kL2Off + 8 * s;
    Swept acc;
    if constexpr (kSimdKernels) {
      if (simd::enabled()) {
        T cur = bound;
        uint32_t m = simd::cand_mask8_i64(l2, cur, inf_);
        acc.visits += 8;
        while (m) {
          const int64_t j = std::countr_zero(m);
          m &= m - 1;
          T w = l2[j];
          if (!(cur < w)) acc += group_extract(blk, 8 * s + j, base, cur, visit);
          if (w < cur) cur = w;
        }
        blk[s] = min8(l2);
        return acc;
      }
    }
    T cur = bound;
    for (int64_t j = 0; j < 8; j++) {
      acc.visits++;
      T w = l2[j];
      if (!less_(cur, w) && less_(w, inf_)) {
        acc += group_extract(blk, 8 * s + j, base, cur, visit);
      }
      if (less_(w, cur)) cur = w;
    }
    blk[s] = min8(l2);
    return acc;
  }

  template <typename Visit>
  Swept group_extract(T* blk, int64_t g, int64_t base, const T& bound,
                      const Visit& visit) {
    T* leaf = blk + kLeafOff + 8 * g;
    if constexpr (kSimdKernels) {
      if (simd::enabled()) {
        // The leaf sweep is the hot tier (every report ends here), so it
        // uses the fully branchless kernel: the extracted-lane mask, the
        // inf overwrites and the refreshed group minimum all come out of
        // registers — no per-candidate reload chain, no 8-entry re-reduce.
        T gmin;
        uint32_t ext = simd::sweep8_extract_i64(leaf, bound, inf_, &gmin);
        const Swept acc{8, std::popcount(ext)};
        while (ext) {
          const int64_t j = std::countr_zero(ext);
          ext &= ext - 1;
          visit(base + 8 * g + j);
        }
        blk[kL2Off + g] = gmin;
        return acc;
      }
    }
    T cur = bound;
    Swept acc;
    for (int64_t j = 0; j < 8; j++) {
      acc.visits++;
      T x = leaf[j];
      if (!less_(cur, x) && less_(x, inf_)) {
        visit(base + 8 * g + j);
        leaf[j] = inf_;
        acc.removed++;
      }
      if (less_(x, cur)) cur = x;
    }
    blk[kL2Off + g] = min8(leaf);
    return acc;
  }

  // Pass 1 within a block: identical sweeps, no mutation, returns the count.
  int64_t block_count(const T* blk, const T& lmin, uint64_t& vis) const {
    if constexpr (kSimdKernels) {
      if (simd::enabled()) {
        T cur = lmin;
        int64_t c = 0;
        uint32_t m = simd::cand_mask8_i64(blk, cur, inf_);
        vis += 8;
        while (m) {
          const int64_t s = std::countr_zero(m);
          m &= m - 1;
          const T v = blk[s];
          if (!(cur < v)) c += super_count(blk, s, cur, vis);
          if (v < cur) cur = v;
        }
        return c;
      }
    }
    T cur = lmin;
    int64_t c = 0;
    for (int64_t s = 0; s < 8; s++) {
      vis++;
      const T& v = blk[s];
      if (!less_(cur, v) && less_(v, inf_)) c += super_count(blk, s, cur, vis);
      if (less_(v, cur)) cur = v;
    }
    return c;
  }

  int64_t super_count(const T* blk, int64_t s, const T& bound,
                      uint64_t& vis) const {
    const T* l2 = blk + kL2Off + 8 * s;
    if constexpr (kSimdKernels) {
      if (simd::enabled()) {
        T cur = bound;
        int64_t c = 0;
        uint32_t m = simd::cand_mask8_i64(l2, cur, inf_);
        vis += 8;
        while (m) {
          const int64_t j = std::countr_zero(m);
          m &= m - 1;
          const T w = l2[j];
          if (!(cur < w)) c += group_count(blk, 8 * s + j, cur, vis);
          if (w < cur) cur = w;
        }
        return c;
      }
    }
    T cur = bound;
    int64_t c = 0;
    for (int64_t j = 0; j < 8; j++) {
      vis++;
      const T& w = l2[j];
      if (!less_(cur, w) && less_(w, inf_)) {
        c += group_count(blk, 8 * s + j, cur, vis);
      }
      if (less_(w, cur)) cur = w;
    }
    return c;
  }

  int64_t group_count(const T* blk, int64_t g, const T& bound,
                      uint64_t& vis) const {
    const T* leaf = blk + kLeafOff + 8 * g;
    if constexpr (kSimdKernels) {
      if (simd::enabled()) {
        vis += 8;
        return simd::sweep8_count_i64(leaf, bound, inf_);
      }
    }
    T cur = bound;
    int64_t c = 0;
    for (int64_t j = 0; j < 8; j++) {
      vis++;
      const T& x = leaf[j];
      if (!less_(cur, x) && less_(x, inf_)) c++;
      if (less_(x, cur)) cur = x;
    }
    return c;
  }

  Less less_;
  int64_t n_;
  int64_t nblocks_;     // physical blocks, ceil(n / 512)
  int64_t top_leaves_;  // bit_ceil(nblocks_): top-tree leaf slots
  T inf_;
  TournamentStorage<T> own_;   // backing store when none is injected
  TournamentStorage<T>* st_;   // owned or injected storage
  T* blocks_ = nullptr;        // st_->blocks.data()
  T* top_ = nullptr;           // st_->top.data()
  int64_t* count_ = nullptr;   // st_->count.data(), set by count_frontier
  uint64_t base_visits_ = 0;   // visits already in the storage's counter
  int64_t prev_m_;             // last frontier size: the next round's guess
  bool inline_round_ = false;  // the current pass descends without forking
  int64_t inline_budget_ = 0;  // leaves an inline pass may still report
  std::atomic<bool> inf_input_{false};  // some leaf holds a value >= inf_
};

}  // namespace parlis
