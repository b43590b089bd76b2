// Parallel sequence primitives: reduce, scan, pack/filter, merge, stable
// merge sort, and stable counting sort. These are the ParlayLib-style
// building blocks the paper's algorithms assume (parallel sorting for Alg. 2,
// parallel merge for Appendix A, filter/scan inside the vEB batch ops).
//
// All primitives are deterministic and work-efficient:
//   reduce/scan/pack: O(n) work, O(log n) span (blocked two-pass scan)
//   merge:            O(n) work, O(log^2 n) span (dual binary search)
//   sort:             O(n log n) work, O(log^3 n) span (merge sort)
//   counting sort:    O(n + buckets) work (blocked histograms)
//
// Fork points cost a handful of atomic ops on the lock-free runtime: the
// par_do recursions below, and the parallel_for loops (par_do halving down
// to the grain), keep their join counters on the stack, so an uncontended
// primitive never allocates or locks inside the scheduler.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <vector>

#include "parlis/parallel/parallel.hpp"

namespace parlis {

// ---------------------------------------------------------------- reduce ---

/// Reduces [lo, hi) with `op` over values f(i); returns `identity` when
/// empty. `op` must be associative.
template <typename T, typename F, typename Op>
T reduce_index(int64_t lo, int64_t hi, T identity, const F& f, const Op& op) {
  constexpr int64_t kBase = 2048;
  if (hi - lo <= kBase) {
    T acc = identity;
    for (int64_t i = lo; i < hi; i++) acc = op(acc, f(i));
    return acc;
  }
  int64_t mid = lo + (hi - lo) / 2;
  T a, b;
  par_do([&] { a = reduce_index(lo, mid, identity, f, op); },
         [&] { b = reduce_index(mid, hi, identity, f, op); });
  return op(a, b);
}

template <typename T, typename Op>
T reduce(const std::vector<T>& xs, T identity, const Op& op) {
  return reduce_index<T>(0, static_cast<int64_t>(xs.size()), identity,
                         [&](int64_t i) { return xs[i]; }, op);
}

template <typename T>
T reduce_sum(const std::vector<T>& xs) {
  return reduce(xs, T{}, std::plus<T>{});
}

// ------------------------------------------------------------------ scan ---

/// Exclusive scan of f(i), i in [0, n), written through out(i, prefix).
/// Returns the grand total. Blocked two-pass algorithm.
template <typename T, typename F, typename Out, typename Op>
T scan_exclusive_index(int64_t n, T identity, const F& f, const Out& out,
                       const Op& op) {
  if (n == 0) return identity;
  constexpr int64_t kBlock = 4096;
  int64_t nblocks = (n + kBlock - 1) / kBlock;
  if (nblocks == 1) {
    T acc = identity;
    for (int64_t i = 0; i < n; i++) {
      T v = f(i);
      out(i, acc);
      acc = op(acc, v);
    }
    return acc;
  }
  std::vector<T> sums(nblocks, identity);
  parallel_for(0, nblocks, [&](int64_t b) {
    int64_t lo = b * kBlock, hi = std::min(n, lo + kBlock);
    T acc = identity;
    for (int64_t i = lo; i < hi; i++) acc = op(acc, f(i));
    sums[b] = acc;
  });
  T total = identity;
  for (int64_t b = 0; b < nblocks; b++) {
    T s = sums[b];
    sums[b] = total;
    total = op(total, s);
  }
  parallel_for(0, nblocks, [&](int64_t b) {
    int64_t lo = b * kBlock, hi = std::min(n, lo + kBlock);
    T acc = sums[b];
    for (int64_t i = lo; i < hi; i++) {
      T v = f(i);
      out(i, acc);
      acc = op(acc, v);
    }
  });
  return total;
}

/// In-place exclusive plus-scan; returns the total.
template <typename T>
T scan_exclusive(std::vector<T>& xs) {
  return scan_exclusive_index<T>(
      static_cast<int64_t>(xs.size()), T{}, [&](int64_t i) { return xs[i]; },
      [&](int64_t i, T pre) { xs[i] = pre; }, std::plus<T>{});
}

// ------------------------------------------------------------ pack/filter ---

/// Returns the indices i in [0, n) for which pred(i) holds, in order.
template <typename Pred>
std::vector<int64_t> pack_index(int64_t n, const Pred& pred) {
  std::vector<uint8_t> flags(n);
  parallel_for(0, n, [&](int64_t i) { flags[i] = pred(i) ? 1 : 0; });
  std::vector<int64_t> pos(n);
  int64_t total = scan_exclusive_index<int64_t>(
      n, 0, [&](int64_t i) { return static_cast<int64_t>(flags[i]); },
      [&](int64_t i, int64_t pre) { pos[i] = pre; }, std::plus<int64_t>{});
  std::vector<int64_t> out(total);
  parallel_for(0, n, [&](int64_t i) {
    if (flags[i]) out[pos[i]] = i;
  });
  return out;
}

/// Keeps the elements of xs satisfying pred, preserving order.
template <typename T, typename Pred>
std::vector<T> filter(const std::vector<T>& xs, const Pred& pred) {
  auto idx = pack_index(static_cast<int64_t>(xs.size()),
                        [&](int64_t i) { return pred(xs[i]); });
  std::vector<T> out(idx.size());
  parallel_for(0, static_cast<int64_t>(idx.size()),
               [&](int64_t i) { out[i] = xs[idx[i]]; });
  return out;
}

// ----------------------------------------------------------------- merge ---

namespace internal {

template <typename It, typename OutIt, typename Less>
void merge_rec(It a, int64_t na, It b, int64_t nb, OutIt out,
               const Less& less) {
  constexpr int64_t kBase = 4096;
  if (na + nb <= kBase) {
    std::merge(a, a + na, b, b + nb, out, less);
    return;
  }
  // Split the larger sequence in half and locate the split point in the
  // other by binary search. Stability: equal elements of `a` precede equal
  // elements of `b`, hence lower_bound on b / upper_bound on a.
  int64_t ma, mb;
  if (na >= nb) {
    ma = na / 2;
    mb = std::lower_bound(b, b + nb, a[ma], less) - b;
  } else {
    mb = nb / 2;
    ma = std::upper_bound(a, a + na, b[mb], less) - a;
  }
  par_do([&] { merge_rec(a, ma, b, mb, out, less); },
         [&] {
           merge_rec(a + ma, na - ma, b + mb, nb - mb, out + ma + mb, less);
         });
}

}  // namespace internal

/// Stable parallel merge of sorted ranges [a, a+na) and [b, b+nb) into out.
template <typename It, typename OutIt, typename Less>
void merge_into(It a, int64_t na, It b, int64_t nb, OutIt out,
                const Less& less) {
  internal::merge_rec(a, na, b, nb, out, less);
}

// ------------------------------------------------------------------ sort ---

namespace internal {

template <bool Stable, typename It, typename BufIt, typename Less>
void sort_rec(It xs, BufIt buf, int64_t n, const Less& less, bool to_buf) {
  constexpr int64_t kBase = 8192;
  if (n <= kBase) {
    if constexpr (Stable) {
      std::stable_sort(xs, xs + n, less);
    } else {
      std::sort(xs, xs + n, less);
    }
    if (to_buf) std::copy(xs, xs + n, buf);
    return;
  }
  int64_t mid = n / 2;
  par_do([&] { sort_rec<Stable>(xs, buf, mid, less, !to_buf); },
         [&] { sort_rec<Stable>(xs + mid, buf + mid, n - mid, less, !to_buf); });
  if (to_buf) {
    merge_into(xs, mid, xs + mid, n - mid, buf, less);
  } else {
    merge_into(buf, mid, buf + mid, n - mid, xs, less);
  }
}

}  // namespace internal

/// Stable parallel merge sort of [xs, xs+n) with a caller-provided scratch
/// buffer of the same length — for hot loops that sort every round and must
/// not allocate (the buffer's contents are clobbered). Note the std::
/// stable_sort base case may still heap-allocate its own temporary; use
/// sort_with_buffer_total when the keys admit a total order and the loop
/// must be allocation-free.
template <typename T, typename Less = std::less<T>>
void sort_with_buffer(T* xs, T* buf, int64_t n, const Less& less = Less{}) {
  if (n < 2) return;
  internal::sort_rec<true>(xs, buf, n, less, /*to_buf=*/false);
}

/// sort_with_buffer for keys whose order is total (no two keys compare
/// equal, e.g. (value, index) pairs): the base case is std::sort, so the
/// whole sort performs zero heap allocations — the variant the warm-solver
/// steady state requires. Stability is vacuous under a total order.
template <typename T, typename Less = std::less<T>>
void sort_with_buffer_total(T* xs, T* buf, int64_t n, const Less& less = Less{}) {
  if (n < 2) return;
  internal::sort_rec<false>(xs, buf, n, less, /*to_buf=*/false);
}

/// Stable parallel merge sort (in place, with an O(n) temporary buffer).
template <typename T, typename Less = std::less<T>>
void sort_inplace(std::vector<T>& xs, const Less& less = Less{}) {
  if (xs.size() < 2) return;
  std::vector<T> buf(xs.size());
  internal::sort_rec<true>(xs.begin(), buf.begin(),
                           static_cast<int64_t>(xs.size()), less,
                           /*to_buf=*/false);
}

template <typename T, typename Less = std::less<T>>
std::vector<T> sorted(std::vector<T> xs, const Less& less = Less{}) {
  sort_inplace(xs, less);
  return xs;
}

// --------------------------------------------------------- counting sort ---

/// Stable counting sort of [0, n) items into `buckets` groups by key(i).
/// Returns (order, offsets): `order` lists item indices grouped by bucket
/// (stable within a bucket); `offsets[b]` is the start of bucket b, with a
/// final sentinel offsets[buckets] == n.
template <typename Key>
std::pair<std::vector<int64_t>, std::vector<int64_t>> counting_sort_index(
    int64_t n, int64_t buckets, const Key& key) {
  constexpr int64_t kBlock = 1 << 14;
  int64_t nblocks = (n + kBlock - 1) / kBlock;
  if (nblocks < 1) nblocks = 1;
  // counts[b * buckets + k]: occurrences of key k in block b.
  std::vector<int64_t> counts(nblocks * buckets, 0);
  parallel_for(0, nblocks, [&](int64_t b) {
    int64_t lo = b * kBlock, hi = std::min(n, lo + kBlock);
    int64_t* c = counts.data() + b * buckets;
    for (int64_t i = lo; i < hi; i++) c[key(i)]++;
  });
  // Column-major scan: bucket 0 of all blocks, bucket 1 of all blocks, ...
  std::vector<int64_t> offsets(buckets + 1, 0);
  int64_t total = 0;
  for (int64_t k = 0; k < buckets; k++) {
    offsets[k] = total;
    for (int64_t b = 0; b < nblocks; b++) {
      int64_t c = counts[b * buckets + k];
      counts[b * buckets + k] = total;
      total += c;
    }
  }
  offsets[buckets] = total;
  std::vector<int64_t> order(n);
  parallel_for(0, nblocks, [&](int64_t b) {
    int64_t lo = b * kBlock, hi = std::min(n, lo + kBlock);
    int64_t* c = counts.data() + b * buckets;
    for (int64_t i = lo; i < hi; i++) order[c[key(i)]++] = i;
  });
  return {std::move(order), std::move(offsets)};
}

}  // namespace parlis
