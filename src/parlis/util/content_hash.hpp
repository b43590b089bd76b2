// 64-bit content hash over int64 sequences, and the key of a cache derived
// from one such sequence.
//
// The value-sequence caches (the Solver's rank space of raw int64 values,
// WlisWorkspace's levels) describe the sequence they were built from.
// ValueCacheKey holds a copy of it and its hash, and checks a candidate in
// three steps: the size, then the hash, then (only on a hash match) a full
// std::equal. The hash is order-dependent but NOT collision-free, so a
// hash match never substitutes for equality; it only lets the check
// reject a same-size mismatch without touching the copy.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "parlis/util/resident.hpp"

namespace parlis {

/// Hash of a whole sequence: h' = rotl(h, 5) ^ mix(v) per element, seeded
/// so the empty span is nonzero.
inline uint64_t content_hash64(std::span<const int64_t> a) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (int64_t v : a) {
    h = ((h << 5) | (h >> 59)) ^
        (static_cast<uint64_t>(v) * 0x2545f4914f6cdd1dull);
  }
  return h;
}

/// The key of a cache derived from one int64 sequence.
struct ValueCacheKey {
  std::vector<int64_t> values;  // the sequence the cache describes
  uint64_t hash = 0;            // content_hash64(values) while valid
  bool valid = false;

  /// Keys the cache to `a`. Returns true when it already described `a`.
  /// Otherwise drops the key, runs `rebuild()` to derive the cached state
  /// from `a`, and keys it to `a`; a throw out of rebuild (or out of the
  /// copy) leaves the key dropped.
  template <typename Rebuild>
  bool match_or_rebuild(std::span<const int64_t> a, const Rebuild& rebuild) {
    const uint64_t h = content_hash64(a);
    if (valid && values.size() == a.size() && hash == h &&
        std::equal(a.begin(), a.end(), values.begin())) {
      return true;
    }
    valid = false;
    rebuild();
    values.assign(a.begin(), a.end());
    hash = h;
    valid = true;
    return false;
  }

  size_t resident_bytes() const { return vec_bytes(values); }
};

}  // namespace parlis
