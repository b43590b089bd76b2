// The key of a cache derived from one int64 sequence.
//
// The Solver's value cache (the rank space of raw int64 values) describes
// the sequence it was built from. ValueCacheKey holds a copy of it and
// checks a candidate in two steps: the size, then std::equal, which stops
// at the first difference, so a same-size miss usually costs a few elements
// and a hit one pass.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "parlis/util/resident.hpp"

namespace parlis {

struct ValueCacheKey {
  std::vector<int64_t> values;  // the sequence the cache describes
  bool valid = false;

  /// Keys the cache to `a`. Returns true when it already described `a`.
  /// Otherwise drops the key, runs `rebuild()` to derive the cached state
  /// from `a`, and keys it to `a`; a throw out of rebuild (or out of the
  /// copy) leaves the key dropped.
  template <typename Rebuild>
  bool match_or_rebuild(std::span<const int64_t> a, const Rebuild& rebuild) {
    if (valid && values.size() == a.size() &&
        std::equal(a.begin(), a.end(), values.begin())) {
      return true;
    }
    valid = false;
    rebuild();
    values.assign(a.begin(), a.end());
    valid = true;
    return false;
  }

  size_t resident_bytes() const { return vec_bytes(values); }
};

}  // namespace parlis
