// Inputs with a prescribed frontier structure, shared by the round-grain
// and LIS-plan tests.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "parlis/parallel/random.hpp"

namespace parlis {

// An input whose round r holds exactly sizes[r-1] objects, spread over the
// whole index range: one anchor per rank up front (rank r at index r-1),
// the rest shuffled behind them. Object i of rank r gets the value
// r*n - i: objects of one rank fall with their index, so they never chain,
// and each follows the anchor of rank r-1, which is smaller.
inline std::vector<int64_t> input_with_frontiers(
    const std::vector<int64_t>& sizes, uint64_t seed) {
  const int64_t k = static_cast<int64_t>(sizes.size());
  std::vector<int64_t> label;
  for (int64_t r = 1; r <= k; r++) label.push_back(r);
  const int64_t anchors = k;
  for (int64_t r = 1; r <= k; r++) {
    for (int64_t c = 1; c < sizes[r - 1]; c++) label.push_back(r);
  }
  const int64_t n = static_cast<int64_t>(label.size());
  for (int64_t i = n - 1; i > anchors; i--) {
    const int64_t j =
        anchors + static_cast<int64_t>(uniform(seed, i, i - anchors + 1));
    std::swap(label[i], label[j]);
  }
  std::vector<int64_t> a(n);
  for (int64_t i = 0; i < n; i++) a[i] = label[i] * n - i;
  return a;
}

}  // namespace parlis
