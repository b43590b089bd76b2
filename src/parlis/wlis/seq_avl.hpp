// "Seq-AVL" — the sequential WLIS baseline of the paper's evaluation
// (Sec. 6): an augmented AVL tree storing every processed object keyed by
// (value, arrival order), with each subtree's maximum dp value maintained.
// Iterating left to right, each object queries the maximum dp among tree
// keys with value strictly below its own, then inserts itself. O(n log n).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace parlis {

/// dp values of the weighted LIS recurrence (Eq. 2), computed sequentially.
std::vector<int64_t> seq_avl_wlis(const std::vector<int64_t>& a,
                                  const std::vector<int64_t>& w);

/// Span/buffer-reuse form (what the Solver's memory-budget degradation
/// drives): dp is resized to |a| and overwritten; O(n) extra space total.
/// Both forms throw Error{kInvalidArgument} when a dp sum overflows int64.
void seq_avl_wlis_into(std::span<const int64_t> a, std::span<const int64_t> w,
                       std::vector<int64_t>& dp);

}  // namespace parlis
