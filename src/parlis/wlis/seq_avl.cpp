#include "parlis/wlis/seq_avl.hpp"

#include <algorithm>
#include <string>

#include "parlis/util/error.hpp"

namespace parlis {

namespace {

// Pool-allocated augmented AVL node. Key = (value, stamp), augmentation =
// max dp in subtree.
struct AvlNode {
  int64_t value;
  int64_t stamp;
  int64_t dp;
  int64_t subtree_max;
  int32_t left = -1, right = -1;
  int8_t height = 1;
};

class AvlWlis {
 public:
  explicit AvlWlis(size_t n) { pool_.reserve(n); }

  /// Max dp among nodes with value < v (0 if none).
  int64_t max_below(int64_t v) const {
    int64_t best = 0;
    int32_t cur = root_;
    while (cur >= 0) {
      const AvlNode& nd = pool_[cur];
      if (nd.value < v) {
        // node and its whole left subtree qualify
        best = std::max(best, nd.dp);
        if (nd.left >= 0) best = std::max(best, pool_[nd.left].subtree_max);
        cur = nd.right;
      } else {
        cur = nd.left;
      }
    }
    return best;
  }

  void insert(int64_t value, int64_t dp) {
    pool_.push_back({value, stamp_++, dp, dp, -1, -1, 1});
    root_ = insert_rec(root_, static_cast<int32_t>(pool_.size()) - 1);
  }

 private:
  int8_t height(int32_t i) const { return i < 0 ? int8_t{0} : pool_[i].height; }
  int64_t sub_max(int32_t i) const {
    return i < 0 ? INT64_MIN : pool_[i].subtree_max;
  }
  void pull(int32_t i) {
    AvlNode& nd = pool_[i];
    nd.height = static_cast<int8_t>(
        1 + std::max(height(nd.left), height(nd.right)));
    nd.subtree_max =
        std::max({nd.dp, sub_max(nd.left), sub_max(nd.right)});
  }
  int32_t rotate_right(int32_t y) {
    int32_t x = pool_[y].left;
    pool_[y].left = pool_[x].right;
    pool_[x].right = y;
    pull(y);
    pull(x);
    return x;
  }
  int32_t rotate_left(int32_t x) {
    int32_t y = pool_[x].right;
    pool_[x].right = pool_[y].left;
    pool_[y].left = x;
    pull(x);
    pull(y);
    return y;
  }
  bool key_less(int32_t a, int32_t b) const {
    const AvlNode &x = pool_[a], &y = pool_[b];
    return x.value != y.value ? x.value < y.value : x.stamp < y.stamp;
  }
  int32_t insert_rec(int32_t node, int32_t leaf) {
    if (node < 0) return leaf;
    if (key_less(leaf, node)) {
      pool_[node].left = insert_rec(pool_[node].left, leaf);
    } else {
      pool_[node].right = insert_rec(pool_[node].right, leaf);
    }
    pull(node);
    int bal = height(pool_[node].left) - height(pool_[node].right);
    if (bal > 1) {
      int32_t l = pool_[node].left;
      if (height(pool_[l].left) < height(pool_[l].right)) {
        pool_[node].left = rotate_left(l);
      }
      return rotate_right(node);
    }
    if (bal < -1) {
      int32_t r = pool_[node].right;
      if (height(pool_[r].right) < height(pool_[r].left)) {
        pool_[node].right = rotate_right(r);
      }
      return rotate_left(node);
    }
    return node;
  }

  std::vector<AvlNode> pool_;
  int32_t root_ = -1;
  int64_t stamp_ = 0;
};

}  // namespace

void seq_avl_wlis_into(std::span<const int64_t> a, std::span<const int64_t> w,
                       std::vector<int64_t>& dp) {
  AvlWlis tree(a.size());
  dp.assign(a.size(), 0);
  for (size_t i = 0; i < a.size(); i++) {
    // max_below is never negative, so only a positive weight overflows.
    if (__builtin_add_overflow(w[i], tree.max_below(a[i]), &dp[i])) {
      throw Error(ErrorCode::kInvalidArgument,
                  "seq_avl_wlis: dp[" + std::to_string(i) +
                      "] overflows int64");
    }
    tree.insert(a[i], dp[i]);
  }
}

std::vector<int64_t> seq_avl_wlis(const std::vector<int64_t>& a,
                                  const std::vector<int64_t>& w) {
  std::vector<int64_t> dp;
  seq_avl_wlis_into(std::span<const int64_t>(a.data(), a.size()),
                    std::span<const int64_t>(w.data(), w.size()), dp);
  return dp;
}

}  // namespace parlis
