// The VebTree node layout and the inline point-op fast paths.
//
// Split out of veb_tree.cpp so that trees whose root bottoms out in a
// packed word block (universe <= 4096 — every Range-vEB inner tree, for
// instance) run their point ops as header-inlined find-first-set kernels,
// with no out-of-line call and no node dispatch.
// The recursive helpers over internal nodes stay in veb_tree.cpp; the
// public methods here only peel the base-root case and defer to the *_slow
// entry points otherwise.
//
// Included from the bottom of veb_tree.hpp — never include this directly.
#pragma once

#include <cstdint>

#include "parlis/util/arena.hpp"
#include "parlis/veb/veb_tree.hpp"
#include "parlis/veb/veb_words.hpp"

namespace parlis {

// Trivially destructible: nodes, cluster tables, and word arrays live in the
// owning VebTree's arena and are freed wholesale with it.
//
// Three node kinds, decided by `bits`:
//   * tiny  (bits <= 6):          all keys in `mask`, min/max derived
//   * word  (6 < bits <= 12): a veb_words block — `mask` is the 64-bit
//         summary word, `words` the 2^(bits-6) cluster words (lazily
//         arena-allocated on first insert); min/max cached
//   * internal (bits > 12): the recursive vEB node; min/max stored
//         exclusively, `summary` + `clusters` lazy
struct VebTree::Node {
  static constexpr int kTinyBits = 6;   // universe <= 2^6: one bitmask word
  static constexpr int kWordBits = 12;  // universe <= 2^12: one word block

  uint8_t bits;     // universe 2^bits
  uint8_t lo_bits;  // hi_bits = bits - lo_bits
  uint8_t hi_bits;
  uint64_t min = kNone;  // kNone <=> empty
  uint64_t max = kNone;
  uint64_t mask = 0;  // tiny: the key set; word: the summary word
  union {
    Node* summary;    // internal only: universe 2^hi_bits
    uint64_t* words;  // word only: 2^(bits-6) words, lazy (arena)
  };
  Node** clusters = nullptr;  // internal only: 2^hi_bits entries, lazy

  explicit Node(int b) : bits(static_cast<uint8_t>(b)) {
    // Bottom-heavy split: an internal node with at most 2*kWordBits bits
    // takes lo_bits = kWordBits, so its clusters AND its summary are all
    // packed word blocks — one node level above the kernels for any
    // universe <= 2^24 (b/2 halving above that reaches this band in
    // O(log log U) steps).
    int lo = (b > kWordBits && b <= 2 * kWordBits) ? kWordBits : b / 2;
    lo_bits = static_cast<uint8_t>(lo);
    hi_bits = static_cast<uint8_t>(b - lo);
    if (base()) {
      words = nullptr;
    } else {
      summary = nullptr;
    }
  }

  bool base() const { return bits <= kWordBits; }
  bool tiny() const { return bits <= kTinyBits; }
  bool is_empty() const { return min == kNone; }
  uint64_t nwords() const { return uint64_t{1} << (bits - kTinyBits); }
  uint64_t high(uint64_t x) const { return x >> lo_bits; }
  uint64_t low(uint64_t x) const { return x & ((uint64_t{1} << lo_bits) - 1); }
  uint64_t index(uint64_t h, uint64_t l) const { return (h << lo_bits) | l; }

  Node* cluster(uint64_t h) const { return clusters ? clusters[h] : nullptr; }
  Node* ensure_cluster(uint64_t h, Arena& arena) {
    if (!clusters) clusters = arena.create_array<Node*>(uint64_t{1} << hi_bits);
    if (!clusters[h]) clusters[h] = arena.create<Node>(lo_bits);
    return clusters[h];
  }
  Node* ensure_summary(Arena& arena) {
    if (!summary) summary = arena.create<Node>(hi_bits);
    return summary;
  }
  bool summary_empty() const { return !summary || summary->is_empty(); }
  uint64_t* ensure_words(Arena& arena) {
    if (!words) words = arena.create_array<uint64_t>(nwords());
    return words;
  }

  // --- base-node kernels (bits <= kWordBits); tiny mask vs word block ---

  bool base_contains(uint64_t x) const {
    if (tiny()) return (mask >> x) & 1;
    return words != nullptr && veb_words::block_contains(mask, words, x);
  }
  // x <= 2^bits (the pred-of-universe-bound query after clamping).
  uint64_t base_pred_lt(uint64_t x) const {
    if (tiny()) return veb_words::word_pred_lt(mask, x);
    if (!words) return kNone;
    return veb_words::block_pred_lt(mask, words, nwords(), x);
  }
  // x < 2^bits.
  uint64_t base_succ_gt(uint64_t x) const {
    if (tiny()) return veb_words::word_succ_gt(mask, x);
    if (!words) return kNone;
    return veb_words::block_succ_gt(mask, words, x);
  }
  // Insert when no allocation can be needed (tiny, or words materialized).
  void base_insert_ready(uint64_t x) {
    if (tiny()) {
      mask |= uint64_t{1} << x;
      base_sync_minmax();
      return;
    }
    veb_words::block_insert(mask, words, x);
    if (min == kNone) {
      min = max = x;
    } else {
      if (x < min) min = x;
      if (x > max) max = x;
    }
  }
  void base_insert(uint64_t x, Arena& arena) {
    if (!tiny()) ensure_words(arena);
    base_insert_ready(x);
  }
  void base_erase(uint64_t x) {
    if (tiny()) {
      mask &= ~(uint64_t{1} << x);
      base_sync_minmax();
      return;
    }
    if (!words) return;
    veb_words::block_erase(mask, words, x);
    if (mask == 0) {
      min = max = kNone;
      return;
    }
    if (x == min) min = veb_words::block_min(mask, words);
    if (x == max) max = veb_words::block_max(mask, words);
  }
  // Recomputes min/max from the packed bits (after a batch of raw word
  // updates). O(1): two find-first-set chases.
  void base_sync_minmax() {
    if (tiny()) {
      if (mask == 0) {
        min = max = kNone;
      } else {
        min = veb_words::word_min(mask);
        max = veb_words::word_max(mask);
      }
      return;
    }
    if (mask == 0) {
      min = max = kNone;
    } else {
      min = veb_words::block_min(mask, words);
      max = veb_words::block_max(mask, words);
    }
  }
  void make_singleton(uint64_t x, Arena& arena) {
    if (base()) {
      base_insert(x, arena);
    } else {
      min = max = x;
    }
  }
};

// ---- inline point-op fast paths (base root: the whole key set is one ----
// ---- packed block; everything else defers to the out-of-line slow path) --

inline bool VebTree::contains(uint64_t x) const {
  if (x >= universe_) return false;
  if (root_->base()) return root_->base_contains(x);
  return contains_slow(x);
}

inline std::optional<uint64_t> VebTree::min() const {
  if (root_->min == kNone) return std::nullopt;
  return root_->min;
}

inline std::optional<uint64_t> VebTree::max() const {
  if (root_->min == kNone) return std::nullopt;
  return root_->max;
}

inline std::optional<uint64_t> VebTree::pred_lt(uint64_t x) const {
  if (x >= universe_) x = universe_;  // clamp: pred of anything above
  if (x == 0) return std::nullopt;
  if (root_->base()) {
    uint64_t r = root_->base_pred_lt(x);
    if (r == kNone) return std::nullopt;
    return r;
  }
  return pred_lt_slow(x);
}

inline std::optional<uint64_t> VebTree::succ_gt(uint64_t x) const {
  if (x >= universe_) return std::nullopt;
  if (root_->base()) {
    uint64_t r = root_->base_succ_gt(x);
    if (r == kNone) return std::nullopt;
    return r;
  }
  return succ_gt_slow(x);
}

inline void VebTree::insert(uint64_t x) {
  if (x >= universe_) [[unlikely]] {
    throw_out_of_universe("VebTree::insert", x, universe_);
  }
  Node* r = root_;
  if (r->base() && (r->tiny() || r->words)) {
    if (r->base_contains(x)) return;
    r->base_insert_ready(x);
    size_++;
    return;
  }
  insert_slow(x);  // internal root, or first insert into a word root
}

inline void VebTree::erase(uint64_t x) {
  if (x >= universe_) return;
  if (root_->base()) {
    if (!root_->base_contains(x)) return;
    root_->base_erase(x);
    size_--;
    return;
  }
  erase_slow(x);
}

}  // namespace parlis
