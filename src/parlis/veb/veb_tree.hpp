// Parallel van Emde Boas tree (Sec. 5 of the paper, Thm. 1.3).
//
// An ordered set of integer keys in [0, U). The layout follows the paper's
// variant of the vEB tree: a node stores its minimum AND maximum exclusively
// (neither is stored again in the clusters — unlike CLRS, which duplicates
// max); all remaining keys are split into high bits (kept recursively in
// `summary`) and low bits (kept in `clusters[high]`).
//
// The recursion bottoms out in bit-packed words (veb_words.hpp): subtrees
// with universe <= 4096 are a flat two-level word block — a 64-bit summary
// word over up to 64 cluster words — so the bottom two node levels of the
// classic layout collapse into find-first-set kernels with zero per-leaf
// allocations (universe <= 64 remains a single bitmask).
//
// Supported operations and costs (U = universe size, m = batch size):
//   insert / erase / contains / pred / succ      O(log log U)
//   batch_insert (Alg. 4)                        O(m log log U) work,
//                                                O(log U) span
//   batch_delete (Alg. 5, survivor mappings)     O(m log log U) work,
//                                                O(log U log log U) span
//   range (Alg. 6, Appendix C)                   O((1+m) log log U) work,
//                                                O(log U log log U) span
//
// Contract, the same in every build mode: a universe outside [1, 2^63],
// insert of a key >= U, and a batch that is unsorted, holds a duplicate,
// or (insert) holds a key >= U throw Error{kInvalidArgument} before
// anything is mutated. Batch keys already present (insert) or absent
// (delete) are filtered out internally; erase and lookups of a key >= U
// see an absent key.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "parlis/util/arena.hpp"

namespace parlis {

class VebTree {
 public:
  /// Sentinel returned by the internal pred/succ helpers ("none").
  static constexpr uint64_t kNone = ~uint64_t{0};

  /// Opaque recursive node type (public so the implementation's free
  /// helper functions can name it; not part of the API surface). Nodes and
  /// cluster tables are pool-allocated from the tree's arena: creating a
  /// lazily-materialized cluster is a per-worker pointer bump instead of a
  /// make_unique hitting the global allocator, and teardown frees the whole
  /// structure in O(#chunks). Moving the tree moves the arena (and thus
  /// every node) with it; a moved-from tree may only be destroyed or
  /// assigned over.
  struct Node;

  /// Creates an empty set over universe [0, universe). Throws
  /// Error{kInvalidArgument} unless 1 <= universe <= 2^63.
  explicit VebTree(uint64_t universe);

  /// Same, but draws every node from `pool` instead of a private arena —
  /// for containers holding many small trees (Range-vEB inner trees), where
  /// one chunked pool amortizes what would otherwise be a chunk per tree.
  /// `pool` must outlive the tree; nodes of a destroyed or assigned-over
  /// shared-pool tree stay in the pool until the pool itself dies.
  VebTree(uint64_t universe, Arena* pool);

  ~VebTree();
  VebTree(VebTree&&) noexcept;
  VebTree& operator=(VebTree&&) noexcept;
  VebTree(const VebTree&) = delete;
  VebTree& operator=(const VebTree&) = delete;

  uint64_t universe() const { return universe_; }
  int64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // The point ops are defined inline in veb_node.hpp (included below): when
  // the root is a packed base block — every tree with universe <= 4096 —
  // they compile down to find-first-set kernels with no out-of-line call.
  // Larger trees fall through to the *_slow paths.
  bool contains(uint64_t x) const;
  std::optional<uint64_t> min() const;
  std::optional<uint64_t> max() const;
  /// Largest key < x (nullopt if none).
  std::optional<uint64_t> pred_lt(uint64_t x) const;
  /// Smallest key > x (nullopt if none).
  std::optional<uint64_t> succ_gt(uint64_t x) const;
  /// Largest key <= x / smallest key >= x.
  std::optional<uint64_t> pred_leq(uint64_t x) const;
  std::optional<uint64_t> succ_geq(uint64_t x) const;

  /// Single-point update; no-op if already present / absent. insert throws
  /// Error{kInvalidArgument} for x >= universe().
  void insert(uint64_t x);
  void erase(uint64_t x);

  /// Alg. 4: inserts a sorted, duplicate-free batch of keys below the
  /// universe (Error{kInvalidArgument} otherwise, tree unchanged). Keys
  /// already present are ignored. Returns the number actually inserted.
  int64_t batch_insert(const std::vector<uint64_t>& batch);

  /// Alg. 5: deletes a sorted, duplicate-free batch (Error{kInvalidArgument}
  /// otherwise, tree unchanged) using survivor mappings. Keys not present
  /// are ignored. Returns the number deleted.
  int64_t batch_delete(const std::vector<uint64_t>& batch);

  /// Alg. 6: all keys in [lo, hi], sorted, collected in parallel.
  std::vector<uint64_t> range(uint64_t lo, uint64_t hi) const;

  /// Testing hook: walks the structure checking every vEB invariant
  /// (min/max exclusivity, summary/cluster consistency). Aborts via assert
  /// on violation; returns the number of keys found.
  int64_t check_invariants() const;

  /// Bytes the node pool has reserved (testing/introspection hook; counts
  /// the whole pool for shared-pool trees).
  size_t pool_reserved_bytes() const { return arena_->reserved_bytes(); }

  /// Payload bytes actually handed out by the pool — nodes, cluster tables,
  /// word arrays (testing/introspection hook; whole pool for shared-pool
  /// trees). The zero-leaf-allocation checks diff this across inserts.
  size_t pool_allocated_bytes() const { return arena_->bytes_allocated(); }

 private:
  // The contract's throw, out of line so the inline point ops stay small.
  [[noreturn]] static void throw_out_of_universe(const char* what, uint64_t x,
                                                 uint64_t universe);

  // Out-of-line continuations of the inline point ops, for internal roots
  // (and the first insert into a word root, which must touch the arena).
  bool contains_slow(uint64_t x) const;
  std::optional<uint64_t> pred_lt_slow(uint64_t x) const;
  std::optional<uint64_t> succ_gt_slow(uint64_t x) const;
  void insert_slow(uint64_t x);
  void erase_slow(uint64_t x);

  std::unique_ptr<Arena> own_arena_;  // null for shared-pool trees
  Arena* arena_;                      // never null while the tree is valid
  Node* root_ = nullptr;              // owned by *arena_
  uint64_t universe_;
  int64_t size_ = 0;
};

}  // namespace parlis

#include "parlis/veb/veb_node.hpp"  // Node layout + inline point-op bodies
