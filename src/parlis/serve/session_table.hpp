// parlis::serve::SessionTable — multi-tenant warm-state ownership with LRU
// eviction under an explicit, measured memory budget.
//
// A serving process holds many tenants' warm solver state at once: a
// streaming tenant's LisSession (window buffer, pile tops, cached
// frontiers) and/or a batch tenant's Solver scratch (patience tails, the
// one rank space that doubles as the weighted value cache, the Fenwick
// pass's nodes, result buffers). All of it is pure derived state —
// evicting a tenant loses time, never answers — so the table treats warm
// state as a cache with an explicit byte budget:
//
//   * Sharded by key from day one: series id hashes to one of
//     Config::shards independent shards (own mutex, own LRU list, own
//     index, own slice of the budget). Shard count is fixed at
//     construction, so the series -> shard map is static — the same map a
//     multi-host deployment would use to place tenants on machines, which
//     is why the budget is partitioned per shard rather than pooled (a
//     global pool is exactly what does not scale past one host).
//   * Resident bytes are MEASURED, never estimated: every figure comes
//     from resident_bytes() accessors that read real vector capacities
//     (util/resident.hpp documents the contract). An entry is re-measured
//     on every lease release, so the shard totals track actual growth.
//   * Admission reuses the Solver's budget_plan machinery: acquire() arms
//     the tenant solver's memory budget with the shard's current headroom
//     (the slice minus other PINNED tenants — idle warm entries are
//     reclaimable cache, so they don't shrink the allowance), and an
//     over-headroom operation degrades to the sequential fallback or
//     throws Error{kBudgetExceeded} BEFORE allocating — the table never
//     learns about a blown budget from the allocator. Growth parked by a
//     lease release can leave a shard transiently over its slice; the
//     next acquire's eviction pass (or enforce_budget) reclaims it.
//   * Eviction is LRU over idle entries only (a pinned entry — one with a
//     live Lease — is in use and never evicted), runs at admission time to
//     make room, and fires the serve.evict failpoint before mutating.
//
// Re-admission correctness: everything an entry holds is derived from
// caller-supplied inputs, so an evicted-then-readmitted tenant's cold
// solve is bit-identical to its pre-eviction warm solve (the churn test
// pins this).
//
// Thread-safety: every public entry point is safe to call concurrently;
// shard state is mutex-guarded, counters are relaxed atomics. The state
// behind a Lease follows the Solver's own contract — one thread at a time
// per tenant; the table pins but does not serialize, so two threads
// leasing the SAME series concurrently must coordinate (the Engine's
// dispatcher serializes per-tenant execution, which is the intended use).
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "parlis/api/options.hpp"
#include "parlis/api/solver.hpp"
#include "parlis/serve/serve_stats.hpp"
#include "parlis/stream/lis_session.hpp"

namespace parlis::serve {

class SessionTable {
 public:
  struct Config {
    /// Global budget over all shards' measured resident bytes; 0 = none.
    /// Split evenly across shards (see the shard-by-key note above).
    uint64_t memory_budget_bytes = 0;
    /// Independent shards; clamped to >= 1. Fixed at construction.
    int shards = 8;
    /// Per-tenant solver configuration (ties policy, window mode for
    /// streaming tenants, ...). The memory_budget_bytes field inside is
    /// overwritten per acquire with the shard headroom.
    Options solver{};
  };

  explicit SessionTable(const Config& cfg);
  SessionTable(const SessionTable&) = delete;
  SessionTable& operator=(const SessionTable&) = delete;

  class Lease;

  /// Pins (admitting if absent) the tenant entry for `series` and returns
  /// a Lease on it. Touches the shard LRU, arms the tenant solver's memory
  /// budget with the shard's current headroom, and — on admission — evicts
  /// idle LRU entries until the newcomer fits, throwing
  /// Error{kBudgetExceeded} when even a fresh entry cannot fit. Fires the
  /// serve.admit failpoint on entry and serve.evict before each eviction.
  Lease acquire(uint64_t series);

  /// Evicts idle LRU entries in every over-budget shard. acquire() does
  /// this implicitly for its own shard; this is the explicit form for
  /// drain/maintenance paths.
  void enforce_budget();

  /// True while `series` is resident (snapshot; may change immediately).
  bool contains(uint64_t series) const;

  int64_t tenant_count() const;
  /// Sum of the measured per-entry figures across all shards (as of each
  /// entry's last release; a pinned entry's in-flight growth lands at its
  /// release).
  uint64_t resident_bytes() const;
  uint64_t budget_bytes() const { return budget_total_; }
  int shard_count() const { return static_cast<int>(shards_.size()); }

  /// Table-side counters folded into a Stats snapshot (Engine fields,
  /// the value-cache counts among them, stay zero; the Engine overlays its
  /// own).
  Stats stats() const;

 private:
  struct TenantEntry {
    uint64_t series = 0;
    Solver solver;
    // Streaming tenants only; created lazily by Lease::session(). Lives
    // behind the entry's stable list-node address, so the session's
    // Solver* binding survives LRU splices.
    std::optional<LisSession> session;
    // Reusable per-tenant result buffers, so warm engine ops write into
    // tenant-owned capacity instead of allocating per request.
    WlisResult wlis_out;
    LisResult lis_out;
    uint64_t resident = 0;  // measured at admission and on each release
    int32_t pins = 0;       // live leases; guarded by the shard mutex

    explicit TenantEntry(uint64_t s, const Options& opts)
        : series(s), solver(opts) {}
  };

  struct Shard {
    mutable std::mutex mu;
    // Ownership + recency order: front = most recently used. Splicing for
    // LRU touches never moves elements, so entry addresses are stable.
    std::list<TenantEntry> lru;
    std::unordered_map<uint64_t, std::list<TenantEntry>::iterator> index;
    uint64_t resident = 0;  // sum of entry.resident
    uint64_t budget = 0;    // this shard's slice; 0 = none
  };

  friend class Lease;

  Shard& shard_for(uint64_t series);
  static uint64_t measure(const TenantEntry& e);
  // Arms e.solver's budget with the shard headroom left after the other
  // PINNED entries' resident bytes (idle entries are reclaimable and do
  // not count — see the .cpp comment). Caller holds s.mu.
  void arm_budget(Shard& s, TenantEntry& e);
  // Evicts idle LRU entries of `s` until resident + incoming <= budget or
  // nothing idle remains; returns whether the target was met. Caller holds
  // s.mu. Fires serve.evict before each eviction.
  bool evict_for(Shard& s, uint64_t incoming);
  void release(Shard& s, TenantEntry& e);

  std::vector<std::unique_ptr<Shard>> shards_;
  Options solver_opts_;
  uint64_t budget_total_ = 0;

  mutable std::atomic<int64_t> admissions_{0};
  mutable std::atomic<int64_t> evictions_{0};
  mutable std::atomic<int64_t> budget_rejections_{0};
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
};

/// RAII pin on a tenant entry. While alive, the entry cannot be evicted;
/// on destruction the entry is re-measured and unpinned (never throwing —
/// eviction pressure created by the release is handled at the next
/// acquire, where a failure has a caller to land on).
class SessionTable::Lease {
 public:
  Lease(Lease&& o) noexcept
      : table_(o.table_), shard_(o.shard_), entry_(o.entry_) {
    o.table_ = nullptr;
  }
  Lease& operator=(Lease&&) = delete;
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;
  ~Lease() {
    if (table_ != nullptr) table_->release(*shard_, *entry_);
  }

  uint64_t series() const { return entry_->series; }

  /// The tenant's solver, budget-armed at acquire time. One thread at a
  /// time (the Solver contract).
  Solver& solver() { return entry_->solver; }

  /// The tenant's streaming session, created on first use (streaming
  /// tenants only pay for it).
  LisSession& session() {
    if (!entry_->session.has_value()) {
      entry_->session.emplace(entry_->solver);
    }
    return *entry_->session;
  }

  /// Tenant-owned result buffers for allocation-free warm serving.
  WlisResult& wlis_out() { return entry_->wlis_out; }
  LisResult& lis_out() { return entry_->lis_out; }

  /// Re-arms the solver's budget with the shard's CURRENT headroom. The
  /// Engine calls this just before executing a queued op: headroom may
  /// have shrunk (or grown) between submit-time acquire and execution.
  void refresh_budget() {
    std::lock_guard<std::mutex> lk(shard_->mu);
    table_->arm_budget(*shard_, *entry_);
  }

  /// The entry's measured footprint as of its last release.
  uint64_t resident_bytes() const { return entry_->resident; }

 private:
  friend class SessionTable;
  Lease(SessionTable* t, Shard* s, TenantEntry* e)
      : table_(t), shard_(s), entry_(e) {}

  SessionTable* table_;
  Shard* shard_;
  TenantEntry* entry_;
};

}  // namespace parlis::serve
