// parlis::serve::SessionTable — multi-tenant warm-state ownership with LRU
// eviction under an explicit, measured memory budget, and the one place
// that serializes a tenant.
//
// A serving process holds many tenants' warm solver state at once: a
// streaming tenant's LisSession (window buffer, pile tops, cached
// frontiers) and/or a batch tenant's Solver scratch (patience tails, the
// one rank space that doubles as the weighted value cache, the Fenwick
// pass's nodes, result buffers). All of it is pure derived state —
// evicting a tenant loses time, never answers — so the table treats warm
// state as a cache with an explicit byte budget:
//
//   * One table: one mutex guards the index, the LRU list, each entry's
//     pin count and lease bit, and the resident total; one budget covers
//     every tenant.
//   * Leases are exclusive: acquire() pins the entry, then takes its lease
//     bit, waiting while another Lease holds it, so at most one Lease on a
//     series is alive at a time and a second acquire() of it returns only
//     after the first is released. The state behind a Lease therefore
//     follows the Solver's one-thread-at-a-time contract with no
//     coordination by the caller.
//   * Resident bytes are MEASURED, never estimated: every figure comes
//     from resident_bytes() accessors that read real vector capacities
//     (util/resident.hpp documents the contract). A released lease
//     re-measures its entry while it still holds the entry, so the measure
//     never races the tenant's next operation.
//   * Admission reuses the Solver's budget_plan machinery: once a lease
//     owns its tenant, acquire() arms the tenant solver's memory budget
//     with the current headroom (the budget minus the other PINNED
//     tenants — idle warm entries are reclaimable cache, so they don't
//     shrink the allowance), and an over-headroom operation degrades to
//     the sequential fallback or throws Error{kBudgetExceeded} BEFORE
//     allocating — the table never learns about a blown budget from the
//     allocator. Growth parked by a lease release can leave the table
//     transiently over budget; the next admission's eviction pass (or
//     enforce_budget) reclaims it.
//   * Eviction is LRU over idle entries only (a pinned entry — one with a
//     live or waiting Lease — is in use and never evicted), runs at
//     admission time to make room, and fires the serve.evict failpoint
//     before mutating. A release clears its entry's lease bit and unpins it
//     in one step under the table mutex, so an eviction never frees a
//     leased entry.
//
// Re-admission correctness: everything an entry holds is derived from
// caller-supplied inputs, so an evicted-then-readmitted tenant's cold
// solve is bit-identical to its pre-eviction warm solve (the churn test
// pins this).
//
// Thread-safety: every public entry point is safe to call concurrently;
// table state is mutex-guarded, counters are relaxed atomics. A Lease may
// be released on any thread. A thread must not acquire a series it
// already holds a Lease on (it would wait for itself).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "parlis/api/options.hpp"
#include "parlis/api/solver.hpp"
#include "parlis/serve/serve_stats.hpp"
#include "parlis/stream/lis_session.hpp"

namespace parlis::serve {

class SessionTable {
 public:
  struct Config {
    /// Budget over every tenant's measured resident bytes; 0 = none.
    uint64_t memory_budget_bytes = 0;
    /// Per-tenant solver configuration (ties policy, window mode for
    /// streaming tenants, ...). The memory_budget_bytes field inside is
    /// overwritten per acquire with the table's headroom.
    Options solver{};
  };

  explicit SessionTable(const Config& cfg);
  SessionTable(const SessionTable&) = delete;
  SessionTable& operator=(const SessionTable&) = delete;

  class Lease;

  /// Pins (admitting if absent) the tenant entry for `series`, waits until
  /// no other Lease holds it, and returns an exclusive Lease on it. Touches
  /// the LRU, clears the tenant solver's cancel token and deadline, arms
  /// its memory budget with the table's current headroom, and — on
  /// admission — evicts idle LRU entries until the newcomer fits, throwing
  /// Error{kBudgetExceeded} when even a fresh entry cannot fit. Fires the
  /// serve.admit failpoint on entry and serve.evict before each eviction.
  /// The wait polls the calling thread's cancellation scope (an Engine
  /// verb's guard, util/exec_context.hpp) every millisecond: when it trips,
  /// acquire unpins the entry and throws its Error{kCancelled} or
  /// Error{kDeadlineExceeded} while the holder still holds the lease.
  Lease acquire(uint64_t series);

  /// Evicts idle LRU entries while the table is over budget. Admission
  /// does this implicitly; this is the explicit form for drain/maintenance
  /// paths.
  void enforce_budget();

  /// True while `series` is resident (snapshot; may change immediately).
  bool contains(uint64_t series) const;

  int64_t tenant_count() const;
  /// Sum of the measured per-entry figures (as of each entry's last
  /// release; a leased entry's in-flight growth lands at its release).
  uint64_t resident_bytes() const;
  uint64_t budget_bytes() const { return budget_; }

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
    uint64_t resident = 0;  // measured at admission and on each release
    int32_t pins = 0;       // live and waiting leases; guarded by mu_
    bool leased = false;    // a live Lease holds the entry; guarded by mu_

    explicit TenantEntry(uint64_t s, const Options& opts)
        : series(s), solver(opts) {}
  };

  friend class Lease;

  static uint64_t measure(const TenantEntry& e);
  // Arms e.solver's budget with the headroom left after the other PINNED
  // entries' resident bytes (idle entries are reclaimable and do not
  // count — see the .cpp comment). Caller holds mu_ and e's lease.
  void arm_budget(TenantEntry& e);
  // Evicts idle LRU entries until resident + incoming <= budget or nothing
  // idle remains; returns whether the target was met. Caller holds mu_.
  // Fires serve.evict before each eviction.
  bool evict_for(uint64_t incoming);
  // Pins the entry for `series` (admitting it if absent). Caller holds mu_.
  TenantEntry& pin(uint64_t series);
  void release(TenantEntry& e);

  mutable std::mutex mu_;
  std::condition_variable released_;  // a lease bit was cleared
  // Ownership + recency order: front = most recently used. Splicing for
  // LRU touches never moves elements, so entry addresses are stable.
  std::list<TenantEntry> lru_;
  std::unordered_map<uint64_t, std::list<TenantEntry>::iterator> index_;
  uint64_t resident_ = 0;  // sum of entry.resident
  const uint64_t budget_;
  const Options solver_opts_;

  mutable std::atomic<int64_t> admissions_{0};
  mutable std::atomic<int64_t> evictions_{0};
  mutable std::atomic<int64_t> budget_rejections_{0};
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
};

/// RAII exclusive hold on a tenant entry. While alive, the entry cannot be
/// evicted and no other Lease on its series exists; on destruction the
/// entry is re-measured, released and unpinned (never throwing — eviction
/// pressure created by the release is handled at the next admission,
/// where a failure has a caller to land on).
class SessionTable::Lease {
 public:
  Lease(Lease&& o) noexcept : table_(o.table_), entry_(o.entry_) {
    o.table_ = nullptr;
  }
  Lease& operator=(Lease&&) = delete;
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;
  ~Lease() {
    if (table_ != nullptr) table_->release(*entry_);
  }

  uint64_t series() const { return entry_->series; }

  /// The tenant's solver, budget-armed and unguarded when the lease took
  /// the tenant.
  Solver& solver() { return entry_->solver; }

  /// The tenant's streaming session, created on first use (streaming
  /// tenants only pay for it).
  LisSession& session() {
    if (!entry_->session.has_value()) {
      entry_->session.emplace(entry_->solver);
    }
    return *entry_->session;
  }

  /// The entry's measured footprint as of its last release.
  uint64_t resident_bytes() const { return entry_->resident; }

 private:
  friend class SessionTable;
  Lease(SessionTable* t, TenantEntry* e) : table_(t), entry_(e) {}

  SessionTable* table_;
  TenantEntry* entry_;
};

}  // namespace parlis::serve
