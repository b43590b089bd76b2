// Serving-engine observability: one plain snapshot struct shared by the
// SessionTable and the Engine.
//
// The live counters are relaxed atomics inside their owners (the
// SessionTable's table events, the Engine's request events); stats()
// materializes them into this struct so callers — the micro_serve bench,
// the multi_tenant example, capacity dashboards — read one coherent-enough
// snapshot (each field is exact; cross-field skew is bounded by whatever
// was in flight during the read, the usual monitoring contract).
#pragma once

#include <cstdint>

namespace parlis::serve {

struct Stats {
  // --- SessionTable ---
  int64_t admissions = 0;         // tenant entries created
  int64_t evictions = 0;          // tenant entries evicted for budget
  int64_t budget_rejections = 0;  // admissions refused (kBudgetExceeded)
  int64_t table_hits = 0;         // acquire() found the tenant resident
  int64_t table_misses = 0;       // acquire() had to admit
  int64_t tenants = 0;            // currently resident entries
  int64_t resident_bytes = 0;     // measured bytes across all tenants
  int64_t budget_bytes = 0;       // configured table budget (0 = none)

  // --- Engine ---
  int64_t requests = 0;            // solves submitted (incl. overload
                                   // rejections) and tenant ops leased
  int64_t overload_rejections = 0; // kOverloaded fail-fast refusals
  int64_t cancelled_queued = 0;    // completed without running: cancel
  int64_t expired_queued = 0;      // completed without running: deadline
  int64_t coalesced_batches = 0;   // solve_many batches dispatched
  int64_t coalesced_queries = 0;   // queries inside those batches
  int64_t coalesced_batch_max = 0; // largest batch so far
  int64_t queue_depth_hwm = 0;     // admission-queue high-water mark
  int64_t value_cache_hits = 0;    // warm weighted solves whose rank space
                                   // came from the tenant's value cache
                                   // (Solver::solve_wlis returned true)
  int64_t value_cache_misses = 0;  // the other warm weighted solves that
                                   // completed
};

}  // namespace parlis::serve
