#include "parlis/serve/session_table.hpp"

#include <chrono>
#include <string>

#include "parlis/util/error.hpp"
#include "parlis/util/exec_context.hpp"
#include "parlis/util/failpoint.hpp"

namespace parlis::serve {

SessionTable::SessionTable(const Config& cfg)
    : budget_(cfg.memory_budget_bytes), solver_opts_(cfg.solver) {}

uint64_t SessionTable::measure(const TenantEntry& e) {
  uint64_t b = sizeof(TenantEntry) + e.solver.resident_bytes();
  if (e.session.has_value()) b += e.session->resident_bytes();
  return b;
}

void SessionTable::arm_budget(TenantEntry& e) {
  if (budget_ == 0) {
    e.solver.set_memory_budget_bytes(0);
    return;
  }
  // Headroom = the budget minus the OTHER PINNED entries' measured bytes.
  // Idle warm entries are deliberately not counted: they are pure cache
  // and the next admission (or enforce_budget) reclaims them, so they must
  // not shrink the active tenant's allowance — otherwise a full table
  // would degrade every new tenant to the sequential fallback instead of
  // evicting cold state. The entry's own footprint is also inside the
  // allowance (a warm re-solve reuses those bytes). Clamp to 1: 0 would
  // mean "unlimited" to the solver.
  uint64_t pinned_others = 0;
  for (const TenantEntry& o : lru_) {
    if (&o != &e && o.pins > 0) pinned_others += o.resident;
  }
  const uint64_t headroom =
      budget_ > pinned_others ? budget_ - pinned_others : 1;
  e.solver.set_memory_budget_bytes(headroom);
}

bool SessionTable::evict_for(uint64_t incoming) {
  if (budget_ == 0) return true;
  // Walk from the LRU tail, skipping pinned entries. Every eviction fires
  // the serve.evict failpoint first, so a fault test can prove the
  // pre-mutation unwind leaves the table coherent.
  auto it = lru_.end();
  while (resident_ + incoming > budget_ && it != lru_.begin()) {
    --it;
    if (it->pins > 0) continue;
    PARLIS_FAILPOINT("serve.evict");
    resident_ -= it->resident < resident_ ? it->resident : resident_;
    index_.erase(it->series);
    it = lru_.erase(it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return resident_ + incoming <= budget_;
}

SessionTable::TenantEntry& SessionTable::pin(uint64_t series) {
  auto found = index_.find(series);
  if (found != index_.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    lru_.splice(lru_.begin(), lru_, found->second);  // touch, no alloc
    found->second->pins++;
    return *found->second;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  // Admission: construct first, measure the real footprint of the fresh
  // entry, then make room for that figure. A fresh entry is small (empty
  // workspaces); real growth happens later under the armed solver budget.
  lru_.emplace_front(series, solver_opts_);
  TenantEntry& e = lru_.front();
  // Pin the newcomer NOW: the eviction walk below skips pinned entries, and
  // without this it could take the incoming entry itself once everything
  // behind it is gone.
  e.pins = 1;
  e.resident = measure(e);
  bool fits = false;
  try {
    fits = evict_for(e.resident);
  } catch (...) {
    // serve.evict fired (or eviction failed structurally): unwind the
    // half-admitted newcomer so the lru/index stay coherent.
    lru_.pop_front();
    throw;
  }
  if (!fits) {
    budget_rejections_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t have = budget_ > resident_ ? budget_ - resident_ : 0;
    const uint64_t need = e.resident;
    lru_.pop_front();
    throw Error(ErrorCode::kBudgetExceeded,
                "SessionTable::acquire: fresh tenant needs " +
                    std::to_string(need) + " bytes but the table has " +
                    std::to_string(have) +
                    " free after evicting every idle entry");
  }
  admissions_.fetch_add(1, std::memory_order_relaxed);
  resident_ += e.resident;
  index_.emplace(series, lru_.begin());
  return e;
}

SessionTable::Lease SessionTable::acquire(uint64_t series) {
  PARLIS_FAILPOINT("serve.admit");
  std::unique_lock<std::mutex> lk(mu_);
  TenantEntry& e = pin(series);
  // The pin keeps the entry alive while this thread waits (with mu_
  // released) for the current holder's release. The wait polls the
  // calling thread's scope: when it trips, the entry is unpinned and the
  // error thrown while the holder still holds the lease.
  while (e.leased) {
    try {
      internal::poll_cancellation();
    } catch (...) {
      e.pins--;
      throw;
    }
    released_.wait_for(lk, std::chrono::milliseconds(1));
  }
  e.leased = true;
  // Every lease starts unguarded: a token or deadline the previous holder
  // set for its own operation must not reach this one.
  e.solver.set_cancel(CancelToken{});
  e.solver.set_deadline_ms(0);
  arm_budget(e);
  return Lease(this, &e);
}

void SessionTable::release(TenantEntry& e) {
  // Measured while the lease still owns the entry, so no other thread is
  // touching its solver or session.
  const uint64_t now = measure(e);
  {
    std::lock_guard<std::mutex> lk(mu_);
    // Fold the op's real growth (or shrinkage) into the total. Any
    // over-budget residue this leaves is resolved by the next admission's
    // eviction pass — release must not throw.
    resident_ += now;
    resident_ -= e.resident < resident_ ? e.resident : resident_;
    e.resident = now;
    // Unlocked and unpinned in one step: an entry eviction can see as idle
    // is never leased.
    e.leased = false;
    e.pins--;
  }
  released_.notify_all();
}

void SessionTable::enforce_budget() {
  std::lock_guard<std::mutex> lk(mu_);
  evict_for(0);
}

bool SessionTable::contains(uint64_t series) const {
  std::lock_guard<std::mutex> lk(mu_);
  return index_.find(series) != index_.end();
}

int64_t SessionTable::tenant_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int64_t>(lru_.size());
}

uint64_t SessionTable::resident_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return resident_;
}

Stats SessionTable::stats() const {
  Stats st;
  st.admissions = admissions_.load(std::memory_order_relaxed);
  st.evictions = evictions_.load(std::memory_order_relaxed);
  st.budget_rejections = budget_rejections_.load(std::memory_order_relaxed);
  st.table_hits = hits_.load(std::memory_order_relaxed);
  st.table_misses = misses_.load(std::memory_order_relaxed);
  st.tenants = tenant_count();
  st.resident_bytes = static_cast<int64_t>(resident_bytes());
  st.budget_bytes = static_cast<int64_t>(budget_);
  return st;
}

}  // namespace parlis::serve
