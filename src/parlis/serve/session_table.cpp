#include "parlis/serve/session_table.hpp"

#include <string>

#include "parlis/parallel/random.hpp"
#include "parlis/util/error.hpp"
#include "parlis/util/failpoint.hpp"

namespace parlis::serve {

SessionTable::SessionTable(const Config& cfg)
    : solver_opts_(cfg.solver), budget_total_(cfg.memory_budget_bytes) {
  const int n = cfg.shards < 1 ? 1 : cfg.shards;
  shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; i++) {
    shards_.push_back(std::make_unique<Shard>());
    // Even split, remainder to the front shards, so the slices sum to the
    // global budget exactly.
    if (budget_total_ != 0) {
      shards_.back()->budget = budget_total_ / static_cast<uint64_t>(n) +
                               (static_cast<uint64_t>(i) <
                                        budget_total_ % static_cast<uint64_t>(n)
                                    ? 1
                                    : 0);
    }
  }
}

SessionTable::Shard& SessionTable::shard_for(uint64_t series) {
  // Avalanche the series id: tenant ids are often sequential, and the
  // shard map must not put neighbours on one shard.
  return *shards_[hash64(series) % shards_.size()];
}

uint64_t SessionTable::measure(const TenantEntry& e) {
  uint64_t b = sizeof(TenantEntry) + e.solver.resident_bytes() +
               e.wlis_out.resident_bytes() + e.lis_out.resident_bytes();
  if (e.session.has_value()) b += e.session->resident_bytes();
  return b;
}

void SessionTable::arm_budget(Shard& s, TenantEntry& e) {
  if (s.budget == 0) {
    e.solver.set_memory_budget_bytes(0);
    return;
  }
  // Headroom = the shard slice minus the OTHER PINNED entries' measured
  // bytes. Idle warm entries are deliberately not counted: they are pure
  // cache and the next admission (or enforce_budget) reclaims them, so
  // they must not shrink the active tenant's allowance — otherwise a full
  // shard would degrade every new tenant to the sequential fallback
  // instead of evicting cold state. The entry's own footprint is also
  // inside the allowance (a warm re-solve reuses those bytes). Clamp to 1:
  // 0 would mean "unlimited" to the solver.
  uint64_t pinned_others = 0;
  for (const TenantEntry& o : s.lru) {
    if (&o != &e && o.pins > 0) pinned_others += o.resident;
  }
  const uint64_t headroom =
      s.budget > pinned_others ? s.budget - pinned_others : 1;
  e.solver.set_memory_budget_bytes(headroom);
}

bool SessionTable::evict_for(Shard& s, uint64_t incoming) {
  if (s.budget == 0) return true;
  // Walk from the LRU tail, skipping pinned entries. Every eviction fires
  // the serve.evict failpoint first, so a fault test can prove the
  // pre-mutation unwind leaves the table coherent.
  auto it = s.lru.end();
  while (s.resident + incoming > s.budget && it != s.lru.begin()) {
    --it;
    if (it->pins > 0) continue;
    PARLIS_FAILPOINT("serve.evict");
    s.resident -= it->resident < s.resident ? it->resident : s.resident;
    s.index.erase(it->series);
    it = s.lru.erase(it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return s.resident + incoming <= s.budget;
}

SessionTable::Lease SessionTable::acquire(uint64_t series) {
  PARLIS_FAILPOINT("serve.admit");
  Shard& s = shard_for(series);
  std::lock_guard<std::mutex> lk(s.mu);
  auto found = s.index.find(series);
  if (found != s.index.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    s.lru.splice(s.lru.begin(), s.lru, found->second);  // touch, no alloc
    TenantEntry& e = *found->second;
    e.pins++;
    arm_budget(s, e);
    return Lease(this, &s, &e);
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  // Admission: construct first, measure the real footprint of the fresh
  // entry, then make room for that figure. A fresh entry is small (empty
  // workspaces); real growth happens later under the armed solver budget.
  s.lru.emplace_front(series, solver_opts_);
  TenantEntry& e = s.lru.front();
  // Pin the newcomer NOW: the eviction walk below skips pinned entries, and
  // without this it could take the incoming entry itself once everything
  // behind it is gone.
  e.pins = 1;
  e.resident = measure(e);
  bool fits = false;
  try {
    fits = evict_for(s, e.resident);
  } catch (...) {
    // serve.evict fired (or eviction failed structurally): unwind the
    // half-admitted newcomer so the lru/index stay coherent.
    s.lru.pop_front();
    throw;
  }
  if (!fits) {
    budget_rejections_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t have = s.budget > s.resident ? s.budget - s.resident : 0;
    const uint64_t need = e.resident;
    s.lru.pop_front();
    throw Error(ErrorCode::kBudgetExceeded,
                "SessionTable::acquire: fresh tenant needs " +
                    std::to_string(need) + " bytes but the shard has " +
                    std::to_string(have) +
                    " free after evicting every idle entry");
  }
  admissions_.fetch_add(1, std::memory_order_relaxed);
  s.resident += e.resident;
  s.index.emplace(series, s.lru.begin());
  arm_budget(s, e);  // e.pins is already 1 from the admission pin
  return Lease(this, &s, &e);
}

void SessionTable::release(Shard& s, TenantEntry& e) {
  std::lock_guard<std::mutex> lk(s.mu);
  // Fold the op's real growth (or shrinkage) into the shard total. Any
  // over-budget residue this leaves is resolved by the next acquire's
  // eviction pass — release must not throw.
  const uint64_t now = measure(e);
  s.resident += now;
  s.resident -= e.resident < s.resident ? e.resident : s.resident;
  e.resident = now;
  e.pins--;
}

void SessionTable::enforce_budget() {
  for (auto& sp : shards_) {
    std::lock_guard<std::mutex> lk(sp->mu);
    evict_for(*sp, 0);
  }
}

bool SessionTable::contains(uint64_t series) const {
  const Shard& s = *shards_[hash64(series) % shards_.size()];
  std::lock_guard<std::mutex> lk(s.mu);
  return s.index.find(series) != s.index.end();
}

int64_t SessionTable::tenant_count() const {
  int64_t n = 0;
  for (const auto& sp : shards_) {
    std::lock_guard<std::mutex> lk(sp->mu);
    n += static_cast<int64_t>(sp->lru.size());
  }
  return n;
}

uint64_t SessionTable::resident_bytes() const {
  uint64_t b = 0;
  for (const auto& sp : shards_) {
    std::lock_guard<std::mutex> lk(sp->mu);
    b += sp->resident;
  }
  return b;
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
  st.budget_bytes = static_cast<int64_t>(budget_total_);
  return st;
}

}  // namespace parlis::serve
