#include "parlis/util/failpoint.hpp"

#include <bit>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <new>
#include <thread>

#include "parlis/util/error.hpp"

namespace parlis {
namespace failpoints {

namespace {

// Every macro site compiled into the library, by name. Kept in sync by the
// fault test matrix: FaultInjection.EveryRegisteredSiteFires arms each name
// and proves it fires, so a site added without a row here (or a row whose
// site was deleted) fails the suite.
constexpr const char* kKnownSites[] = {
    "arena.chunk_alloc",    // Arena::take_chunk system allocation (OOM)
    "tracking_alloc",       // TrackingAllocator::allocate (OOM)
    "scheduler.spawn",      // Pool::push (delay)
    "scheduler.steal",      // Pool::try_steal_one (delay)
    "scheduler.park",       // Pool::park (delay)
    "lis.round",            // lis_ranks/frontiers round loop (fault)
    "lis.speculate",        // speculative patience chunk task (fault)
    "wlis.round",           // Alg. 2 round loop (fault)
    "wlis.sweep",           // Solver's WLIS pass, every 4096 elements (fault)
    "swgs.round",           // SWGS wake-up round loop (fault)
    "rangetree.rebuild",    // RangeTreeMax::rebuild level carve (OOM)
    "stream.append",        // LisSession::append patience step (fault)
    "solver.packed_query",  // solve_many packed query, before it runs (fault)
    "serve.admit",          // SessionTable::acquire entry (fault)
    "serve.evict",          // SessionTable eviction, pre-mutation (fault)
    "serve.coalesce",       // Engine coalesced solve_many dispatch (fault)
};

// Node-stable map so Site& stays valid forever; transparent compare so
// string_view lookups do not allocate on the hit path.
struct Registry {
  std::mutex mu;
  std::map<std::string, Site, std::less<>> sites;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: sites outlive static teardown
  return *r;
}

std::once_flag g_env_once;

uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Registry lookup without the load_env() prologue. The arm/disarm paths
// must use this one: public site() runs load_env() first, and load_env's
// parsing itself arms sites — routing that through site() would re-enter
// the still-in-flight call_once and deadlock.
Site& site_impl(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  auto it = r.sites.find(name);
  if (it == r.sites.end()) {
    it = r.sites.try_emplace(std::string(name)).first;
  }
  return it->second;
}

void arm(std::string_view name, Mode m, uint64_t arg, uint64_t seed) {
  Site& s = site_impl(name);
  s.hits.store(0, std::memory_order_relaxed);
  s.fires.store(0, std::memory_order_relaxed);
  s.arg.store(arg, std::memory_order_relaxed);
  s.seed.store(seed, std::memory_order_relaxed);
  s.mode.store(static_cast<uint32_t>(m), std::memory_order_release);
}

// One "name=trigger" clause of the env string. Triggers: "nth:N",
// "every:K", "prob:P" or "prob:P:SEED". Malformed clauses are ignored (env
// configuration must never take the process down).
void parse_clause(std::string_view clause) {
  size_t eq = clause.find('=');
  if (eq == std::string_view::npos) return;
  std::string_view name = clause.substr(0, eq);
  std::string spec(clause.substr(eq + 1));
  if (name.empty() || spec.empty()) return;
  size_t c1 = spec.find(':');
  std::string kind = spec.substr(0, c1);
  std::string rest = c1 == std::string::npos ? "" : spec.substr(c1 + 1);
  try {
    if (kind == "nth") {
      arm_nth(name, std::stoull(rest));
    } else if (kind == "every") {
      arm_every(name, std::stoull(rest));
    } else if (kind == "prob") {
      size_t c2 = rest.find(':');
      double p = std::stod(rest.substr(0, c2));
      uint64_t seed =
          c2 == std::string::npos ? 0x5eedull : std::stoull(rest.substr(c2 + 1));
      arm_probability(name, p, seed);
    }
  } catch (...) {
    // malformed number: ignore the clause
  }
}

}  // namespace

bool enabled() {
#if defined(PARLIS_FAILPOINTS_ENABLED)
  return true;
#else
  return false;
#endif
}

Site& site(std::string_view name) {
  load_env();
  return site_impl(name);
}

void arm_nth(std::string_view name, uint64_t nth) {
  arm(name, Mode::kNth, nth, 0);
}

void arm_every(std::string_view name, uint64_t k) {
  arm(name, Mode::kEvery, k == 0 ? 1 : k, 0);
}

void arm_probability(std::string_view name, double p, uint64_t seed) {
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  arm(name, Mode::kProb, std::bit_cast<uint64_t>(p), seed);
}

void disarm(std::string_view name) {
  site(name).mode.store(0, std::memory_order_release);
}

void disarm_all() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (auto& [name, s] : r.sites) {
    s.mode.store(0, std::memory_order_release);
  }
}

uint64_t hit_count(std::string_view name) {
  return site(name).hits.load(std::memory_order_relaxed);
}

uint64_t fire_count(std::string_view name) {
  return site(name).fires.load(std::memory_order_relaxed);
}

std::vector<std::string> registered() {
  return std::vector<std::string>(std::begin(kKnownSites),
                                  std::end(kKnownSites));
}

void load_env() {
  std::call_once(g_env_once, [] {
    const char* env = std::getenv("PARLIS_FAILPOINTS");
    if (env == nullptr || *env == '\0') return;
    std::string_view all(env);
    while (!all.empty()) {
      size_t sep = all.find_first_of(";,");
      parse_clause(all.substr(0, sep));
      if (sep == std::string_view::npos) break;
      all.remove_prefix(sep + 1);
    }
  });
}

namespace detail {

bool should_fire(Site& s) {
  Mode m = static_cast<Mode>(s.mode.load(std::memory_order_acquire));
  if (m == Mode::kOff) return false;
  uint64_t h = s.hits.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t arg = s.arg.load(std::memory_order_relaxed);
  bool fire = false;
  switch (m) {
    case Mode::kOff:
      break;
    case Mode::kNth:
      fire = h == arg;
      break;
    case Mode::kEvery:
      fire = h % arg == 0;
      break;
    case Mode::kProb: {
      double p = std::bit_cast<double>(arg);
      uint64_t u = splitmix64(s.seed.load(std::memory_order_relaxed) ^ h);
      fire = static_cast<double>(u >> 11) * 0x1.0p-53 < p;
      break;
    }
  }
  if (fire) s.fires.fetch_add(1, std::memory_order_relaxed);
  return fire;
}

void throw_fault(const char* name) {
  throw Error(ErrorCode::kFaultInjected, std::string("failpoint ") + name);
}

void throw_oom() { throw std::bad_alloc(); }

void delay() { std::this_thread::sleep_for(std::chrono::microseconds(100)); }

}  // namespace detail

}  // namespace failpoints
}  // namespace parlis
