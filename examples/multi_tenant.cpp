// A multi-tenant serving loop under memory pressure: N tenants' tick
// streams and warm weighted queries interleave through one
// parlis::serve::Engine whose session table is budgeted for only a few of
// them. The table measures every tenant's real footprint, evicts the
// least-recently-used idle tenants to stay under budget, and a tenant
// that comes back after eviction is rebuilt transparently (cold replay,
// identical answers — warm state is pure cache).
//
//   ./examples/multi_tenant [tenants] [ticks]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "parlis/api/solver.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/serve/engine.hpp"

int main(int argc, char** argv) {
  const int tenants = argc > 1 ? std::atoi(argv[1]) : 6;
  const int64_t ticks = argc > 2 ? std::atoll(argv[2]) : 1500;

  // Per-tenant synthetic feed: a drifting random walk plus a weight track.
  std::vector<std::vector<int64_t>> feed(static_cast<size_t>(tenants)),
      weight(static_cast<size_t>(tenants));
  for (int s = 0; s < tenants; s++) {
    int64_t p = 10000;
    for (int64_t i = 0; i < ticks; i++) {
      p += static_cast<int64_t>(
               parlis::uniform(static_cast<uint64_t>(s + 1), i, 201)) -
           98;
      feed[static_cast<size_t>(s)].push_back(p);
      weight[static_cast<size_t>(s)].push_back(
          1 + static_cast<int64_t>(
                  parlis::uniform(static_cast<uint64_t>(100 + s), i, 500)));
    }
  }

  // Size the budget off one MEASURED warm tenant (a fully streamed
  // session plus its warm weighted query), then grant ~2.5 of them: with
  // more tenants than that live, the table must churn.
  uint64_t one = 0;
  {
    parlis::serve::SessionTable::Config probe;
    parlis::serve::SessionTable t(probe);
    {
      auto lease = t.acquire(0);
      for (int64_t v : feed[0]) (void)lease.session().append(v);
      // The query as solve_warm runs it, into the tenant solver's own
      // result buffers.
      parlis::QueryResult r;
      (void)lease.solver().solve_query({feed[0], weight[0]}, r);
    }
    one = t.resident_bytes();
  }

  // The grant must also admit the largest weighted solve the run makes
  // (a whole feed): the Solver prices it with a static model before it
  // allocates, and the model is generous at small n (README "Memory
  // budgets"), so a warm tenant can measure less than one solve's model.
  // Grow the grant until a probe solve under it is admitted.
  uint64_t budget = one * 5 / 2;
  for (bool admitted = false; !admitted;) {
    parlis::Options o;
    o.memory_budget_bytes = budget;
    parlis::Solver probe(o);
    parlis::WlisResult out;
    try {
      probe.solve_wlis(feed[0], weight[0], out);
      admitted = true;
    } catch (const parlis::Error& e) {
      if (e.code() != parlis::ErrorCode::kBudgetExceeded) throw;
      budget += one / 2;
    }
  }

  parlis::serve::EngineConfig cfg;
  cfg.table.memory_budget_bytes = budget;
  parlis::serve::Engine engine(cfg);
  std::printf(
      "multi_tenant: %d tenants x %lld ticks, one warm tenant ~%llu bytes, "
      "budget %llu bytes (~%.1f tenants)\n\n",
      tenants, static_cast<long long>(ticks),
      static_cast<unsigned long long>(one),
      static_cast<unsigned long long>(budget),
      static_cast<double>(budget) / static_cast<double>(one));

  // Interleave: each round streams a chunk of every tenant's feed, then
  // runs one tenant's warm weighted query. Tenants take turns being hot;
  // whoever has been idle longest gets evicted when space runs out.
  const int64_t chunk = ticks / 10;
  std::vector<int64_t> appended(static_cast<size_t>(tenants), 0);
  std::vector<int64_t> last_k(static_cast<size_t>(tenants), 0);
  for (int round = 0; round < 10; round++) {
    for (int s = 0; s < tenants; s++) {
      auto& f = feed[static_cast<size_t>(s)];
      int64_t& off = appended[static_cast<size_t>(s)];
      const int64_t end = round == 9 ? ticks : off + chunk;
      for (; off < end; off++) {
        last_k[static_cast<size_t>(s)] = engine.append(
            static_cast<uint64_t>(s), f[static_cast<size_t>(off)]);
      }
    }
    const int hot = round % tenants;
    parlis::Query q;
    q.a = std::span<const int64_t>(feed[static_cast<size_t>(hot)])
              .first(static_cast<size_t>(appended[static_cast<size_t>(hot)]));
    q.w = std::span<const int64_t>(weight[static_cast<size_t>(hot)])
              .first(static_cast<size_t>(appended[static_cast<size_t>(hot)]));
    auto r = engine.solve_warm(static_cast<uint64_t>(hot), q);
    // A maintenance tick per round: the weighted state parked by the hot
    // tenant's release is reclaimed here, not at the next admission.
    engine.table().enforce_budget();
    auto st = engine.stats();
    std::printf(
        "round %d: tenant %d wlis best=%lld k=%d | resident %lld/%lld bytes, "
        "%lld tenants live, %lld evictions\n",
        round, hot, static_cast<long long>(r.best), r.k,
        static_cast<long long>(st.resident_bytes),
        static_cast<long long>(st.budget_bytes),
        static_cast<long long>(st.tenants),
        static_cast<long long>(st.evictions));
  }

  // Eviction lost only warm state, never answers: every tenant's weighted
  // query over its full feed must match a cold reference solve exactly —
  // whether that tenant stayed hot the whole run or was evicted and
  // re-admitted (cold) several times along the way.
  bool ok = true;
  for (int s = 0; s < tenants; s++) {
    parlis::Query q;
    q.a = feed[static_cast<size_t>(s)];
    q.w = weight[static_cast<size_t>(s)];
    const auto got = engine.solve_warm(static_cast<uint64_t>(s), q);
    parlis::Solver ref;
    parlis::WlisResult out;
    ref.solve_wlis(q.a, q.w, out);
    ok = ok && got.best == out.best && got.k == out.k;
  }

  // Settle: growth parked by released leases is reclaimed at the next
  // acquire or at an explicit maintenance tick; take the tick so the
  // final resident figure is the governed steady-state one.
  engine.table().enforce_budget();
  auto st = engine.stats();
  std::printf(
      "\nfinal: %lld requests, %lld admissions, %lld evictions, "
      "%lld/%lld table hits, resident %lld <= budget %lld: %s\n",
      static_cast<long long>(st.requests),
      static_cast<long long>(st.admissions),
      static_cast<long long>(st.evictions),
      static_cast<long long>(st.table_hits),
      static_cast<long long>(st.table_hits + st.table_misses),
      static_cast<long long>(st.resident_bytes),
      static_cast<long long>(st.budget_bytes),
      st.resident_bytes <= st.budget_bytes ? "yes" : "NO");
  if (!ok || st.evictions == 0) {
    std::printf("FAIL: %s\n", !ok ? "replay mismatch" : "no eviction churn");
    return 1;
  }
  std::printf("OK: tenants churned through the budget and answers held\n");
  return 0;
}
