// Serving-engine microbenchmark: closed-loop throughput and per-op tail
// latency for parlis::serve::Engine, against the raw Solver::solve_many
// batch row (micro_api's acceptance shape) as the baseline.
//
//   coalesced    — the same batchq x batchn mixed query set as micro_api's
//                  solve_many row, served two ways per rep (interleaved so
//                  drift cancels): one direct warm solve_many call, then
//                  closed-loop through the Engine (`clients` threads, each
//                  submitting `burst` queries per solve() call; the
//                  combining pass lingers briefly, then coalesces the
//                  concurrent bursts back into one solve_many batch).
//                  Acceptance: the PAIRED per-rep ratio engine/direct stays
//                  within a 2% queue-tax bound — coalescing must amortize
//                  the queue down to noise (engine >= direct outright is
//                  the common draw, but on a 1-hw-thread host a queue can
//                  at best tie the direct call it wraps; see EXPERIMENTS.md).
//   op_mix       — closed-loop per-op latency distributions (p50/p99 over
//                  `mixops` ops) for the serving verbs: streaming append,
//                  warm weighted solve on a hot tenant (value-cache hits),
//                  and a small stateless solve through the coalescing path.
//                  On a 1-hw-thread host these per-op figures are the
//                  signal, not wall-clock scaling (see EXPERIMENTS.md).
//   budget       — tenants streamed past warm capacity under an undersized
//                  byte budget (sized off a MEASURED warm-tenant footprint,
//                  never an estimate): the settled resident figure must
//                  stay <= the budget while admissions churn the LRU.
//
// Flags: --reps, --batchq, --batchn, --clients, --burst, --mixn, --mixops,
// --threads, --out FILE (BENCH_*.json records), --strict (exit 2 unless
// engine >= baseline AND resident <= budget; advisory otherwise).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/bench_json.hpp"
#include "parlis/api/solver.hpp"
#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/serve/engine.hpp"

namespace {

using namespace parlis;
using namespace parlis::bench;

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

struct Tail {
  double p50_ms = 0, p99_ms = 0;
};

Tail tail_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  Tail t;
  t.p50_ms = v[(v.size() - 1) / 2] * 1e3;
  t.p99_ms = v[(v.size() - 1) * 99 / 100] * 1e3;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int reps = static_cast<int>(flags.get("reps", 7));
  const int64_t batchq = flags.get("batchq", 2048);
  const int64_t batchn = flags.get("batchn", 512);
  const int clients = static_cast<int>(flags.get("clients", 4));
  const int64_t burst = flags.get("burst", batchq / clients);
  const int64_t mixn = flags.get("mixn", 4096);
  const int mixops = static_cast<int>(flags.get("mixops", 200));
  if (flags.has("threads")) {
    set_num_workers(static_cast<int>(flags.get("threads", 0)));
  }
  BenchJson json(flags.get_str("out", ""));
  const int host_hw = static_cast<int>(std::thread::hardware_concurrency());
  std::printf(
      "micro_serve: batch=%lldx%lld, clients=%d, burst=%lld, reps=%d, "
      "threads=%d, host_hw_threads=%d\n\n",
      static_cast<long long>(batchq), static_cast<long long>(batchn), clients,
      static_cast<long long>(burst), reps, num_workers(), host_hw);

  // ------------------------------------------------- coalesced throughput
  std::vector<int64_t> big_a(batchq * batchn), big_w(batchq * batchn);
  parallel_for(0, batchq * batchn, [&](int64_t i) {
    big_a[i] = static_cast<int64_t>(hash64(7, i) >> 1);
    big_w[i] = 1 + static_cast<int64_t>(uniform(9, i, 1000));
  });
  std::vector<Query> queries(batchq);
  for (int64_t q = 0; q < batchq; q++) {
    queries[q].a = std::span<const int64_t>(big_a).subspan(q * batchn, batchn);
    if (q % 2 == 1) {
      queries[q].w =
          std::span<const int64_t>(big_w).subspan(q * batchn, batchn);
    }
  }
  std::vector<QueryResult> direct_res(batchq), engine_res(batchq);

  Solver direct;
  direct.solve_many(queries, direct_res);  // warm the task contexts

  serve::EngineConfig ecfg;
  ecfg.queue_capacity = 2 * clients;
  ecfg.coalesce_max_queries = batchq;
  // Linger 1ms: the clients' bursts arrive within the window, so every
  // pass coalesces into ONE full solve_many batch instead of a ragged
  // split decided by wake-up order. Amortized ~260x by batch compute.
  ecfg.coalesce_linger_us = 1000;
  serve::Engine engine(ecfg);

  // Closed-loop passes run on persistent client threads, re-armed per pass
  // through a generation counter: each client owns a contiguous slice and
  // submits it `burst` queries per solve() call, so the timed window holds
  // queue + compute but never per-pass thread spawn. Latencies (per solve()
  // call, i.e. per burst) land in `lat` when provided.
  std::mutex pass_mu;
  std::condition_variable pass_cv, pass_done_cv;
  int pass_gen = 0, pass_done = 0;
  bool clients_quit = false;
  std::vector<std::vector<double>> client_lats(static_cast<size_t>(clients));
  std::vector<std::thread> client_threads;
  for (int c = 0; c < clients; c++) {
    client_threads.emplace_back([&, c] {
      const int64_t per = batchq / clients;
      const int64_t lo = c * per;
      const int64_t hi = c + 1 == clients ? batchq : lo + per;
      int seen = 0;
      for (;;) {
        {
          std::unique_lock<std::mutex> lk(pass_mu);
          pass_cv.wait(lk, [&] { return clients_quit || pass_gen != seen; });
          if (clients_quit) return;
          seen = pass_gen;
        }
        for (int64_t s = lo; s < hi; s += burst) {
          const int64_t m = std::min(burst, hi - s);
          Timer t;
          engine.solve(std::span<const Query>(queries).subspan(s, m),
                       std::span<QueryResult>(engine_res).subspan(s, m));
          client_lats[static_cast<size_t>(c)].push_back(t.elapsed());
        }
        {
          std::lock_guard<std::mutex> lk(pass_mu);
          pass_done++;
        }
        pass_done_cv.notify_one();
      }
    });
  }
  auto engine_pass = [&](std::vector<double>* lat) {
    for (auto& l : client_lats) l.clear();
    {
      std::lock_guard<std::mutex> lk(pass_mu);
      pass_gen++;
      pass_done = 0;
    }
    pass_cv.notify_all();
    {
      std::unique_lock<std::mutex> lk(pass_mu);
      pass_done_cv.wait(lk, [&] { return pass_done == clients; });
    }
    if (lat != nullptr) {
      for (auto& l : client_lats) lat->insert(lat->end(), l.begin(), l.end());
    }
  };
  engine_pass(nullptr);  // warm the ring, the leases, the batch solver

  std::vector<double> direct_ts, engine_ts, burst_lat;
  for (int r = 0; r < reps; r++) {
    Timer t;
    direct.solve_many(queries, direct_res);
    direct_ts.push_back(t.elapsed());
    t.reset();
    engine_pass(&burst_lat);
    engine_ts.push_back(t.elapsed());
  }
  {
    std::lock_guard<std::mutex> lk(pass_mu);
    clients_quit = true;
  }
  pass_cv.notify_all();
  for (auto& t : client_threads) t.join();
  const double direct_ms = median_of(direct_ts) * 1e3;
  const double engine_ms = median_of(engine_ts) * 1e3;
  const double direct_qps = 1e3 * static_cast<double>(batchq) / direct_ms;
  const double engine_qps = 1e3 * static_cast<double>(batchq) / engine_ms;
  // Queue tax: median of the PER-REP paired ratios engine/direct. Each rep
  // measures both variants back to back, so pairing cancels the host's
  // frequency drift that a median-vs-median comparison would re-absorb as
  // a few percent of phantom gap either way.
  std::vector<double> ratio(static_cast<size_t>(reps));
  for (int r = 0; r < reps; r++) {
    ratio[static_cast<size_t>(r)] =
        engine_ts[static_cast<size_t>(r)] / direct_ts[static_cast<size_t>(r)];
  }
  const double queue_tax = median_of(ratio);
  const Tail burst_tail = tail_of(burst_lat);
  auto est = engine.stats();
  std::printf("%-22s %12.3f ms/pass  %9.0f q/s\n", "solve_many direct",
              direct_ms, direct_qps);
  std::printf("%-22s %12.3f ms/pass  %9.0f q/s   burst p50 %.3f ms  p99 %.3f ms"
              "   (%lld batches, max %lld q)\n",
              "engine coalesced", engine_ms, engine_qps, burst_tail.p50_ms,
              burst_tail.p99_ms, static_cast<long long>(est.coalesced_batches),
              static_cast<long long>(est.coalesced_batch_max));
  {
    JsonRecord rec;
    rec.field("bench", "micro_serve")
        .field("op", "coalesced")
        .field("variant", "solve_many_direct")
        .field("n", batchq * batchn)
        .field("queries", batchq)
        .field("threads", num_workers())
        .field("median_ms", direct_ms)
        .field("queries_per_sec", direct_qps);
    json.add(rec);
  }
  {
    JsonRecord rec;
    rec.field("bench", "micro_serve")
        .field("op", "coalesced")
        .field("variant", "engine")
        .field("n", batchq * batchn)
        .field("queries", batchq)
        .field("clients", static_cast<int64_t>(clients))
        .field("burst", burst)
        .field("threads", num_workers())
        .field("median_ms", engine_ms)
        .field("queries_per_sec", engine_qps)
        .field("paired_ratio_vs_direct", queue_tax)
        .field("burst_p50_ms", burst_tail.p50_ms)
        .field("burst_p99_ms", burst_tail.p99_ms);
    json.add(rec);
  }
  bool results_ok = true;
  for (int64_t q = 0; q < batchq; q++) {
    results_ok = results_ok && engine_res[q].k == direct_res[q].k &&
                 engine_res[q].best == direct_res[q].best;
  }

  // ------------------------------------------------------------- op mix
  // Closed loop, one client: per-op latency of the serving verbs on a warm
  // tenant (p50/p99 across mixops timed ops each, after warm-up).
  serve::Engine mix_engine{serve::EngineConfig{}};
  const uint64_t kTenant = 1;
  std::vector<int64_t> mix_a(mixn), mix_w(mixn);
  parallel_for(0, mixn, [&](int64_t i) {
    mix_a[i] = static_cast<int64_t>(hash64(21, i) >> 1);
    mix_w[i] = 1 + static_cast<int64_t>(uniform(22, i, 1000));
  });
  Query warm_q;
  warm_q.a = mix_a;
  warm_q.w = mix_w;
  Query small_q;
  small_q.a = std::span<const int64_t>(mix_a).first(512);
  for (int i = 0; i < 64; i++) {  // warm-up: session + workspaces + ring
    (void)mix_engine.append(kTenant, mix_a[static_cast<size_t>(i)]);
  }
  (void)mix_engine.solve_warm(kTenant, warm_q);
  (void)mix_engine.solve_one(small_q);

  std::vector<double> lat_append, lat_warm, lat_small;
  for (int i = 0; i < mixops; i++) {
    const auto idx = static_cast<size_t>(64 + i % (mixn - 64));
    Timer t;
    (void)mix_engine.append(kTenant, mix_a[idx]);
    lat_append.push_back(t.elapsed());
    t.reset();
    (void)mix_engine.solve_warm(kTenant, warm_q);
    lat_warm.push_back(t.elapsed());
    t.reset();
    (void)mix_engine.solve_one(small_q);
    lat_small.push_back(t.elapsed());
  }
  struct MixRow {
    const char* op;
    int64_t n;
    Tail t;
  };
  const MixRow rows[] = {
      {"append", 1, tail_of(lat_append)},
      {"solve_warm", mixn, tail_of(lat_warm)},
      {"solve_small", 512, tail_of(lat_small)},
  };
  std::printf("\n%-22s %10s  %10s  %10s  (closed loop, %d ops each)\n", "op",
              "n", "p50(ms)", "p99(ms)", mixops);
  for (const MixRow& m : rows) {
    std::printf("%-22s %10lld  %10.4f  %10.4f\n", m.op,
                static_cast<long long>(m.n), m.t.p50_ms, m.t.p99_ms);
    JsonRecord rec;
    rec.field("bench", "micro_serve")
        .field("op", m.op)
        .field("variant", "op_mix")
        .field("n", m.n)
        .field("ops", static_cast<int64_t>(mixops))
        .field("threads", num_workers())
        .field("p50_ms", m.t.p50_ms)
        .field("p99_ms", m.t.p99_ms);
    json.add(rec);
  }
  const auto mix_stats = mix_engine.stats();

  // ------------------------------------------------------------- budget
  // Measure one warm tenant's real footprint, then size the budget to ~3
  // of them and stream 16 tenants through: residency must hold the line.
  const int64_t tn = 2048;
  std::vector<int64_t> ta(tn), tw(tn);
  parallel_for(0, tn, [&](int64_t i) {
    ta[i] = static_cast<int64_t>(hash64(31, i) >> 1);
    tw[i] = 1 + static_cast<int64_t>(uniform(32, i, 1000));
  });
  uint64_t one_tenant = 0;
  {
    serve::SessionTable::Config probe;
    serve::SessionTable t(probe);
    {
      auto lease = t.acquire(1);
      WlisResult out;
      lease.solver().solve_wlis(ta, tw, out);
      for (int64_t i = 0; i < 256; i++) {
        (void)lease.session().append(ta[static_cast<size_t>(i)]);
      }
    }
    one_tenant = t.resident_bytes();
  }
  serve::EngineConfig bcfg;
  // ~2.5 warm tenants: headroom keeps the hot tenant on the full plan
  // (the admission estimate runs ahead of the measured bytes), while two
  // grown tenants already exceed the budget — guaranteed churn.
  bcfg.table.memory_budget_bytes = 5 * one_tenant / 2;
  serve::Engine budgeted(bcfg);
  const int kTenants = 16;
  uint64_t max_resident = 0;
  int rejected = 0;
  for (int s = 1; s <= kTenants; s++) {
    try {
      for (int64_t i = 0; i < 256; i++) {
        (void)budgeted.append(static_cast<uint64_t>(s),
                              ta[static_cast<size_t>(i)]);
      }
      Query q;
      q.a = ta;
      q.w = tw;
      (void)budgeted.solve_warm(static_cast<uint64_t>(s), q);
    } catch (const Error&) {
      rejected++;  // a budget tighter than one tenant: legal
    }
    // Settled (unpinned) residency is the governed figure; growth parked by
    // a release is reclaimed here, exactly like a maintenance tick.
    budgeted.table().enforce_budget();
    max_resident = std::max(max_resident, budgeted.table().resident_bytes());
  }
  const auto bst = budgeted.stats();
  const bool budget_ok = max_resident <= bcfg.table.memory_budget_bytes;
  std::printf(
      "\nbudget: %llu bytes for %d tenants of ~%llu; max settled resident "
      "%llu (%s), %lld evictions, %d rejections\n",
      static_cast<unsigned long long>(bcfg.table.memory_budget_bytes),
      kTenants, static_cast<unsigned long long>(one_tenant),
      static_cast<unsigned long long>(max_resident),
      budget_ok ? "within budget" : "OVER BUDGET",
      static_cast<long long>(bst.evictions), rejected);
  {
    JsonRecord rec;
    rec.field("bench", "micro_serve")
        .field("op", "budget")
        .field("variant", "bounded")
        .field("n", tn)
        .field("tenants_offered", static_cast<int64_t>(kTenants))
        .field("threads", num_workers())
        .field("budget_bytes", static_cast<int64_t>(
                                   bcfg.table.memory_budget_bytes))
        .field("warm_tenant_bytes", static_cast<int64_t>(one_tenant))
        .field("max_resident_bytes", static_cast<int64_t>(max_resident))
        .field("evictions", bst.evictions)
        .field("admissions", bst.admissions);
    json.add(rec);
  }

  // On a 1-hw-thread host a queue in front of an in-process call can only
  // tie the direct call, and the tie sits inside the host's run-to-run
  // noise; the gate therefore bounds the paired queue tax instead of
  // comparing two independently-noisy medians (EXPERIMENTS.md).
  const double kQueueTaxBound = 1.02;
  const bool throughput_ok = queue_tax <= kQueueTaxBound;
  std::printf("\ncross-check (engine and direct agree): %s\n",
              results_ok ? "OK" : "MISMATCH");
  std::printf("value-cache hits on warm tenant: %lld/%lld\n",
              static_cast<long long>(mix_stats.value_cache_hits),
              static_cast<long long>(mix_stats.value_cache_hits +
                                     mix_stats.value_cache_misses));
  std::printf("acceptance (paired queue tax <= %.2f): %s (ratio %.4f; "
              "%.0f vs %.0f q/s)%s\n",
              kQueueTaxBound, throughput_ok ? "PASS" : "FAIL", queue_tax,
              engine_qps, direct_qps,
              flags.has("strict") ? "" : " (advisory; --strict gates exit)");
  std::printf("acceptance (resident <= budget): %s%s\n",
              budget_ok ? "PASS" : "FAIL",
              flags.has("strict") ? "" : " (advisory; --strict gates exit)");
  if (!results_ok) return 1;
  if (flags.has("strict") && !(throughput_ok && budget_ok)) return 2;
  return 0;
}
