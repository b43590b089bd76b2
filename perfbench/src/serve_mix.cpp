// serve_mix: three closed-loop clients on one serve::Engine. Each client
// owns its tenants, so every answer can be checked:
//   80% append to one of the client's streaming tenants (16 in all, split
//       across the clients; random-walk values, window kSlidingAmortized
//       with capacity 4096, so window rebuilds land in the tail),
//   19% solve_one of an unweighted n = 512 query (the coalescing path),
//    1% solve_warm on one of 2 hot weighted tenants, n = 4096, fresh weights
//       every call (the value-cache hit path).
// The table budget is far above the working set: nothing is evicted. Each
// append is replayed at once on the client's own LisSession for the tenant,
// which checks the answer and times the direct call.
//
// The traced run alternates traced and untraced slices of each client's
// schedule, then times the other direct calls each engine verb wraps
// (solve_many, the warm Solver::solve_wlis, wlis_into on cached values) on
// the idle engine.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "parlis/api/solver.hpp"
#include "parlis/lis/seq_lis.hpp"
#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/parallel/scheduler.hpp"
#include "parlis/serve/engine.hpp"
#include "parlis/stream/lis_session.hpp"
#include "parlis/util/generators.hpp"
#include "parlis/util/simd.hpp"
#include "parlis/wlis/seq_avl.hpp"
#include "parlis/wlis/wlis.hpp"
#include "parlis/wlis/wlis_workspace.hpp"

namespace perfbench {
namespace {

using namespace parlis;

constexpr int kClients = 3;
constexpr int kStreams = 16;   // streaming tenants, split across the clients
constexpr int kHot = 2;        // hot weighted tenants per client
constexpr int64_t kWindow = 4096;
constexpr int64_t kSmallN = 512;
constexpr int64_t kHotN = 4096;
constexpr int kSmallPool = 64;   // distinct small queries per client
constexpr int kWeightPool = 8;   // weight vectors a hot tenant cycles through
constexpr int64_t kTraceSlice = 256;  // ops per traced/untraced slice
constexpr uint64_t kTableBudget = uint64_t{1} << 30;

Options tenant_options() {
  Options o;
  o.window = WindowMode::kSlidingAmortized;
  o.window_capacity = kWindow;
  return o;
}

// Client c owns streaming tenants c, c + kClients, c + 2 * kClients, ...
uint64_t stream_series(int client, int j) {
  return 1000 + static_cast<uint64_t>(j * kClients + client);
}
uint64_t hot_series(int client, int h) {
  return static_cast<uint64_t>(client + 1) * 1000 + 100 +
         static_cast<uint64_t>(h);
}

struct Inputs {
  std::vector<std::vector<int64_t>> small;    // kSmallPool x kSmallN
  std::vector<std::vector<int64_t>> hot;      // kHot x kHotN
  std::vector<std::vector<int64_t>> weights;  // kWeightPool x kHotN
};

Inputs make_inputs(uint64_t seed, int client) {
  const uint64_t s = hash64(seed, static_cast<uint64_t>(client));
  Inputs in;
  for (int q = 0; q < kSmallPool; q++) {
    in.small.push_back(line_pattern(kSmallN, 40, hash64(s, 100 + q)));
  }
  for (int h = 0; h < kHot; h++) {
    in.hot.push_back(line_pattern(kHotN, 100, hash64(s, 200 + h)));
  }
  for (int w = 0; w < kWeightPool; w++) {
    in.weights.push_back(uniform_weights(kHotN, hash64(s, 300 + w)));
  }
  return in;
}

// Oracle answers, computed once outside every timed region.
struct Oracle {
  std::vector<int64_t> small_k;
  std::vector<int64_t> hot_k;
  std::vector<std::vector<std::vector<int64_t>>> hot_dp;  // [h][w]
  std::vector<std::vector<int64_t>> hot_best;             // [h][w]
};

Oracle make_oracle(const Inputs& in) {
  Oracle o;
  for (const auto& a : in.small) o.small_k.push_back(seq_bs_length(a));
  for (const auto& a : in.hot) {
    o.hot_k.push_back(seq_bs_length(a));
    o.hot_dp.emplace_back();
    o.hot_best.emplace_back();
    for (const auto& w : in.weights) {
      o.hot_dp.back().push_back(seq_avl_wlis(a, w));
      const auto& dp = o.hot_dp.back().back();
      o.hot_best.back().push_back(*std::max_element(dp.begin(), dp.end()));
    }
  }
  return o;
}

enum OpKind : uint8_t { kAppend, kSmall, kWarm };

// One operation of a client's closed loop: the engine call's latency and,
// for an append, the latency of the same append on the client's direct
// LisSession.
struct OpRec {
  float us = 0;
  float direct_ns = 0;
  OpKind kind = kAppend;
  bool traced = false;
};

// Capacity of each client's op record, per measured second. The records
// are allocated and written through before set-up, so the benchmark's own
// memory does not grow with throughput and rss_peak_mb tracks the engine.
// A client stops early if its record fills (about 4x today's rate).
constexpr double kMaxOpsPerClientPerS = 40'000;

struct Client {
  int id = 0;
  uint64_t seed = 0;
  Inputs in;
  const Oracle* oracle = nullptr;
  bool corrupt = false;

  uint64_t op = 0;  // next schedule index
  int64_t walk[kStreams] = {};
  int64_t warm_calls[kHot] = {};
  int64_t appends = 0;
  std::vector<int64_t> dp_buf = std::vector<int64_t>(kHotN);
  // Every append is checked against these, one per streaming tenant, with
  // the engine's window options.
  std::vector<std::unique_ptr<Solver>> direct_solvers;
  std::vector<std::unique_ptr<LisSession>> direct;

  std::span<OpRec> recs;
  size_t nrec = 0;
  double solve_rounds = 0;  // Σ k over the recorded solves

  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  // the first few

  void fail(const std::string& what) {
    failed++;
    if (failures.size() < 8) failures.push_back(what);
  }

  double warm(serve::Engine& eng, int h, SpanLog* log, int64_t rid) {
    const int w = static_cast<int>(warm_calls[h]++ % kWeightPool);
    const Query q{in.hot[h], in.weights[w], {}, dp_buf};
    const auto t0 = Clock::now();
    QueryResult r;
    {
      ScopedSpan s(log, "serve.solve_warm", rid);
      r = eng.solve_warm(hot_series(id, h), q);
    }
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    solve_rounds += static_cast<double>(r.k);
    if (r.k != oracle->hot_k[h] || r.best != oracle->hot_best[h][w] ||
        dp_buf != oracle->hot_dp[h][w]) {
      fail("solve_warm differs from seq_avl_wlis");
    }
    return us;
  }

  double append(serve::Engine& eng, int t, SpanLog* log, int64_t rid,
                float* direct_ns) {
    const auto t0 = Clock::now();
    int64_t len;
    {
      ScopedSpan s(log, "serve.append", rid);
      len = eng.append(stream_series(id, t), walk[t]);
    }
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    if (corrupt && appends == 10) len ^= 1;
    appends++;
    const auto t1 = Clock::now();
    const int64_t want = direct[t]->append(walk[t]);
    *direct_ns = static_cast<float>(
        std::chrono::duration<double, std::nano>(Clock::now() - t1).count());
    if (len != want) fail("append differs from the direct LisSession");
    return us;
  }

  double small(serve::Engine& eng, int qi, SpanLog* log, int64_t rid) {
    const Query q{in.small[qi]};
    const auto t0 = Clock::now();
    QueryResult r;
    {
      ScopedSpan s(log, "serve.solve_one", rid);
      r = eng.solve_one(q);
    }
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    solve_rounds += static_cast<double>(r.k);
    if (r.k != oracle->small_k[qi]) fail("solve_one differs from seq_bs_length");
    return us;
  }

  int streams() const { return (kStreams - id + kClients - 1) / kClients; }

  // Admits every tenant of the client: the first warm solve of each hot
  // tenant (the value-cache miss), one append per streaming tenant, and one
  // small solve.
  void warm_up(serve::Engine& eng) {
    const int64_t rid = request_id(0);
    float ns;
    for (int h = 0; h < kHot; h++) warm(eng, h, nullptr, rid);
    for (int t = 0; t < streams(); t++) append(eng, t, nullptr, rid, &ns);
    small(eng, 0, nullptr, rid);
  }

  bool full() const { return nrec == recs.size(); }
  void clear_records() {
    nrec = 0;
    solve_rounds = 0;
  }

  // One operation of the seeded schedule, recorded.
  void step(serve::Engine& eng, SpanLog* log, bool traced) {
    const uint64_t i = op++;
    const int64_t rid = request_id(i);
    attempted++;
    OpRec& r = recs[nrec++];
    r.traced = traced;
    const uint64_t kind = uniform(seed, 3 * i, 100);
    const uint64_t pick = 3 * i + 1;
    if (kind < 80) {
      const int t = static_cast<int>(uniform(seed, pick, streams()));
      walk[t] += static_cast<int64_t>(uniform(seed, 3 * i + 2, 1001)) - 500;
      r.kind = kAppend;
      r.us = static_cast<float>(append(eng, t, log, rid, &r.direct_ns));
    } else if (kind < 99) {
      const int qi = static_cast<int>(uniform(seed, pick, kSmallPool));
      r.kind = kSmall;
      r.us = static_cast<float>(small(eng, qi, log, rid));
    } else {
      r.kind = kWarm;
      r.us = static_cast<float>(
          warm(eng, static_cast<int>(uniform(seed, pick, kHot)), log, rid));
    }
  }

  // Request ids: client in the high bits, schedule index below.
  int64_t request_id(uint64_t i) const {
    return (static_cast<int64_t>(id + 1) << 40) | static_cast<int64_t>(i);
  }
};

// Runs fn(client) on one thread per client and joins them all; an exception
// inside a client is recorded as that client's failure.
template <typename F>
void on_clients(std::vector<Client>& clients, F&& fn) {
  std::vector<std::thread> threads;
  for (Client& c : clients) {
    threads.emplace_back([&c, &fn] {
      try {
        fn(c);
      } catch (const std::exception& e) {
        c.fail(std::string("client threw: ") + e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

std::unique_ptr<serve::Engine> make_engine() {
  serve::EngineConfig cfg;
  cfg.table.memory_budget_bytes = kTableBudget;
  cfg.table.solver = tenant_options();
  return std::make_unique<serve::Engine>(cfg);
}

// Input generation, engine construction, and each client's warm-up, run
// from this thread one client after another (the closed loops start after).
// `recs` holds each client's op record, allocated once before all set-ups.
void setup(const Config& cfg, const std::vector<Oracle>& oracles,
           std::vector<std::vector<OpRec>>& recs, std::vector<Client>& clients,
           std::unique_ptr<serve::Engine>& engine) {
  clients.resize(kClients);
  for (int c = 0; c < kClients; c++) {
    Client& cl = clients[c];
    cl.id = c;
    cl.seed = hash64(cfg.seed, 1000 + static_cast<uint64_t>(c));
    cl.in = make_inputs(cfg.seed, c);
    cl.oracle = &oracles[c];
    cl.corrupt = cfg.corrupt && c == 0;
    cl.recs = recs[c];
    for (int t = 0; t < cl.streams(); t++) {
      cl.direct_solvers.push_back(std::make_unique<Solver>(tenant_options()));
      cl.direct.push_back(std::make_unique<LisSession>(
          cl.direct_solvers.back()->make_session()));
    }
  }
  engine = make_engine();
  for (Client& c : clients) c.warm_up(*engine);
}

struct Samples {
  std::vector<double> append_us, direct_ns, small_us, warm_ms, solve_ms;
  double solve_elems = 0;
  int64_t ops = 0;
};

// The recorded ops of every client, traced or untraced ones.
Samples collect(const std::vector<Client>& clients, bool traced) {
  Samples s;
  for (const Client& c : clients) {
    for (size_t i = 0; i < c.nrec; i++) {
      const OpRec& r = c.recs[i];
      if (r.traced != traced) continue;
      s.ops++;
      const double us = r.us;
      if (r.kind == kAppend) {
        s.append_us.push_back(us);
        s.direct_ns.push_back(r.direct_ns);
        continue;
      }
      if (r.kind == kSmall) {
        s.small_us.push_back(us);
        s.solve_elems += kSmallN;
      } else {
        s.warm_ms.push_back(us / 1e3);
        s.solve_elems += kHotN;
      }
      s.solve_ms.push_back(us / 1e3);
    }
  }
  return s;
}

void add_end_to_end(Result& res, const Samples& s, double wall_s,
                    serve::Engine& eng) {
  double solve_s = 0;
  for (double m : s.solve_ms) solve_s += m / 1e3;
  res.add_pcts("solve_ms", s.solve_ms, "ms", 90);
  res.add("melem_per_s", s.solve_elems / solve_s / 1e6, "Melem/s",
          static_cast<int64_t>(s.solve_ms.size()));
  res.add("ops_per_s", static_cast<double>(s.ops) / wall_s, "1/s", s.ops);
  res.add("resident_mb",
          static_cast<double>(eng.table().resident_bytes()) / kMiB, "MiB");
  res.add_pcts("append_us", s.append_us, "us", 99);
  res.add_pcts("small_us", s.small_us, "us", 99);
  res.add_pcts("warm_ms", s.warm_ms, "ms", 99);
}

// Direct calls behind each engine verb, timed on the idle engine.
struct Direct {
  double small_us_p50 = 0;
  double many_us_per_query = 0;
  double warm_ms_p50 = 0;
  double hit_ms_p50 = 0;
  double seq_ms_p50 = 0, par_ms_p50 = 0;
  double simd_off_p50 = 0, simd_on_p50 = 0;
  double forkjoin_us = 0;
  int64_t samples = 0;
};

Direct time_direct(Client& c, double secs, SpanLog* log, Result& res) {
  Direct d;
  const Oracle& o = *c.oracle;
  const double slice = secs / 6;
  int64_t id = int64_t{9} << 40;

  // Small query: one-query solve_many (what a lone solve_one coalesces
  // into), and 16-query batches per query.
  Solver batch_solver(tenant_options());
  std::vector<double> one_us, many_us;
  std::vector<Query> qs;
  for (int i = 0; i < 16; i++) qs.push_back(Query{c.in.small[i]});
  std::vector<QueryResult> rs(16);
  int64_t qi = 0;
  loop_for(slice, 100, [&] {
    const int i = static_cast<int>(qi++ % kSmallPool);
    const Query q{c.in.small[i]};
    QueryResult r;
    one_us.push_back(1e3 * time_ms([&] {
      ScopedSpan s(log, "api.solve_many", id++);
      batch_solver.solve_many(std::span<const Query>(&q, 1),
                              std::span<QueryResult>(&r, 1));
    }));
    res.attempted++;
    res.check(r.k == o.small_k[i], "direct solve_many differs from seq_bs_length");
    many_us.push_back(1e3 * time_ms([&] {
      ScopedSpan s(log, "api.solve_many", id++);
      batch_solver.solve_many(qs, rs);
    }) / 16.0);
  });
  d.small_us_p50 = median(one_us);
  d.many_us_per_query = median(many_us);

  // Warm weighted solve on cached values: through the Solver, then straight
  // into wlis_into on a workspace.
  Solver warm_solver(tenant_options());
  WlisResult out;
  WlisWorkspace ws;
  int64_t wi = 0;
  auto warm_call = [&](bool direct_ws) {
    const int w = static_cast<int>(wi++ % kWeightPool);
    const double ms = time_ms([&] {
      ScopedSpan s(log, direct_ws ? "wlis.hit" : "api.solve_wlis", id++);
      if (direct_ws) {
        wlis_into(c.in.hot[0], c.in.weights[w], ws, out);
      } else {
        warm_solver.solve_wlis(c.in.hot[0], c.in.weights[w], out);
      }
    });
    res.attempted++;
    res.check(out.dp == o.hot_dp[0][w], "direct warm solve differs from seq_avl_wlis");
    return ms;
  };
  warm_call(false);  // first solve of each side is the value-cache miss
  warm_call(true);
  std::vector<double> warm_ms, hit_ms, seq_ms, par_ms, off_ms, on_ms;
  loop_for(slice, 100, [&] {
    warm_ms.push_back(warm_call(false));
    hit_ms.push_back(warm_call(true));
  });
  d.warm_ms_p50 = median(warm_ms);
  d.hit_ms_p50 = median(hit_ms);
  loop_for(slice, 20, [&] {
    set_sequential_mode(true);
    seq_ms.push_back(warm_call(false));
    set_sequential_mode(false);
    par_ms.push_back(warm_call(false));
  });
  d.seq_ms_p50 = median(seq_ms);
  d.par_ms_p50 = median(par_ms);
  loop_for(slice, 20, [&] {
    simd::set_enabled(false);
    off_ms.push_back(warm_call(false));
    simd::set_enabled(true);
    on_ms.push_back(warm_call(false));
  });
  d.simd_off_p50 = median(off_ms);
  d.simd_on_p50 = median(on_ms);

  std::vector<double> fj_us;
  loop_for(slice / 4, 100, [&] {
    fj_us.push_back(1e3 * time_ms([] {
      parallel_for(0, 2 * static_cast<int64_t>(num_workers()),
                   [](int64_t) {}, 1);
    }));
  });
  d.forkjoin_us = median(fj_us);
  d.samples = static_cast<int64_t>(warm_ms.size());
  return d;
}

}  // namespace

Result run_serve_mix(const Config& cfg, Tracer& tracer) {
  Result res;
  std::vector<Oracle> oracles;
  for (int c = 0; c < kClients; c++) {
    oracles.push_back(make_oracle(make_inputs(cfg.seed, c)));
  }
  // Closed loop: every client runs its schedule until the deadline. In the
  // traced run each client alternates untraced and traced slices.
  const double run_s = cfg.trace ? 0.6 * cfg.seconds : cfg.seconds;
  const size_t cap = static_cast<size_t>(
      std::ceil(kMaxOpsPerClientPerS * std::max(run_s, kBurnInS)));
  std::vector<std::vector<OpRec>> recs(kClients, std::vector<OpRec>(cap));
  std::vector<Client> clients;
  std::unique_ptr<serve::Engine> engine;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; r++) {
    engine.reset();  // the previous set-up's teardown is not timed
    clients.clear();
    const auto t0 = Clock::now();
    setup(cfg, oracles, recs, clients, engine);
    setup_s.push_back(seconds_since(t0));
  }
  res.add("setup_s", median(setup_s), "s", kSetupReps);
  serve::Engine& eng = *engine;
  const auto burn_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(kBurnInS));
  on_clients(clients, [&](Client& c) {
    while (Clock::now() < burn_end && !c.full()) c.step(eng, nullptr, false);
    c.clear_records();
  });

  std::vector<SpanLog*> logs(kClients, nullptr);
  for (int c = 0; c < kClients; c++) logs[c] = tracer.new_log(size_t{1} << 18);
  const SchedulerStats s0 = scheduler_stats();
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(run_s));
  on_clients(clients, [&](Client& c) {
    while (Clock::now() < deadline && !c.full()) {
      const bool on = cfg.trace && (c.op / kTraceSlice) % 2 == 1;
      c.step(eng, on ? logs[c.id] : nullptr, on);
    }
  });
  const double wall_s = seconds_since(t0);
  const SchedulerStats s1 = scheduler_stats();
  // Read before the samples are gathered, whose copies grow with throughput.
  res.add("rss_peak_mb", rss_peak_mib(), "MiB");
  const Samples base = collect(clients, false);
  const Samples tr = collect(clients, true);
  // ops_per_s counts the untraced ops against their share of the wall time.
  add_end_to_end(res, base,
                 wall_s * static_cast<double>(base.ops) /
                     static_cast<double>(base.ops + tr.ops),
                 eng);

  const serve::Stats st = eng.stats();
  for (Client& c : clients) res.attempted += c.attempted;
  res.check(st.evictions == 0, "the table evicted a tenant");

  if (cfg.trace) {
    SpanLog* main_log = tracer.new_log(size_t{1} << 18);
    std::vector<double> append_ns = base.direct_ns;
    append_ns.insert(append_ns.end(), tr.direct_ns.begin(), tr.direct_ns.end());
    int64_t rebuilds = 0;
    for (const Client& c : clients) {
      for (const auto& s : c.direct) rebuilds += s->stats().window_rebuilds;
    }
    const Direct d = time_direct(clients[0], 0.3 * cfg.seconds, main_log, res);

    // The LIS layer on the small query shape, solved sequentially in place
    // as solve_many's packed tasks do.
    LisLayers lis;
    std::vector<double> build_ms, rounds_ms;
    const bool prev = set_thread_sequential(true);
    int64_t rep = 0;
    loop_for(0.02 * cfg.seconds, 200, [&] {
      const bool per_round = rep % 2 == 1;
      const int64_t i = rep++ % kSmallPool;
      const auto [b, r] = lis.run(clients[0].in.small[i], main_log,
                                  (int64_t{8} << 40) | i, per_round);
      if (!per_round) {
        build_ms.push_back(b);
        rounds_ms.push_back(r);
      }
      res.attempted++;
      res.check(lis.rounds == clients[0].oracle->small_k[i],
                "TournamentTree rounds differ from seq_bs_length");
    });
    set_thread_sequential(prev);

    const double solves = static_cast<double>(base.solve_ms.size() +
                                              tr.solve_ms.size());
    double rounds = 0;
    for (const Client& c : clients) rounds += c.solve_rounds;
    const double spawns = static_cast<double>(s1.spawns - s0.spawns);
    const double steals = static_cast<double>(s1.steals - s0.steals);
    res.add("api.overhead_ms", residual(d.warm_ms_p50, {d.hit_ms_p50}), "ms",
            d.samples);
    res.add("api.solve_many_us_per_query", d.many_us_per_query, "us");
    res.add("lis.build_ms", median(build_ms), "ms",
            static_cast<int64_t>(build_ms.size()));
    res.add("lis.rounds_ms", median(rounds_ms), "ms",
            static_cast<int64_t>(rounds_ms.size()));
    res.add_pcts("lis.round_us", lis.round_us, "us", 99);
    res.add("lis.rounds", lis.rounds, "count");
    res.add("lis.frontier.p50", median(frontier_sizes(lis.rank, lis.rounds)),
            "count");
    res.add("lis.nodes_visited", lis.nodes_visited, "count");
    res.add("parallel.spawns_per_solve", spawns / solves, "count",
            static_cast<int64_t>(solves));
    res.add("parallel.steals_per_solve", steals / solves, "count",
            static_cast<int64_t>(solves));
    res.add_ratio("parallel.spawns_per_round",
                  Ratio{spawns, rounds}, "count");
    res.add("parallel.forkjoin_us", d.forkjoin_us, "us");
    res.add("parallel.seq_ms.p50", d.seq_ms_p50, "ms");
    res.add_ratio("parallel.self_speedup", Ratio{d.seq_ms_p50, d.par_ms_p50});
    res.add("wlis.hit_ms", d.hit_ms_p50, "ms", d.samples);
    res.add_pcts("stream.append_ns", append_ns, "ns", 99);
    res.add("stream.window_rebuilds", static_cast<double>(rebuilds), "count");
    res.add("serve.append_tax_us",
            percentile(base.append_us, 50) - percentile(append_ns, 50) / 1e3,
            "us");
    res.add("serve.small_tax_us",
            percentile(base.small_us, 50) - d.small_us_p50, "us");
    res.add("serve.warm_tax_us",
            (percentile(base.warm_ms, 50) - d.warm_ms_p50) * 1e3, "us");
    res.add_ratio("serve.batch_mean",
                  Ratio{static_cast<double>(st.coalesced_queries),
                        static_cast<double>(st.coalesced_batches)},
                  "count");
    res.add("serve.queue_depth_hwm", static_cast<double>(st.queue_depth_hwm),
            "count");
    res.add_ratio("serve.value_cache_hit_ratio",
                  Ratio{static_cast<double>(st.value_cache_hits),
                        static_cast<double>(st.value_cache_hits +
                                            st.value_cache_misses)});
    res.add("serve.evictions", static_cast<double>(st.evictions), "count");
    res.add_ratio("simd.off_ratio", Ratio{d.simd_off_p50, d.simd_on_p50});
    res.add("trace.overhead_pct",
            overhead_pct(percentile(tr.solve_ms, 50),
                         percentile(base.solve_ms, 50)),
            "%", static_cast<int64_t>(tr.solve_ms.size()));
  }
  for (Client& c : clients) {
    res.failed += c.failed;
    for (const std::string& f : c.failures) {
      if (res.errors.size() < 8) res.errors.push_back(f);
    }
  }
  return res;
}

}  // namespace perfbench
