// Batch workloads: warm Solver::solve_lis (lis_bulk, lis_deep) and warm
// Solver::solve_wlis with the range tree (wlis_bulk), closed loop on the
// calling thread.
//
// The untraced run times the public entry point only. The traced run adds,
// on the same inputs, timed calls into each layer's public functions
// (rank_space_into, the TournamentTree constructor and its rounds,
// lis_frontiers_into, wlis_compressed_into), scheduler counter deltas, an
// empty parallel_for, the one-thread baseline and the SIMD-off solve.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "parlis/api/solver.hpp"
#include "parlis/lis/lis.hpp"
#include "parlis/lis/seq_lis.hpp"
#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/parallel/scheduler.hpp"
#include "parlis/util/generators.hpp"
#include "parlis/util/rank_space.hpp"
#include "parlis/util/simd.hpp"
#include "parlis/wlis/seq_avl.hpp"
#include "parlis/wlis/wlis.hpp"
#include "parlis/wlis/wlis_workspace.hpp"

namespace perfbench {
namespace {

using namespace parlis;

struct Shape {
  int64_t n;
  int64_t target_k;
  bool weighted;
  // Distinct value arrays cycled through; consecutive weighted solves then
  // never share values, so every one takes the value-cache miss path.
  int pool;
};

struct Input {
  std::vector<int64_t> a, w;
  // Oracle answers (computed outside every timed region).
  int32_t k = 0;
  std::vector<int32_t> ranks;  // seq_bs_ranks
  std::vector<int64_t> dp;     // seq_avl_wlis
  int64_t best = 0;
};

struct State {
  std::vector<Input> inputs;
  std::unique_ptr<Solver> solver;
  LisResult lis_out;
  WlisResult wlis_out;
};

// Solves needed for a p90 with ten samples beyond it.
constexpr int64_t kMinSolves = 100;

void setup(const Shape& sh, uint64_t seed, State& st) {
  for (int j = 0; j < sh.pool; j++) {
    Input in;
    const uint64_t s = hash64(seed, static_cast<uint64_t>(j));
    in.a = line_pattern(sh.n, sh.target_k, s);
    if (sh.weighted) in.w = uniform_weights(sh.n, s);
    st.inputs.push_back(std::move(in));
  }
  st.solver = std::make_unique<Solver>(Options{});
  if (sh.weighted) {
    st.solver->solve_wlis(st.inputs[0].a, st.inputs[0].w, st.wlis_out);
  } else {
    st.solver->solve_lis(st.inputs[0].a, st.lis_out);
  }
}

void compute_oracles(const Shape& sh, State& st) {
  for (Input& in : st.inputs) {
    in.ranks = seq_bs_ranks(in.a);
    in.k = in.ranks.empty()
               ? 0
               : *std::max_element(in.ranks.begin(), in.ranks.end());
    if (sh.weighted) {
      in.dp = seq_avl_wlis(in.a, in.w);
      in.best = *std::max_element(in.dp.begin(), in.dp.end());
      in.ranks.clear();  // only k is checked on the weighted path
    }
  }
}

class Bench {
 public:
  Bench(const Shape& sh, const Config& cfg, Tracer& tracer)
      : sh_(sh), cfg_(cfg), tracer_(tracer) {}

  Result run() {
    std::vector<double> setup_s;
    for (int r = 0; r < kSetupReps; r++) {
      st_ = State{};  // the previous set-up's teardown is not timed
      const auto t0 = Clock::now();
      setup(sh_, cfg_.seed, st_);
      setup_s.push_back(seconds_since(t0));
    }
    compute_oracles(sh_, st_);
    const Input& in0 = st_.inputs[0];
    res_.realized_k = in0.k;
    {
      const std::vector<int32_t> r0 =
          sh_.weighted ? seq_bs_ranks(in0.a) : in0.ranks;
      res_.frontier_p50 = median(frontier_sizes(r0, in0.k));
    }
    res_.add("setup_s", median(setup_s), "s", kSetupReps);
    loop_for(kBurnInS, 0, [&] { solve(nullptr); });
    if (cfg_.trace) {
      traced();
    } else {
      std::vector<double> ms;
      loop_for(cfg_.seconds, kMinSolves, [&] { ms.push_back(solve(nullptr)); });
      end_to_end(ms);
    }
    res_.add("rss_peak_mb", rss_peak_mib(), "MiB");
    return res_;
  }

 private:
  // One warm solve through the public API, checked against the oracle
  // outside the timed region. Returns the solve's wall time in ms.
  double solve(SpanLog* log) {
    const int64_t id = next_id_++;
    const Input& in = st_.inputs[static_cast<size_t>(id + 1) % st_.inputs.size()];
    res_.attempted++;
    if (sh_.weighted) {
      const double ms = time_ms([&] {
        ScopedSpan s(log, "api.solve_wlis", id);
        st_.solver->solve_wlis(in.a, in.w, st_.wlis_out);
      });
      if (cfg_.corrupt && id == 0) st_.wlis_out.dp[in.dp.size() / 2] ^= 1;
      res_.check(st_.wlis_out.k == in.k && st_.wlis_out.best == in.best &&
                     st_.wlis_out.dp == in.dp,
                 "solve_wlis #" + std::to_string(id) + " differs from seq_avl_wlis");
      return ms;
    }
    const double ms = time_ms([&] {
      ScopedSpan s(log, "api.solve_lis", id);
      st_.solver->solve_lis(in.a, st_.lis_out);
    });
    if (cfg_.corrupt && id == 0) st_.lis_out.rank[in.ranks.size() / 2] ^= 1;
    res_.check(st_.lis_out.k == in.k && st_.lis_out.rank == in.ranks,
               "solve_lis #" + std::to_string(id) + " differs from seq_bs_ranks");
    return ms;
  }

  void end_to_end(const std::vector<double>& ms) {
    double total_s = 0;
    for (double m : ms) total_s += m / 1e3;
    const double solves = static_cast<double>(ms.size());
    res_.add_pcts("solve_ms", ms, "ms", 90);
    res_.add("melem_per_s", static_cast<double>(sh_.n) * solves / total_s / 1e6,
             "Melem/s", static_cast<int64_t>(ms.size()));
    res_.add("ops_per_s", solves / total_s, "1/s",
             static_cast<int64_t>(ms.size()));
    res_.add("resident_mb",
             static_cast<double>(st_.solver->resident_bytes()) / kMiB, "MiB");
  }

  void traced() {
    SpanLog* log = tracer_.new_log(size_t{1} << 19);
    const double S = cfg_.seconds;

    // Phase A: untraced and traced solves alternate (the trace overhead and
    // the traced report's end-to-end figures), scheduler deltas over the
    // untraced ones, and an empty parallel_for between solves.
    std::vector<double> base_ms, traced_ms, fj_us;
    uint64_t spawns = 0, steals = 0;
    loop_for(0.35 * S, 20, [&] {
      const SchedulerStats s0 = scheduler_stats();
      base_ms.push_back(solve(nullptr));
      const SchedulerStats s1 = scheduler_stats();
      spawns += s1.spawns - s0.spawns;
      steals += s1.steals - s0.steals;
      traced_ms.push_back(solve(log));
      for (int j = 0; j < 8; j++) {
        fj_us.push_back(1e3 * time_ms([] {
          parallel_for(0, 2 * static_cast<int64_t>(num_workers()),
                       [](int64_t) {}, 1);
        }));
      }
    });
    end_to_end(base_ms);
    const double solve_p50 = median(base_ms);

    // Phase B: each repetition solves one input through the public API,
    // then runs the same input through each layer's public functions.
    std::vector<double> api_ms, build_ms, rounds_ms, rs_ms, fr_ms, total_ms,
        rangestruct_ms, api_sum_ms;
    WlisWorkspace ws;
    LisFrontiers fr;
    TournamentStorage<int64_t> fr_storage;
    WlisResult wout;
    // Odd repetitions time every round (lis.round_us); even ones time the
    // rounds as a whole, for the layer sums.
    int64_t rep = 0;
    loop_for(0.35 * S, 6, [&] {
      const bool per_round = rep++ % 2 == 1;
      const int64_t id = next_id_;
      api_ms.push_back(solve(nullptr));
      const Input& in =
          st_.inputs[static_cast<size_t>(id + 1) % st_.inputs.size()];
      ScopedSpan root(log, "layers", id);
      res_.attempted++;
      if (!sh_.weighted) {
        const auto [b, r] = lis_.run(in.a, log, id, per_round);
        if (!per_round) {
          build_ms.push_back(b);
          rounds_ms.push_back(r);
          api_sum_ms.push_back(b + r);
        }
        res_.check(lis_.rank == in.ranks,
                   "TournamentTree rounds differ from seq_bs_ranks");
        return;
      }
      rs_ms.push_back(time_ms([&] {
        ScopedSpan s(log, "rank_space", id);
        rank_space_into<int64_t>(in.a, TiesPolicy::kStrict, ws.rank_space,
                                 ws.rank_scratch);
      }));
      const std::span<const int64_t> ranks(ws.rank_space.rank);
      const auto [b, r] = lis_.run(ranks, log, id, per_round);
      if (!per_round) {
        build_ms.push_back(b);
        rounds_ms.push_back(r);
      }
      fr_ms.push_back(time_ms([&] {
        ScopedSpan s(log, "wlis.frontiers", id);
        lis_frontiers_into<int64_t>(ranks, fr, fr_storage);
      }));
      total_ms.push_back(time_ms([&] {
        ScopedSpan s(log, "wlis.total", id);
        wlis_compressed_into(ranks, in.w, ws, wout);
      }));
      rangestruct_ms.push_back(total_ms.back() - fr_ms.back());
      api_sum_ms.push_back(rs_ms.back() + total_ms.back());
      res_.check(wout.best == in.best && wout.dp == in.dp && fr.k == in.k,
                 "wlis_compressed_into differs from seq_avl_wlis");
    });

    // Phase C: the one-thread baseline, paired with pool solves.
    std::vector<double> seq_ms, par_ms;
    loop_for(0.2 * S, 3, [&] {
      set_sequential_mode(true);
      seq_ms.push_back(solve(nullptr));
      set_sequential_mode(false);
      par_ms.push_back(solve(nullptr));
    });

    // Phase D: SIMD kernels off vs on, paired.
    std::vector<double> off_ms, on_ms;
    loop_for(0.1 * S, 3, [&] {
      simd::set_enabled(false);
      off_ms.push_back(solve(nullptr));
      simd::set_enabled(true);
      on_ms.push_back(solve(nullptr));
    });

    const double solves = static_cast<double>(base_ms.size());
    const int64_t nb = static_cast<int64_t>(build_ms.size());
    res_.add("api.overhead_ms", residual(median(api_ms), {median(api_sum_ms)}),
             "ms", nb);
    res_.add("rank_space.ms", median(rs_ms), "ms",
             static_cast<int64_t>(rs_ms.size()));
    res_.add("lis.build_ms", median(build_ms), "ms", nb);
    res_.add("lis.rounds_ms", median(rounds_ms), "ms", nb);
    res_.add_pcts("lis.round_us", lis_.round_us, "us", 99);
    res_.add("lis.rounds", lis_.rounds, "count");
    res_.add("lis.frontier.p50", res_.frontier_p50, "count");
    res_.add("lis.nodes_visited", lis_.nodes_visited, "count");
    res_.add("parallel.spawns_per_solve", static_cast<double>(spawns) / solves,
             "count", static_cast<int64_t>(solves));
    res_.add("parallel.steals_per_solve", static_cast<double>(steals) / solves,
             "count", static_cast<int64_t>(solves));
    res_.add_ratio("parallel.spawns_per_round",
                   Ratio{static_cast<double>(spawns), solves * lis_.rounds},
                   "count");
    res_.add("parallel.forkjoin_us", median(fj_us), "us",
             static_cast<int64_t>(fj_us.size()));
    res_.add("parallel.seq_ms.p50", median(seq_ms), "ms",
             static_cast<int64_t>(seq_ms.size()));
    res_.add_ratio("parallel.self_speedup",
                   Ratio{median(seq_ms), median(par_ms)});
    if (sh_.weighted) {
      res_.add("wlis.frontiers_ms", median(fr_ms), "ms", nb);
      res_.add("wlis.total_ms", median(total_ms), "ms", nb);
      res_.add("wlis.rangestruct_ms", median(rangestruct_ms), "ms", nb);
      res_.add_ratio("serve.value_cache_hit_ratio", Ratio{0, solves});
    }
    res_.add_ratio("simd.off_ratio", Ratio{median(off_ms), median(on_ms)});
    res_.add("trace.overhead_pct",
             overhead_pct(median(traced_ms), solve_p50), "%",
             static_cast<int64_t>(traced_ms.size()));
  }

  const Shape sh_;
  const Config& cfg_;
  Tracer& tracer_;
  State st_;
  Result res_;
  int64_t next_id_ = 0;
  LisLayers lis_;
};

}  // namespace

// n = 4*10^6, target k = 100 (realized ~59): few rounds, ~10^5-element
// frontiers; tournament build, bulk extraction and parallel_for dominate.
Result run_lis_bulk(const Config& cfg, Tracer& tracer) {
  return Bench(Shape{4'000'000, 100, false, 1}, cfg, tracer).run();
}

// n = 2^18, target k = 2.5*10^4: ~10-element frontiers, so per-round
// fork/join/wake is nearly all the time.
Result run_lis_deep(const Config& cfg, Tracer& tracer) {
  return Bench(Shape{int64_t{1} << 18, 25'000, false, 1}, cfg, tracer).run();
}

// n = 2^18, target k = 100, uniform weights, fresh values every solve:
// rank space, frontiers, range-tree build, queries and updates.
Result run_wlis_bulk(const Config& cfg, Tracer& tracer) {
  return Bench(Shape{int64_t{1} << 18, 100, true, 4}, cfg, tracer).run();
}

}  // namespace perfbench
