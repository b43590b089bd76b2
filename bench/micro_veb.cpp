// vEB tree vs std::set microbenchmark.
//
// VebTree bottoms out in bit-packed word blocks (veb_words.hpp): every
// universe <= 4096 subtree is a flat summary-word + cluster-words block.
// This harness times the tree's point and batch operations against the
// ordered set most callers would otherwise reach for, std::set, running the
// same workload through both interleaved rep by rep so machine drift
// cancels, medians reported.
//
// Rows: {insert, succ, batch_insert} x {dense, sparse} x universes
// (default 2^12, 2^16, 2^20). Dense fills half the universe, sparse 1/64th.
// A memory section reports payload bytes per stored key for both (arena
// bytes for the tree, TrackingAllocator bytes for std::set), and the
// zero-leaf-allocation property at universe 4096 is checked directly.
//
// Flags: --universes 4096,65536,1048576, --reps N (default 5), --out FILE
// (BENCH_micro_veb.json records), --strict (exit 2 unless the zero-leaf-
// allocation check holds).
//
// Per-op medians are the signal here — every measured op is a sequential
// point op or a one-batch call, so the numbers are meaningful on any host,
// but they say nothing about multi-thread scaling.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/bench_json.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/util/arena.hpp"
#include "parlis/util/timer.hpp"
#include "parlis/util/tracking_allocator.hpp"
#include "parlis/veb/veb_tree.hpp"

using parlis::AllocStats;
using parlis::Arena;
using parlis::TrackingAllocator;
using parlis::VebTree;

namespace {

uint64_t g_sink = 0;  // defeats dead-code elimination of query loops

struct Workload {
  uint64_t universe;
  const char* density;
  std::vector<uint64_t> sorted;    // distinct keys, ascending
  std::vector<uint64_t> shuffled;  // same keys, hash order (insert stream)
  std::vector<uint64_t> probes;    // stored keys, hash order (succ stream)
};

Workload make_workload(uint64_t universe, bool dense, uint64_t seed) {
  Workload w;
  w.universe = universe;
  w.density = dense ? "dense" : "sparse";
  uint64_t target = dense ? universe / 2 : std::max<uint64_t>(universe / 64, 32);
  std::vector<uint64_t> draws(target * 2);
  for (uint64_t i = 0; i < draws.size(); i++) {
    draws[i] = parlis::uniform(seed, i, universe);
  }
  std::sort(draws.begin(), draws.end());
  draws.erase(std::unique(draws.begin(), draws.end()), draws.end());
  if (draws.size() > target) draws.resize(target);
  w.sorted = draws;
  w.shuffled = draws;
  std::sort(w.shuffled.begin(), w.shuffled.end(), [](uint64_t a, uint64_t b) {
    return parlis::hash64(a) < parlis::hash64(b);
  });
  // Successor probes are the stored keys themselves (hash order): the
  // canonical "walk the set via succ" workload. Uniform-random probes mostly
  // resolve at the tree root via the min/max shortcuts; probing at members
  // forces a full-depth descent.
  w.probes = w.shuffled;
  return w;
}

double median_ms(std::vector<double> seconds) {
  std::sort(seconds.begin(), seconds.end());
  return seconds[(seconds.size() - 1) / 2] * 1e3;
}

using Set = std::set<uint64_t>;

// Runs the tree and std::set forms interleaved (word, set, word, set, ...)
// and returns {word_median_ms, set_median_ms}.
template <typename WordFn, typename SetFn>
std::pair<double, double> interleaved(int reps, const WordFn& word,
                                      const SetFn& set) {
  std::vector<double> word_ts, set_ts;
  for (int r = 0; r < reps; r++) {
    {
      parlis::Timer t;
      word();
      word_ts.push_back(t.elapsed());
    }
    {
      parlis::Timer t;
      set();
      set_ts.push_back(t.elapsed());
    }
  }
  return {median_ms(word_ts), median_ms(set_ts)};
}

struct Row {
  const char* op;
  uint64_t universe;
  const char* density;
  int64_t n;
  int64_t ops;  // n * rounds: total ops timed per rep
  double word_ms;
  double set_ms;
  double speedup() const { return word_ms > 0 ? set_ms / word_ms : 0.0; }
  double per_op_ns(double ms) const { return ops > 0 ? ms * 1e6 / ops : 0.0; }
};

}  // namespace

int main(int argc, char** argv) {
  parlis::bench::Flags flags(argc, argv);
  int reps = static_cast<int>(flags.get("reps", 5));
  bool strict = flags.has("strict");
  std::string universes_arg = flags.get_str("universes", "4096,65536,1048576");
  parlis::bench::BenchJson json(flags.get_str("out", ""));

  std::vector<Row> rows;
  std::printf("%-13s %10s %-7s %9s | %11s %11s | %8s\n", "op", "universe",
              "density", "n", "word ms", "std::set ms", "speedup");

  uint64_t wseed = 90001;
  for (int u_int : parlis::bench::parse_int_list(universes_arg)) {
    uint64_t universe = static_cast<uint64_t>(u_int);
    for (bool dense : {true, false}) {
      Workload w = make_workload(universe, dense, wseed++);
      int64_t n = static_cast<int64_t>(w.sorted.size());
      // Loop the workload until each timed rep covers >= 2^17 ops, so
      // small-n rows measure kernels rather than timer + scheduler noise
      // (sub-ms reps showed +-20% run-to-run swings on the 1-core host).
      int64_t rounds = std::max<int64_t>(1, (int64_t{1} << 17) / n);
      int64_t ops = n * rounds;
      Arena pool;  // reused (reset) across rounds: no chunk churn in-timer

      // Point inserts, hash order (tree rebuilt every round).
      auto [ins_word, ins_set] = interleaved(
          reps,
          [&] {
            for (int64_t rd = 0; rd < rounds; rd++) {
              pool.reset();
              VebTree t(w.universe, &pool);
              for (uint64_t k : w.shuffled) t.insert(k);
              g_sink += *t.max();
            }
          },
          [&] {
            for (int64_t rd = 0; rd < rounds; rd++) {
              Set t;
              for (uint64_t k : w.shuffled) t.insert(k);
              g_sink += *t.rbegin();
            }
          });
      rows.push_back({"insert", universe, w.density, n, ops, ins_word, ins_set});

      // Successor queries over a pre-filled set.
      VebTree word_tree(w.universe);
      word_tree.batch_insert(w.sorted);
      const Set set_tree(w.sorted.begin(), w.sorted.end());
      auto [succ_word, succ_set] = interleaved(
          reps,
          [&] {
            uint64_t sink = 0;
            for (int64_t rd = 0; rd < rounds; rd++) {
              for (uint64_t p : w.probes) {
                auto s = word_tree.succ_gt(p);
                sink += s ? *s : 0;
              }
            }
            g_sink += sink;
          },
          [&] {
            uint64_t sink = 0;
            for (int64_t rd = 0; rd < rounds; rd++) {
              for (uint64_t p : w.probes) {
                auto it = set_tree.upper_bound(p);
                sink += it != set_tree.end() ? *it : 0;
              }
            }
            g_sink += sink;
          });
      rows.push_back({"succ", universe, w.density, n, ops, succ_word, succ_set});

      // One sorted batch into an empty set per round (Alg. 4 for the tree,
      // a hinted range insert for std::set).
      auto [bi_word, bi_set] = interleaved(
          reps,
          [&] {
            for (int64_t rd = 0; rd < rounds; rd++) {
              pool.reset();
              VebTree t(w.universe, &pool);
              t.batch_insert(w.sorted);
              g_sink += *t.max();
            }
          },
          [&] {
            for (int64_t rd = 0; rd < rounds; rd++) {
              Set t(w.sorted.begin(), w.sorted.end());
              g_sink += *t.rbegin();
            }
          });
      rows.push_back(
          {"batch_insert", universe, w.density, n, ops, bi_word, bi_set});

      for (size_t i = rows.size() - 3; i < rows.size(); i++) {
        const Row& r = rows[i];
        std::printf("%-13s %10" PRIu64 " %-7s %9" PRId64
                    " | %11.3f %11.3f | %7.2fx\n",
                    r.op, r.universe, r.density, r.n, r.word_ms, r.set_ms,
                    r.speedup());
      }

      // Memory: payload bytes per stored key after a batch fill.
      size_t word_bytes = 0;
      {
        Arena pool;
        VebTree t(w.universe, &pool);
        t.batch_insert(w.sorted);
        g_sink += *t.max();
        word_bytes = pool.bytes_allocated();
      }
      AllocStats set_stats;
      size_t set_bytes = 0;
      {
        std::set<uint64_t, std::less<uint64_t>, TrackingAllocator<uint64_t>>
            ref{TrackingAllocator<uint64_t>(&set_stats)};
        for (uint64_t k : w.sorted) ref.insert(k);
        set_bytes = static_cast<size_t>(set_stats.live_bytes.load());
      }
      std::printf("%-13s %10" PRIu64 " %-7s %9" PRId64
                  " | word %.1f B/key, std::set %.1f B/key\n",
                  "memory", universe, w.density, n,
                  static_cast<double>(word_bytes) / n,
                  static_cast<double>(set_bytes) / n);

      if (json.enabled()) {
        for (size_t i = rows.size() - 3; i < rows.size(); i++) {
          const Row& r = rows[i];
          for (bool word : {true, false}) {
            double ms = word ? r.word_ms : r.set_ms;
            parlis::bench::JsonRecord rec;
            rec.field("bench", "micro_veb")
                .field("op", r.op)
                .field("universe", r.universe)
                .field("density", r.density)
                .field("n", r.n)
                .field("variant", word ? "word" : "std_set")
                .field("median_ms", ms)
                .field("per_op_ns", r.per_op_ns(ms));
            if (word) rec.field("speedup_vs_std_set", r.speedup());
            json.add(rec);
          }
        }
        const size_t bytes[] = {word_bytes, set_bytes};
        const char* variants[] = {"word", "std_set"};
        for (int i = 0; i < 2; i++) {
          parlis::bench::JsonRecord rec;
          rec.field("bench", "micro_veb")
              .field("op", "memory")
              .field("universe", universe)
              .field("density", w.density)
              .field("n", n)
              .field("variant", variants[i])
              .field("bytes", static_cast<uint64_t>(bytes[i]))
              .field("bytes_per_key", static_cast<double>(bytes[i]) / n);
          json.add(rec);
        }
      }
    }
  }

  // Zero-leaf-allocation property: at universe 4096 the single words array
  // faulted in by the first insert is the only allocator traffic the whole
  // key churn ever causes.
  bool zero_alloc_ok;
  {
    Arena pool;
    VebTree t(4096, &pool);
    t.insert(1234);
    size_t after_first = pool.bytes_allocated();
    for (int i = 0; i < 4096; i++) t.insert(parlis::uniform(777, i, 4096));
    zero_alloc_ok = pool.bytes_allocated() == after_first;
  }
  std::printf("zero_leaf_allocations(universe=4096, word): %s\n",
              zero_alloc_ok ? "PASS" : "FAIL");

  if (json.enabled()) {
    parlis::bench::JsonRecord rec;
    rec.field("bench", "micro_veb")
        .field("op", "acceptance")
        .field("zero_leaf_allocations", zero_alloc_ok ? 1 : 0);
    json.add(rec);
  }
  json.write();
  if (g_sink == 42) std::printf("sink\n");  // keep g_sink observable
  return strict && !zero_alloc_ok ? 2 : 0;
}
