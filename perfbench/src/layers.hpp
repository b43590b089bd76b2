// The LIS layer timed through its public pieces, as lis_ranks_into runs
// them: the TournamentTree constructor on warm storage, then one
// extract_frontier per round.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common.hpp"
#include "parlis/lis/tournament_tree.hpp"

namespace perfbench {

// Frontier sizes of one solve: the number of elements of each rank 1..k.
inline std::vector<double> frontier_sizes(const std::vector<int32_t>& ranks,
                                          int32_t k) {
  std::vector<double> sizes(static_cast<size_t>(k), 0.0);
  for (int32_t r : ranks) sizes[static_cast<size_t>(r - 1)] += 1;
  return sizes;
}

struct LisLayers {
  parlis::TournamentStorage<int64_t> storage;  // warm across calls
  std::vector<int32_t> rank;                   // ranks of the last call
  std::vector<double> round_us;                // every round of every call
  int32_t rounds = 0;                          // of the last call
  double nodes_visited = 0;                    // of the last call

  // Returns {build_ms, rounds_ms}. With `per_round`, each round is also
  // timed and spanned; that costs a few hundred ns a round, so sums meant
  // to match the API call come from calls without it.
  std::pair<double, double> run(std::span<const int64_t> x, SpanLog* log,
                                int64_t id, bool per_round) {
    using ms = std::chrono::duration<double, std::milli>;
    using us = std::chrono::duration<double, std::micro>;
    rank.assign(x.size(), 0);
    const int32_t sb = log ? log->open("lis.build", id) : -1;
    const auto t0 = Clock::now();
    parlis::TournamentTree<int64_t> tree(
        x, std::numeric_limits<int64_t>::max(), storage);
    const double build_ms = ms(Clock::now() - t0).count();
    if (log) log->close(sb);
    const int32_t sr = log ? log->open("lis.rounds", id) : -1;
    const auto t1 = Clock::now();
    int32_t r = 0;
    while (!tree.empty()) {
      ++r;
      if (!per_round) {
        tree.extract_frontier([&](int64_t i) { rank[i] = r; });
        continue;
      }
      const auto tr = Clock::now();
      {
        ScopedSpan s(log, "lis.round", id);
        tree.extract_frontier([&](int64_t i) { rank[i] = r; });
      }
      round_us.push_back(us(Clock::now() - tr).count());
    }
    const double rounds_ms = ms(Clock::now() - t1).count();
    if (log) log->close(sr);
    rounds = r;
    nodes_visited = static_cast<double>(tree.nodes_visited());
    return {build_ms, rounds_ms};
  }
};

}  // namespace perfbench
