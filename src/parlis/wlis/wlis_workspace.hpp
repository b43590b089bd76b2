// Reusable scratch for the paper's weighted LIS rounds: every buffer and
// structure a solve needs, owned by the caller. Alg. 2 (wlis_into) and the
// SWGS WLIS baseline (swgs_wlis_into) draw on it; parlis::Solver does not
// (it keeps its own rank space and Fenwick scratch, api/solver.hpp).
//
// The workspace keeps no state between solves: every call derives the rank
// space (unless the caller supplied it), the frontiers and the range
// structure from its own input, so a call after a failed one behaves like a
// call on a fresh workspace. What it keeps is capacity: after a warm-up
// solve, repeated same-size solves through the same workspace perform zero
// heap allocations — the tournament storage, frontier buffers, rank-space
// arrays, round batches and the range tree's arena are all recycled.
//
// The vEB-backed structures (kRangeVeb / kRangeVebTabulated) are
// reconstructed per solve (their inner Mono-vEB staircases allocate during
// batch refinement by design), so only the kRangeTree backend — the
// practical default — has the allocation-free steady state.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "parlis/lis/lis.hpp"
#include "parlis/lis/tournament_tree.hpp"
#include "parlis/util/rank_space.hpp"
#include "parlis/wlis/range_structure.hpp"
#include "parlis/wlis/range_tree.hpp"
#include "parlis/wlis/range_veb.hpp"

namespace parlis {

struct WlisWorkspace {
  // Alg. 1 phase: tournament-tree storage + per-round frontiers.
  TournamentStorage<int64_t> tournament;
  LisFrontiers frontiers;

  // Rank-space view of the value sequence (util/rank_space.hpp): order is
  // the y_by_pos permutation the range structures build over, pos its
  // inverse (update positions), qpos the x-prefix of each point's
  // dominant-max query. Shared by Alg. 2 and the SWGS driver — one
  // compression pass per solve.
  RankSpace rank_space;
  RankSpaceScratch rank_scratch;

  // Round buffers: frontiers partition [0, n), so n-sized spans serve every
  // round without clearing.
  std::vector<ScoreUpdate> batch;
  std::vector<int64_t> qpos_buf, qres;

  // Range structures. The tree persists and is rebuilt in place; the vEB
  // variants are re-emplaced per solve.
  RangeTreeMax tree;
  std::optional<RangeVeb> veb;

  // SWGS: round-rank scratch for swgs_wlis_into (ranks are not part of the
  // weighted result but drive the rounds).
  std::vector<int32_t> swgs_rank;
};

}  // namespace parlis
