// Umbrella header: the full public API of the parlis library.
#pragma once

#include "parlis/api/options.hpp"           // Options (per-solver knobs)
#include "parlis/api/solver.hpp"            // Solver sessions + solve_many
#include "parlis/stream/lis_session.hpp"    // incremental / windowed LIS
#include "parlis/parallel/parallel.hpp"     // par_do, parallel_for
#include "parlis/parallel/primitives.hpp"   // reduce/scan/filter/merge/sort
#include "parlis/parallel/random.hpp"       // hash64, uniform
#include "parlis/parallel/scheduler.hpp"    // num_workers, scheduler_stats
#include "parlis/parallel/worker_counter.hpp"  // contention-free counters
#include "parlis/parallel/worker_slots.hpp"    // lazy per-worker slot arrays
#include "parlis/lis/lis.hpp"               // lis_ranks/lis_sequence (Alg. 1)
#include "parlis/lis/patience.hpp"          // patience kernel (Solver LIS plan)
#include "parlis/lis/seq_lis.hpp"           // Seq-BS baseline
#include "parlis/lis/tournament_tree.hpp"   // TournamentTree
#include "parlis/veb/veb_tree.hpp"          // parallel vEB tree (Thm. 1.3)
#include "parlis/veb/mono_veb.hpp"          // Mono-vEB staircase
#include "parlis/wlis/wlis.hpp"             // weighted LIS (Alg. 2)
#include "parlis/wlis/wlis_sweep.hpp"       // the Solver's WLIS pass
#include "parlis/wlis/range_tree.hpp"       // dominant-max, Sec. 4.1
#include "parlis/wlis/range_veb.hpp"        // dominant-max, Sec. 4.2
#include "parlis/wlis/wlis_workspace.hpp"   // injectable WLIS scratch
#include "parlis/wlis/seq_avl.hpp"          // Seq-AVL baseline
#include "parlis/swgs/swgs.hpp"             // SWGS baseline
#include "parlis/swgs/dominance_oracle.hpp" // SWGS probe structure
#include "parlis/util/arena.hpp"            // chunked bump arena
#include "parlis/util/cancel.hpp"           // CancelToken / CancelSource
#include "parlis/util/error.hpp"            // parlis::Error + ErrorCode
#include "parlis/util/failpoint.hpp"        // deterministic fault injection
#include "parlis/util/rank_space.hpp"       // TiesPolicy + rank compression
#include "parlis/util/simd.hpp"             // SIMD backend switch + toggle
#include "parlis/util/generators.hpp"       // paper input generators
#include "parlis/util/timer.hpp"
