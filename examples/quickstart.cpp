// Quickstart: the one-page tour of the public API — a parlis::Solver
// session computing LIS ranks, reconstructing an actual LIS, weighted LIS,
// batched serving with solve_many, and the parallel vEB tree as an ordered
// integer set.
//
//   ./examples/quickstart
#include <cstdio>
#include <span>
#include <utility>
#include <vector>

#include "parlis/api/solver.hpp"
#include "parlis/lis/lis.hpp"
#include "parlis/parallel/scheduler.hpp"
#include "parlis/veb/veb_tree.hpp"

int main() {
  std::printf("parlis quickstart (%d worker threads)\n\n", parlis::num_workers());

  // One Solver owns all scratch state (patience tails, rank spaces, the
  // weighted pass's Fenwick tree): repeated solves through it allocate
  // nothing once warm. One solver per thread; solve_many spreads
  // independent queries over the worker pool.
  parlis::Solver solver;

  // --- Longest increasing subsequence (Alg. 1) --------------------------
  // The running example from the paper (Fig. 2/3).
  std::vector<int64_t> a = {52, 31, 45, 26, 61, 10, 39, 44};
  parlis::LisResult lis;
  solver.solve_lis(a, lis);
  std::printf("input:");
  for (int64_t x : a) std::printf(" %3lld", static_cast<long long>(x));
  std::printf("\nranks:");
  for (int32_t r : lis.rank) std::printf(" %3d", r);
  std::printf("\nLIS length k = %d\n", lis.k);

  // Reconstruct one actual LIS (Appendix A).
  std::vector<int64_t> seq = parlis::lis_sequence(a);
  std::printf("one LIS:");
  for (int64_t i : seq) {
    std::printf(" a[%lld]=%lld", static_cast<long long>(i),
                static_cast<long long>(a[i]));
  }
  std::printf("\n\n");

  // --- Weighted LIS (Alg. 2) --------------------------------------------
  std::vector<int64_t> w = {1, 5, 2, 4, 1, 9, 2, 3};
  parlis::WlisResult wl;
  solver.solve_wlis(a, w, wl);
  std::printf("weighted dp:");
  for (int64_t d : wl.dp) std::printf(" %lld", static_cast<long long>(d));
  std::printf("\nbest weighted increasing subsequence sum = %lld\n\n",
              static_cast<long long>(wl.best));

  // --- Batched serving (solve_many) --------------------------------------
  // Independent queries fan out across the worker pool: small ones are
  // packed onto at most one task per worker, large ones parallelize
  // internally.
  std::vector<int64_t> b = {3, 1, 4, 1, 5, 9, 2, 6};
  parlis::Query queries[3];
  queries[0].a = a;           // unweighted LIS of a
  queries[1].a = b;           // unweighted LIS of b
  queries[2].a = a;
  queries[2].w = w;           // weighted LIS of (a, w)
  parlis::QueryResult results[3];
  solver.solve_many(queries, results);
  std::printf("solve_many: k(a)=%d  k(b)=%d  best(a,w)=%lld\n\n",
              results[0].k, results[1].k,
              static_cast<long long>(results[2].best));

  // --- Generic keys & ties policies --------------------------------------
  // Any strictly-ordered key type solves through the same Solver: keys are
  // reduced to rank space once, then the shared int64 core runs. The ties
  // policy decides whether equal keys may chain.
  std::vector<double> prices = {10.5, 10.5, 11.25, 9.75, 11.25, 12.0};
  solver.solve_lis(std::span<const double>(prices), lis);
  std::printf("double keys, strict:        k=%d\n", lis.k);
  parlis::Options nondec;
  nondec.ties = parlis::TiesPolicy::kNonDecreasing;
  parlis::Solver nd_solver(nondec);
  nd_solver.solve_lis(std::span<const double>(prices), lis);
  std::printf("double keys, non-decreasing: k=%d\n", lis.k);
  // Tuple keys under lexicographic order (e.g. (day, sequence-number)).
  std::vector<std::pair<int64_t, int64_t>> events = {
      {1, 7}, {1, 2}, {2, 0}, {1, 9}, {2, 4}};
  solver.solve_lis(std::span<const std::pair<int64_t, int64_t>>(events), lis);
  std::printf("pair keys, strict:          k=%d\n\n", lis.k);

  // --- Parallel vEB tree (Thm. 1.3) --------------------------------------
  parlis::VebTree set(256);
  set.batch_insert({2, 4, 8, 10, 13, 15, 23, 28, 61});  // Fig. 6's keys
  std::printf("vEB: size=%lld min=%llu max=%llu pred_lt(13)=%llu\n",
              static_cast<long long>(set.size()),
              static_cast<unsigned long long>(*set.min()),
              static_cast<unsigned long long>(*set.max()),
              static_cast<unsigned long long>(*set.pred_lt(13)));
  auto in_range = set.range(8, 28);
  std::printf("keys in [8, 28]:");
  for (uint64_t k : in_range) {
    std::printf(" %llu", static_cast<unsigned long long>(k));
  }
  std::printf("\n");
  set.batch_delete({4, 10, 28});
  std::printf("after batch_delete{4,10,28}: size=%lld\n",
              static_cast<long long>(set.size()));
  return 0;
}
