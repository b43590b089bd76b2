// Streaming-session tests: differential legs (LisSession vs from-scratch
// Solver solves, random + adversarial inputs over the whole int64 domain,
// both ties policies, every window mode — the Stream*Differential suites
// also run under the pinned 1/4/hw-thread ctest legs via the *Differential*
// filter), erase-heavy VebTree churn against a std::set oracle, and the
// cache-invariant regression interleaving session appends with warm
// solve_wlis on the same solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "parlis/api/solver.hpp"
#include "parlis/stream/lis_session.hpp"
#include "parlis/veb/veb_tree.hpp"
#include "parlis/wlis/wlis.hpp"
#include "parlis/wlis/wlis_workspace.hpp"

namespace parlis {
namespace {

// Sequential patience oracle: O(log n) per element, cheap enough to check
// the session's length after EVERY op (the full-solve diff runs every K).
struct PatienceOracle {
  std::vector<int64_t> tails;
  TiesPolicy ties;
  explicit PatienceOracle(TiesPolicy t) : ties(t) {}
  int64_t push(int64_t v) {
    auto it = ties == TiesPolicy::kStrict
                  ? std::lower_bound(tails.begin(), tails.end(), v)
                  : std::upper_bound(tails.begin(), tails.end(), v);
    if (it == tails.end()) {
      tails.push_back(v);
    } else {
      *it = v;
    }
    return static_cast<int64_t>(tails.size());
  }
  static int64_t length_of(std::span<const int64_t> a, TiesPolicy t) {
    PatienceOracle o(t);
    int64_t k = 0;
    for (int64_t v : a) k = o.push(v);
    return a.empty() ? 0 : k;
  }
};

struct StreamPattern {
  const char* name;
  // i-th element of the stream, n the total length.
  int64_t (*gen)(int64_t i, std::mt19937_64& rng);
};

int64_t gen_random(int64_t, std::mt19937_64& rng) {
  return static_cast<int64_t>(rng() % 100000) - 50000;
}
int64_t gen_dup_heavy(int64_t, std::mt19937_64& rng) {
  return static_cast<int64_t>(rng() % 8);
}
int64_t gen_sorted(int64_t i, std::mt19937_64&) { return i; }
int64_t gen_reverse(int64_t i, std::mt19937_64&) { return -i; }
int64_t gen_all_equal(int64_t, std::mt19937_64&) { return 7; }
int64_t gen_sawtooth(int64_t i, std::mt19937_64&) { return i % 17; }

constexpr StreamPattern kPatterns[] = {
    {"random", gen_random},       {"dup_heavy", gen_dup_heavy},
    {"sorted", gen_sorted},       {"reverse", gen_reverse},
    {"all_equal", gen_all_equal}, {"sawtooth", gen_sawtooth},
};

constexpr TiesPolicy kPolicies[] = {TiesPolicy::kStrict,
                                    TiesPolicy::kNonDecreasing};

void expect_frontiers_equal(const LisFrontiers& got, const LisFrontiers& want,
                            const char* where) {
  ASSERT_EQ(got.k, want.k) << where;
  ASSERT_EQ(got.rank, want.rank) << where;
  ASSERT_EQ(got.frontier_offset, want.frontier_offset) << where;
  ASSERT_EQ(got.frontier_flat, want.frontier_flat) << where;
}

// ---------------------------------------------------------------- append ---

TEST(StreamDifferential, AppendMatchesSolverAcrossPatterns) {
  constexpr int64_t kN = 600;
  constexpr int64_t kCheckEvery = 37;
  for (TiesPolicy ties : kPolicies) {
    for (const StreamPattern& pat : kPatterns) {
      Options opts;
      opts.ties = ties;
      Solver solver(opts);
      Solver fresh(opts);  // reference solves on an untouched solver
      LisSession s = solver.make_session();
      PatienceOracle oracle(ties);
      std::mt19937_64 rng(42);
      std::vector<int64_t> a;
      LisFrontiers want;
      for (int64_t i = 0; i < kN; i++) {
        int64_t v = pat.gen(i, rng);
        a.push_back(v);
        int64_t got = s.append(v);
        ASSERT_EQ(got, oracle.push(v))
            << pat.name << " tick " << i << " ties "
            << (ties == TiesPolicy::kStrict ? "strict" : "nondec");
        if (i % kCheckEvery == 0 || i == kN - 1) {
          fresh.solve_lis_frontiers(std::span<const int64_t>(a), want);
          expect_frontiers_equal(s.frontiers(), want, pat.name);
          ASSERT_TRUE(std::ranges::equal(s.window(), a));
        }
      }
      ASSERT_EQ(s.length(),
                PatienceOracle::length_of(std::span<const int64_t>(a), ties));
    }
  }
}

// ------------------------------------------------------------- sliding ---

TEST(StreamDifferential, SlidingExactMatchesWindowSolve) {
  constexpr int64_t kN = 900, kCap = 128;
  for (TiesPolicy ties : kPolicies) {
    for (const StreamPattern& pat : kPatterns) {
      Options opts;
      opts.ties = ties;
      opts.window = WindowMode::kSlidingExact;
      opts.window_capacity = kCap;
      Solver solver(opts);
      LisSession s = solver.make_session();
      std::mt19937_64 rng(7);
      std::vector<int64_t> a;
      for (int64_t i = 0; i < kN; i++) {
        int64_t v = pat.gen(i, rng);
        a.push_back(v);
        int64_t got = s.append(v);
        ASSERT_LE(s.size(), kCap) << pat.name;
        std::span<const int64_t> win(a);
        win = win.subspan(a.size() - static_cast<size_t>(s.size()));
        ASSERT_TRUE(std::equal(win.begin(), win.end(), s.window().begin()));
        ASSERT_EQ(got, PatienceOracle::length_of(win, ties))
            << pat.name << " tick " << i;
      }
      // The exact mode's window is exactly the trailing kCap elements.
      ASSERT_EQ(s.size(), kCap);
    }
  }
}

TEST(StreamDifferential, SlidingAmortizedMatchesItsOwnWindow) {
  constexpr int64_t kN = 900, kCap = 100;
  for (TiesPolicy ties : kPolicies) {
    Options opts;
    opts.ties = ties;
    opts.window = WindowMode::kSlidingAmortized;
    opts.window_capacity = kCap;
    Solver solver(opts);
    LisSession s = solver.make_session();
    std::mt19937_64 rng(19);
    for (int64_t i = 0; i < kN; i++) {
      int64_t got = s.append(gen_random(i, rng));
      // Amortized mode trades window exactness for amortized O(log k):
      // the size oscillates in (kCap/2, kCap], and the reported length must
      // always be the LIS of the window it actually holds.
      ASSERT_LE(s.size(), kCap);
      ASSERT_GT(s.size(), i < kCap / 2 ? 0 : kCap / 2 - 1);
      ASSERT_EQ(got, PatienceOracle::length_of(s.window(), ties));
    }
    ASSERT_GT(s.stats().window_rebuilds, 0);
  }
}

TEST(StreamDifferential, PopFrontCoalescesAndMatches) {
  constexpr int64_t kN = 500;
  for (TiesPolicy ties : kPolicies) {
    Options opts;
    opts.ties = ties;
    Solver solver(opts);
    LisSession s = solver.make_session();
    std::mt19937_64 rng(23);
    std::vector<int64_t> a;
    for (int64_t i = 0; i < kN; i++) {
      int64_t v = gen_random(i, rng);
      a.push_back(v);
      s.append(v);
      if (rng() % 4 == 0 && s.size() > 3) {
        // Burst of pops: they must coalesce into (at most) one replay.
        int64_t before = s.stats().window_rebuilds;
        int64_t pops = 1 + static_cast<int64_t>(rng() % 3);
        for (int64_t q = 0; q < pops; q++) s.pop_front();
        a.erase(a.begin(), a.begin() + pops);
        ASSERT_EQ(s.length(),
                  PatienceOracle::length_of(std::span<const int64_t>(a), ties));
        ASSERT_EQ(s.stats().window_rebuilds, before + 1);
        ASSERT_TRUE(std::ranges::equal(s.window(), a));
      }
    }
  }
}

// -------------------------------------------------------- delta_resolve ---

TEST(StreamDifferential, DeltaResolveMatchesSolver) {
  constexpr int64_t kN = 800, kEdits = 24;
  for (TiesPolicy ties : kPolicies) {
    Options opts;
    opts.ties = ties;
    Solver solver(opts);
    Solver fresh(opts);
    LisSession s = solver.make_session();
    std::mt19937_64 rng(11);
    std::vector<int64_t> a(kN);
    for (auto& v : a) v = gen_random(0, rng);
    for (int64_t v : a) s.append(v);
    s.frontiers();  // prime the delta cache
    LisFrontiers want;
    for (int64_t e = 0; e < kEdits; e++) {
      // Random edit region [l, r) of the current series; sometimes the
      // replacement has a different length (insert/delete shapes).
      int64_t n = static_cast<int64_t>(a.size());
      int64_t l = static_cast<int64_t>(rng() % (n / 2));
      int64_t r = l + 1 + static_cast<int64_t>(rng() % (n - l));
      int64_t new_mid = (r - l) + static_cast<int64_t>(rng() % 9) - 4;
      new_mid = std::max<int64_t>(0, new_mid);
      std::vector<int64_t> b(a.begin(), a.begin() + l);
      for (int64_t i = 0; i < new_mid; i++) b.push_back(gen_random(0, rng));
      b.insert(b.end(), a.begin() + r, a.end());
      int64_t got = s.delta_resolve(std::span<const int64_t>(b), l,
                                    static_cast<int64_t>(a.size()) - r);
      fresh.solve_lis_frontiers(std::span<const int64_t>(b), want);
      ASSERT_EQ(got, want.k) << "edit " << e;
      expect_frontiers_equal(s.frontiers(), want, "delta");
      ASSERT_TRUE(std::ranges::equal(s.window(), b));
      a = std::move(b);
      // Appends after a delta must keep matching too.
      int64_t v = gen_random(0, rng);
      a.push_back(v);
      ASSERT_EQ(s.append(v),
                PatienceOracle::length_of(std::span<const int64_t>(a), ties));
    }
    ASSERT_GT(s.stats().delta_replayed, 0);
  }
}

TEST(StreamDifferential, DeltaResolveEdgeShapes) {
  Options opts;
  Solver solver(opts);
  Solver fresh(opts);
  LisSession s = solver.make_session();
  std::vector<int64_t> a = {5, 1, 4, 2, 3, 6, 0, 7};
  for (int64_t v : a) s.append(v);
  s.frontiers();
  LisFrontiers want;
  // Pure append via delta (prefix == whole old window).
  std::vector<int64_t> b = a;
  b.push_back(8);
  ASSERT_EQ(s.delta_resolve(std::span<const int64_t>(b), 8, 0), 6);
  // Pure prefix truncation (suffix kept).
  std::vector<int64_t> c(b.begin() + 2, b.end());
  int64_t got = s.delta_resolve(std::span<const int64_t>(c), 0, 7);
  fresh.solve_lis_frontiers(std::span<const int64_t>(c), want);
  ASSERT_EQ(got, want.k);
  expect_frontiers_equal(s.frontiers(), want, "truncate");
  // Full replacement (nothing kept), including empty.
  std::vector<int64_t> d = {3, 2, 1};
  ASSERT_EQ(s.delta_resolve(std::span<const int64_t>(d), 0, 0), 1);
  std::vector<int64_t> empty;
  ASSERT_EQ(s.delta_resolve(std::span<const int64_t>(empty), 0, 0), 0);
  ASSERT_EQ(s.size(), 0);
  ASSERT_EQ(s.length(), 0);
  // Convergence: an increasing run below every earlier value rewrites the
  // pile tops one by one, so after an edit just before it the live and
  // cached replays agree within ~k + 1 elements, and the rest of the
  // suffix is copied, not replayed.
  std::mt19937_64 rng(37);
  std::vector<int64_t> e;
  for (int64_t i = 0; i < 500; i++) e.push_back(gen_random(i, rng));
  for (int64_t i = 0; i < 200; i++) e.push_back(-1000000 + i);
  for (int64_t i = 0; i < 300; i++) e.push_back(gen_random(i, rng));
  for (int64_t v : e) s.append(v);
  s.frontiers();
  std::vector<int64_t> f = e;
  f[499] = 12345;
  const int64_t replayed = s.stats().delta_replayed;
  got = s.delta_resolve(std::span<const int64_t>(f), 499, 500);
  ASSERT_LT(s.stats().delta_replayed - replayed, 200);
  fresh.solve_lis_frontiers(std::span<const int64_t>(f), want);
  ASSERT_EQ(got, want.k);
  expect_frontiers_equal(s.frontiers(), want, "converged");
}

// ------------------------------------------------------ int64 domain ---

// Feeds over the whole int64 domain: the extremes themselves, zig-zags
// between them, monotone runs ending at an extreme whose span crosses 2^27
// part-way, full-width uniform values, a drifting noisy series, and a feed
// that keeps landing between its two latest values.
constexpr int64_t kMin64 = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax64 = std::numeric_limits<int64_t>::max();
constexpr int64_t kDomainN = 600;
constexpr int64_t kWideStride = (int64_t{1} << 27) / 300 + 1;

int64_t gen_min_max(int64_t, std::mt19937_64& rng) {
  return rng() % 2 ? kMin64 : kMax64;
}
int64_t gen_zigzag(int64_t i, std::mt19937_64&) {
  return i % 2 ? kMax64 - i / 2 : kMin64 + i / 2;
}
int64_t gen_up_to_max(int64_t i, std::mt19937_64&) {
  return kMax64 - (kDomainN - 1 - i) * kWideStride;
}
int64_t gen_down_to_min(int64_t i, std::mt19937_64&) {
  return kMin64 + (kDomainN - 1 - i) * kWideStride;
}
int64_t gen_uniform64(int64_t, std::mt19937_64& rng) {
  return static_cast<int64_t>(rng());
}
int64_t gen_drift(int64_t i, std::mt19937_64& rng) {
  return -50000 + 2 * i + static_cast<int64_t>(rng() % 401) - 200;
}
int64_t gen_between(int64_t i, std::mt19937_64& rng) {
  if (i < 2) return i * 1000000;
  return rng() % 2 ? gen_random(i, rng) * 100000 : kMax64 / 2 - i;
}

constexpr StreamPattern kDomainPatterns[] = {
    {"min_max", gen_min_max},       {"zigzag", gen_zigzag},
    {"up_to_max", gen_up_to_max},   {"down_to_min", gen_down_to_min},
    {"uniform64", gen_uniform64},   {"drift", gen_drift},
    {"between", gen_between},
};

TEST(StreamDifferential, Int64DomainEveryModeAndTies) {
  constexpr int64_t kCheckEvery = 37;
  struct Mode {
    WindowMode mode;
    int64_t capacity;
  };
  constexpr Mode kModes[] = {{WindowMode::kGrowOnly, 0},
                             {WindowMode::kSlidingExact, 64},
                             {WindowMode::kSlidingAmortized, 100}};
  for (TiesPolicy ties : kPolicies) {
    for (const Mode& m : kModes) {
      for (const StreamPattern& pat : kDomainPatterns) {
        SCOPED_TRACE(std::string(pat.name) + " mode " +
                     std::to_string(static_cast<int>(m.mode)) + " ties " +
                     (ties == TiesPolicy::kStrict ? "strict" : "nondec"));
        Options opts;
        opts.ties = ties;
        opts.window = m.mode;
        opts.window_capacity = m.capacity;
        Solver solver(opts);
        Solver fresh(opts);
        LisSession s = solver.make_session();
        PatienceOracle grow(ties);
        std::mt19937_64 rng(101);
        std::vector<int64_t> a;
        LisFrontiers want;
        for (int64_t i = 0; i < kDomainN; i++) {
          const int64_t v = pat.gen(i, rng);
          a.push_back(v);
          const int64_t got = s.append(v);
          std::span<const int64_t> win(a);
          win = win.subspan(a.size() - static_cast<size_t>(s.size()));
          ASSERT_TRUE(std::equal(win.begin(), win.end(), s.window().begin()))
              << "tick " << i;
          const int64_t k = m.mode == WindowMode::kGrowOnly
                                ? grow.push(v)
                                : PatienceOracle::length_of(win, ties);
          ASSERT_EQ(got, k) << "tick " << i;
          if (i % kCheckEvery == 0 || i == kDomainN - 1) {
            fresh.solve_lis_frontiers(win, want);
            expect_frontiers_equal(s.frontiers(), want, pat.name);
          }
        }
        if (m.mode == WindowMode::kSlidingExact) {
          ASSERT_EQ(s.size(), m.capacity);
        }
        // An edit that writes the extremes into the middle of the window.
        std::vector<int64_t> b(s.window().begin(), s.window().end());
        const int64_t n = static_cast<int64_t>(b.size());
        const int64_t l = n / 3, r = std::min(n, l + 40);
        for (int64_t i = l; i < r; i++) b[i] = gen_zigzag(i, rng);
        const int64_t got = s.delta_resolve(b, l, n - r);
        fresh.solve_lis_frontiers(std::span<const int64_t>(b), want);
        ASSERT_EQ(got, want.k);
        expect_frontiers_equal(s.frontiers(), want, "delta");
        const int64_t after = s.append(kMax64);
        ASSERT_EQ(after, PatienceOracle::length_of(s.window(), ties));
      }
    }
  }
}

TEST(StreamSession, MoveAssignOverLiveSessionKeepsAppending) {
  constexpr int64_t kCap = 50;
  for (TiesPolicy ties : kPolicies) {
    Options grow_opts;
    grow_opts.ties = ties;
    Options exact_opts = grow_opts;
    exact_opts.window = WindowMode::kSlidingExact;
    exact_opts.window_capacity = kCap;
    Solver grow_solver(grow_opts), exact_solver(exact_opts), fresh(grow_opts);
    std::mt19937_64 rng(31);
    LisSession live = grow_solver.make_session();
    for (int64_t i = 0; i < 300; i++) live.append(gen_random(i, rng));
    live.frontiers();  // a cached solve the assignment must replace
    LisSession other = exact_solver.make_session();
    std::vector<int64_t> a;
    for (int64_t i = 0; i < 120; i++) {
      a.push_back(gen_uniform64(i, rng));
      other.append(a.back());
    }
    live = std::move(other);
    ASSERT_EQ(live.mode(), WindowMode::kSlidingExact);
    ASSERT_EQ(live.size(), kCap);
    for (int64_t i = 0; i < 200; i++) {
      a.push_back(i % 3 ? gen_uniform64(i, rng) : gen_random(i, rng));
      const int64_t got = live.append(a.back());
      std::span<const int64_t> win(a);
      win = win.subspan(a.size() - kCap);
      ASSERT_TRUE(std::equal(win.begin(), win.end(), live.window().begin()));
      ASSERT_EQ(got, PatienceOracle::length_of(win, ties)) << "tick " << i;
    }
    LisFrontiers want;
    fresh.solve_lis_frontiers(live.window(), want);
    expect_frontiers_equal(live.frontiers(), want, "moved");
  }
}

// ---------------------------------------------------------- vEB churn ---

TEST(StreamVebChurn, EraseInsertChurnVsSetOracle) {
  // Erase-heavy word-block churn at fixed occupancy — a point-op access
  // shape that batch-oriented tests miss. 2^16 is one internal level over
  // word blocks, 2^32 two.
  for (uint64_t kU : {uint64_t{1} << 16, uint64_t{1} << 32}) {
    constexpr int64_t kOccupancy = 2000, kOps = 20000;
    VebTree t(kU);
    std::set<uint64_t> oracle;
    std::vector<uint64_t> members;  // for O(1) random member picks
    std::mt19937_64 rng(5);
    while (oracle.size() < kOccupancy) {
      uint64_t x = rng() % kU;
      if (oracle.insert(x).second) {
        t.insert(x);
        members.push_back(x);
      }
    }
    for (int64_t op = 0; op < kOps; op++) {
      // Erase a random member, insert a random non-member: size constant.
      size_t idx = rng() % members.size();
      uint64_t out = members[idx];
      uint64_t in = rng() % kU;
      while (oracle.count(in)) in = rng() % kU;
      t.erase(out);
      t.insert(in);
      oracle.erase(out);
      oracle.insert(in);
      members[idx] = in;
      if (op % 256 == 0) {
        ASSERT_EQ(t.size(), static_cast<int64_t>(oracle.size()));
        ASSERT_EQ(*t.min(), *oracle.begin());
        ASSERT_EQ(*t.max(), *oracle.rbegin());
        for (int probe = 0; probe < 16; probe++) {
          uint64_t q = rng() % kU;
          auto su = oracle.upper_bound(q);
          auto got = t.succ_gt(q);
          ASSERT_EQ(got.has_value(), su != oracle.end());
          if (got) {
            ASSERT_EQ(*got, *su);
          }
          auto pl = oracle.lower_bound(q);
          auto gotp = t.pred_lt(q);
          ASSERT_EQ(gotp.has_value(), pl != oracle.begin());
          if (gotp) {
            ASSERT_EQ(*gotp, *std::prev(pl));
          }
        }
        t.check_invariants();
      }
    }
    ASSERT_EQ(t.check_invariants(), kOccupancy);
  }
}

// ------------------------------------------- cache-invariant regression ---

TEST(StreamSession, InterleavedAppendAndWarmWlisStayCoherent) {
  // The value cache's invariant: the rank space describes the keyed
  // values. Session ops must not corrupt a warm weighted cache on the same
  // solver: appends touch no solver state, and frontiers() solves the raw
  // values under kStrict, so the cache stays keyed.
  constexpr int64_t kN = 500;
  std::mt19937_64 rng(3);
  std::vector<int64_t> a(kN), w(kN);
  for (auto& v : a) v = gen_random(0, rng);
  for (auto& v : w) v = 1 + static_cast<int64_t>(rng() % 100);
  Options opts;
  Solver solver(opts);
  Solver fresh(opts);
  WlisResult warm, want;
  solver.solve_wlis(std::span<const int64_t>(a), std::span<const int64_t>(w),
                    warm);  // primes the value-sequence cache
  LisSession s = solver.make_session();
  for (int64_t i = 0; i < 100; i++) s.append(gen_random(0, rng));
  s.frontiers();  // drives solver LIS scratch while the wlis cache is warm
  // Warm re-weighting after session traffic must hit and still be right.
  for (auto& v : w) v = 1 + static_cast<int64_t>(rng() % 100);
  ASSERT_TRUE(solver.solve_wlis(std::span<const int64_t>(a),
                                std::span<const int64_t>(w), warm));
  fresh.solve_wlis(std::span<const int64_t>(a), std::span<const int64_t>(w),
                   want);
  ASSERT_EQ(warm.best, want.best);
  ASSERT_EQ(warm.dp, want.dp);
  // And a different-values solve must MISS the cache (not falsely hit).
  std::vector<int64_t> b = a;
  b[kN / 2] += 1;
  ASSERT_FALSE(solver.solve_wlis(std::span<const int64_t>(b),
                                 std::span<const int64_t>(w), warm));
  fresh.solve_wlis(std::span<const int64_t>(b), std::span<const int64_t>(w),
                   want);
  ASSERT_EQ(warm.best, want.best);
  ASSERT_EQ(warm.dp, want.dp);
}

// Alg. 2's rounds on one reused WlisWorkspace: a repeated sequence and a
// changed one both match a fresh solve (the workspace caches no values).
TEST(StreamSession, HashedWlisGuardHitsAndFallsBack) {
  constexpr int64_t kN = 300;
  std::mt19937_64 rng(9);
  std::vector<int64_t> a(kN), w(kN);
  for (auto& v : a) v = gen_random(0, rng);
  for (auto& v : w) v = 1 + static_cast<int64_t>(rng() % 50);
  WlisWorkspace ws;
  WlisResult r1, r2, r3;
  wlis_into(std::span<const int64_t>(a), std::span<const int64_t>(w), ws, r1);
  // The same sequence again on the reused workspace.
  wlis_into(std::span<const int64_t>(a), std::span<const int64_t>(w), ws, r2);
  ASSERT_EQ(r1.best, r2.best);
  ASSERT_EQ(r1.dp, r2.dp);
  // A changed sequence on the same workspace must still be correct.
  std::vector<int64_t> b = a;
  b[0] -= 3;
  wlis_into(std::span<const int64_t>(b), std::span<const int64_t>(w), ws, r3);
  WlisResult fresh = wlis(std::span<const int64_t>(b),
                          std::span<const int64_t>(w));
  ASSERT_EQ(r3.best, fresh.best);
  ASSERT_EQ(r3.dp, fresh.dp);
}

// ------------------------------------------------------------- edges ---

TEST(StreamSession, EdgeCases) {
  Options opts;
  Solver solver(opts);
  LisSession s = solver.make_session();
  ASSERT_EQ(s.size(), 0);
  ASSERT_EQ(s.length(), 0);
  ASSERT_EQ(s.frontiers().k, 0);
  ASSERT_EQ(s.append(5), 1);
  s.pop_front();
  ASSERT_EQ(s.size(), 0);
  ASSERT_EQ(s.length(), 0);
  // Capacity-1 sliding window: every append evicts.
  Options w1;
  w1.window = WindowMode::kSlidingExact;
  w1.window_capacity = 1;
  Solver sw(w1);
  LisSession t = sw.make_session();
  for (int64_t i = 0; i < 10; i++) ASSERT_EQ(t.append(100 - i), 1);
  ASSERT_EQ(t.size(), 1);
  ASSERT_EQ(t.window()[0], 91);
  // Strict vs nondec on all-equal input.
  Options nd;
  nd.ties = TiesPolicy::kNonDecreasing;
  Solver snd(nd);
  LisSession u = snd.make_session();
  for (int64_t i = 1; i <= 50; i++) ASSERT_EQ(u.append(7), i);
}

}  // namespace
}  // namespace parlis
