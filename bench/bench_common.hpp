// Shared helpers for the figure-reproduction harnesses: flag parsing,
// timing, and aligned table/CSV output matching the series the paper plots.
#pragma once

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_json.hpp"
#include "parlis/parallel/scheduler.hpp"
#include "parlis/util/timer.hpp"

extern char** environ;

namespace parlis::bench {

/// Minimal --key value / --key=value flag parser. Numeric values go through
/// strtoll with auto base, so negatives ("--lo=-5") and hex ("--mask=0xff")
/// work in both spellings.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; i++) args_.push_back(argv[i]);
    // --git-sha SHA: stamped on every JSON record (bench_json.hpp).
    if (has("git-sha")) git_sha() = get_str("git-sha", "unknown");
  }
  int64_t get(const std::string& key, int64_t def) const {
    const std::string* v = find(key);
    return v ? std::strtoll(v->c_str(), nullptr, 0) : def;
  }
  std::string get_str(const std::string& key, const std::string& def) const {
    const std::string* v = find(key);
    return v ? *v : def;
  }
  bool has(const std::string& key) const {
    std::string k = "--" + key;
    for (const auto& a : args_) {
      if (a == k || a.rfind(k + "=", 0) == 0) return true;
    }
    return false;
  }

 private:
  // Value of --key VALUE or --key=VALUE (first occurrence), else nullptr.
  const std::string* find(const std::string& key) const {
    std::string k = "--" + key;
    for (size_t i = 0; i < args_.size(); i++) {
      if (args_[i] == k && i + 1 < args_.size()) return &args_[i + 1];
      if (args_[i].rfind(k + "=", 0) == 0) {
        eq_value_ = args_[i].substr(k.size() + 1);
        return &eq_value_;
      }
    }
    return nullptr;
  }

  std::vector<std::string> args_;
  mutable std::string eq_value_;  // backing storage for --key=value results
};

/// Parses a comma-separated list of integers ("1,2,4").
inline std::vector<int> parse_int_list(const std::string& s) {
  std::vector<int> out;
  size_t pos = 0;
  while (pos < s.size()) {
    out.push_back(std::atoi(s.c_str() + pos));
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// Re-executes this binary with the given argument vector and
/// PARLIS_NUM_THREADS=threads in the child environment (the pool size is
/// fixed per process, so thread sweeps respawn). Collects every
/// "RESULT <v>" line the child prints on stdout, in order; returns an
/// empty vector if the child could not be spawned or exited nonzero.
///
/// fork+execve with an argv vector — no shell in between, so argv0 paths
/// with spaces survive and no flag is lost to quoting.
inline std::vector<double> run_self_with_threads(
    const char* argv0, int threads, const std::vector<std::string>& args) {
  // Everything that allocates is built BEFORE fork(): once the pool has
  // started, fork() may land while another thread holds the malloc lock,
  // and a child that then allocates deadlocks on the inherited lock. The
  // child only dup2s, closes, and execs.
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(argv0));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  std::string thread_var = "PARLIS_NUM_THREADS=" + std::to_string(threads);
  std::vector<char*> envp;
  for (char** e = environ; *e != nullptr; e++) {
    if (std::strncmp(*e, "PARLIS_NUM_THREADS=", 19) != 0) envp.push_back(*e);
  }
  envp.push_back(const_cast<char*>(thread_var.c_str()));
  envp.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) return {};
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return {};
  }
  if (pid == 0) {
    // Child: stdout -> pipe, PARLIS_NUM_THREADS=threads, exec argv0.
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execvpe(argv0, argv.data(), envp.data());  // PATH lookup for bare names
    _exit(127);
  }
  close(fds[1]);
  std::vector<double> results;
  FILE* in = fdopen(fds[0], "r");
  if (in != nullptr) {
    char line[512];
    while (fgets(line, sizeof(line), in) != nullptr) {
      double v;
      if (std::sscanf(line, "RESULT %lf", &v) == 1) results.push_back(v);
    }
    fclose(in);
  } else {
    close(fds[0]);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return {};
  return results;
}

/// Median-of-reps wall-clock time of fn — the robust statistic the
/// BENCH_*.json records report; the lower middle for even rep counts. The
/// first calls of an op in a process run 2–5× slower than later ones (fresh
/// allocations fault their pages in, pool workers wake), so the timed reps
/// follow untimed calls of fn until kWarmupSeconds have passed, and at
/// least one.
inline constexpr double kWarmupSeconds = 1.0;

inline double time_median_of(int reps, const std::function<void()>& fn) {
  for (Timer warm; warm.elapsed() < kWarmupSeconds;) fn();
  std::vector<double> ts(reps > 0 ? reps : 1, 0.0);
  for (double& t : ts) {
    Timer timer;
    fn();
    t = timer.elapsed();
  }
  std::sort(ts.begin(), ts.end());
  return ts[(ts.size() - 1) / 2];
}

/// Interleaved medians of two runners, in seconds: each rep times `a_fn`
/// and then `b_fn`, so drift hits both sides, and each side reports the
/// lower middle of its reps (for even rep counts, so a 2-rep smoke reports
/// the warmer run rather than the cold-cache one).
struct PairMedians {
  double a = 0;  // a_fn's median
  double b = 0;  // b_fn's median
  double a_ms() const { return a * 1e3; }
  double b_ms() const { return b * 1e3; }
  /// How much less time b took than a, in percent of a.
  double speedup_pct() const { return 100.0 * (1.0 - b_ms() / a_ms()); }
};

inline PairMedians measure_pair(int reps, const std::function<void()>& a_fn,
                                const std::function<void()>& b_fn) {
  std::vector<double> a_ts(reps), b_ts(reps);
  for (int r = 0; r < reps; r++) {
    Timer t;
    a_fn();
    a_ts[r] = t.elapsed();
    t.reset();
    b_fn();
    b_ts[r] = t.elapsed();
  }
  std::sort(a_ts.begin(), a_ts.end());
  std::sort(b_ts.begin(), b_ts.end());
  return {a_ts[(reps - 1) / 2], b_ts[(reps - 1) / 2]};
}

/// Accumulates and prints a "k, series..." table + CSV (the paper's plots
/// are time-vs-k line series; the rows here regenerate one figure).
class SeriesTable {
 public:
  explicit SeriesTable(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  void add_row(int64_t k, const std::vector<double>& values) {
    rows_.push_back({k, values});
  }

  void print(const char* title) const {
    std::printf("\n== %s ==\n", title);
    std::printf("%12s", "k");
    for (const auto& c : columns_) std::printf("  %14s", c.c_str());
    std::printf("\n");
    for (const auto& [k, vals] : rows_) {
      std::printf("%12lld", static_cast<long long>(k));
      for (size_t i = 0; i < columns_.size(); i++) {
        if (i < vals.size() && vals[i] >= 0) {
          std::printf("  %14.4f", vals[i]);
        } else {
          std::printf("  %14s", "-");
        }
      }
      std::printf("\n");
    }
    std::printf("csv,k");
    for (const auto& c : columns_) std::printf(",%s", c.c_str());
    std::printf("\n");
    for (const auto& [k, vals] : rows_) {
      std::printf("csv,%lld", static_cast<long long>(k));
      for (size_t i = 0; i < columns_.size(); i++) {
        if (i < vals.size() && vals[i] >= 0) {
          std::printf(",%.6f", vals[i]);
        } else {
          std::printf(",");
        }
      }
      std::printf("\n");
    }
  }

 private:
  std::vector<std::string> columns_;
  std::vector<std::pair<int64_t, std::vector<double>>> rows_;
};

/// Runs fn with the pool forced into sequential (one-thread) execution
/// (warm-up and median of reps, like the parallel series it is compared
/// against).
inline double timed_sequential(int reps, const std::function<void()>& fn) {
  bool prev = set_sequential_mode(true);
  double t = time_median_of(reps, fn);
  set_sequential_mode(prev);
  return t;
}

/// Logarithmic sweep of target-k values up to maxk.
inline std::vector<int64_t> k_sweep(int64_t maxk, double factor = 10.0) {
  std::vector<int64_t> ks;
  for (double k = 1; k <= static_cast<double>(maxk); k *= factor) {
    ks.push_back(static_cast<int64_t>(k));
  }
  return ks;
}

}  // namespace parlis::bench
