// Machine-readable benchmark output: every harness accepts --out FILE and,
// when given, appends its measurements as a JSON array of flat records
// (BENCH_*.json). Each record carries at least the op name, input size,
// thread count, and the measured median in milliseconds; harnesses attach
// extra fields (realized k, nodes visited, speedup, ...) freely. The files
// are the repo's perf trajectory: commit one per landmark run and diff them
// across PRs.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "parlis/util/failpoint.hpp"
#include "parlis/util/simd.hpp"

// Build provenance: CMake defines these for the bench targets.
#ifndef PARLIS_BENCH_COMPILER
#define PARLIS_BENCH_COMPILER "unknown"
#endif
#ifndef PARLIS_BENCH_FLAGS
#define PARLIS_BENCH_FLAGS "unknown"
#endif
#ifndef PARLIS_BENCH_BUILD_TYPE
#define PARLIS_BENCH_BUILD_TYPE "unknown"
#endif

namespace parlis::bench {

/// The git sha every record carries: "unknown" unless the harness ran with
/// --git-sha SHA (Flags, bench_common.hpp, sets it).
inline std::string& git_sha() {
  static std::string sha = "unknown";
  return sha;
}

/// One flat JSON object, built field-by-field in insertion order. Every
/// record opens with the provenance the constructor stamps, the fields
/// perfbench prints too: host_hw_threads (std::thread::
/// hardware_concurrency), git_sha, compiler (id and version), flags,
/// build_type, simd_backend and failpoints ("on" or "off"). On a small-core
/// or single-core host the per-op medians are the signal, not wall-clock
/// scaling, and a committed BENCH_*.json without its host and build is
/// uninterpretable later. Emitters therefore never add these by hand.
class JsonRecord {
 public:
  JsonRecord() {
    field("host_hw_threads",
          static_cast<int>(std::thread::hardware_concurrency()));
    field("git_sha", git_sha());
    field("compiler", PARLIS_BENCH_COMPILER);
    field("flags", PARLIS_BENCH_FLAGS);
    field("build_type", PARLIS_BENCH_BUILD_TYPE);
    field("simd_backend", simd::backend_name());
    field("failpoints", failpoints::enabled() ? "on" : "off");
  }

  JsonRecord& field(const char* key, int64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonRecord& field(const char* key, uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonRecord& field(const char* key, int v) {
    return raw(key, std::to_string(v));
  }
  JsonRecord& field(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return raw(key, buf);
  }
  JsonRecord& field(const char* key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    quoted += '"';
    return raw(key, quoted);
  }
  JsonRecord& field(const char* key, const char* v) {
    return field(key, std::string(v));
  }

  const std::string& body() const { return body_; }

 private:
  JsonRecord& raw(const char* key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"";
    body_ += key;
    body_ += "\": ";
    body_ += value;
    return *this;
  }

  std::string body_;
};

/// Collects records and writes them as a JSON array on write() (or at
/// destruction). An empty path disables the emitter: add() still accepts
/// records, nothing is written.
class BenchJson {
 public:
  explicit BenchJson(std::string path) : path_(std::move(path)) {}
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;
  ~BenchJson() { write(); }

  bool enabled() const { return !path_.empty(); }

  void add(const JsonRecord& rec) { records_.push_back(rec.body()); }

  /// Writes the array (once); prints the destination path on success.
  void write() {
    if (path_.empty() || written_) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench_json: cannot open %s\n", path_.c_str());
      return;
    }
    std::fputs("[\n", f);
    for (size_t i = 0; i < records_.size(); i++) {
      std::fprintf(f, "  {%s}%s\n", records_[i].c_str(),
                   i + 1 < records_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    std::fclose(f);
    std::printf("bench_json: wrote %zu records to %s\n", records_.size(),
                path_.c_str());
    written_ = true;
  }

 private:
  std::string path_;
  std::vector<std::string> records_;
  bool written_ = false;
};

}  // namespace parlis::bench
