// In-memory spans for the traced run. Every span is recorded from the
// benchmark's own code around a call into one layer of the library: name,
// start, end, parent span and the solve or request id it belongs to. Each
// thread owns one SpanLog (no locking on the hot path); at exit the logs are
// merged and written as Chrome trace-event JSON (opens offline in Perfetto)
// and folded into a per-layer self-time table.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

inline double now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

struct Span {
  const char* name;
  double start_us;
  double end_us;
  int32_t parent;  // index in the same log, -1 for a root
  int64_t id;      // solve or request id
};

class SpanLog {
 public:
  SpanLog(int tid, size_t capacity) : tid_(tid), cap_(capacity) {
    spans_.reserve(capacity);
    stack_.reserve(64);
  }

  // Returns the span's index, or -1 when the log is full (the span is
  // counted as dropped; its children attach to the nearest recorded
  // ancestor).
  int32_t open(const char* name, int64_t id) {
    if (spans_.size() >= cap_) {
      dropped_++;
      return -1;
    }
    const int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_us(), 0.0, parent, id});
    const int32_t idx = static_cast<int32_t>(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
  }

  void close(int32_t idx) {
    if (idx < 0) return;
    spans_[static_cast<size_t>(idx)].end_us = now_us();
    stack_.pop_back();
  }

  int tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }
  int64_t dropped() const { return dropped_; }

 private:
  int tid_;
  size_t cap_;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
  int64_t dropped_ = 0;
};

// RAII span; a null log records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t id)
      : log_(log), idx_(log ? log->open(name, id) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->close(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t idx_;
};

struct LayerSelfTime {
  int64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

// Merges the logs into one span list with global parent indices.
inline std::vector<SpanTimes> merged_times(
    const std::vector<const SpanLog*>& logs) {
  std::vector<SpanTimes> all;
  for (const SpanLog* log : logs) {
    const int32_t base = static_cast<int32_t>(all.size());
    for (const Span& s : log->spans()) {
      all.push_back({s.start_us, s.end_us,
                     s.parent < 0 ? -1 : base + s.parent});
    }
  }
  return all;
}

inline std::map<std::string, LayerSelfTime> self_time_table(
    const std::vector<const SpanLog*>& logs) {
  const std::vector<SpanTimes> all = merged_times(logs);
  const std::vector<double> self = self_times(all);
  std::map<std::string, LayerSelfTime> table;
  size_t i = 0;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      LayerSelfTime& row = table[s.name];
      row.count++;
      row.total_ms += (s.end_us - s.start_us) / 1e3;
      row.self_ms += self[i] / 1e3;
      i++;
    }
  }
  return table;
}

// Chrome trace-event JSON ("X" complete events, microsecond timestamps).
inline bool write_chrome_trace(const std::string& path,
                               const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  int32_t base = 0;
  for (const SpanLog* log : logs) {
    const auto& spans = log->spans();
    for (size_t i = 0; i < spans.size(); i++) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,"
                   "\"parent\":%d,\"id\":%lld}}",
                   first ? "" : ",\n", s.name, log->tid(), s.start_us,
                   s.end_us - s.start_us, base + static_cast<int32_t>(i),
                   s.parent < 0 ? -1 : base + s.parent,
                   static_cast<long long>(s.id));
      first = false;
    }
    base += static_cast<int32_t>(spans.size());
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
