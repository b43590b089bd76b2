#include "parlis/serve/engine.hpp"

#include <algorithm>
#include <exception>

#include "parlis/util/error.hpp"
#include "parlis/util/failpoint.hpp"

namespace parlis::serve {

namespace {

int64_t elapsed_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void bump_hwm(std::atomic<int64_t>& hwm, int64_t v) {
  int64_t cur = hwm.load(std::memory_order_relaxed);
  while (v > cur &&
         !hwm.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Engine::Engine(const EngineConfig& cfg)
    : table_(cfg.table), batch_solver_(cfg.table.solver), cfg_(cfg) {
  if (cfg_.queue_capacity < 1) cfg_.queue_capacity = 1;
  if (cfg_.coalesce_max_queries < 1) cfg_.coalesce_max_queries = 1;
  if (cfg_.coalesce_linger_us < 0) cfg_.coalesce_linger_us = 0;
  ring_.resize(static_cast<size_t>(cfg_.queue_capacity));
  // Pass scratch sized up front, so warm passes never allocate.
  // 2x: a linger window can top the first drain up with a second full ring.
  drained_.reserve(2 * ring_.size());
  batch_reqs_.reserve(ring_.size());
  batch_queries_.reserve(static_cast<size_t>(cfg_.coalesce_max_queries));
  batch_results_.reserve(static_cast<size_t>(cfg_.coalesce_max_queries));
}

Engine::~Engine() {
  std::unique_lock<std::mutex> lk(qmu_);
  stopping_ = true;  // no pass starts and no request queues from here on
  not_full_.notify_all();
  cv_.notify_all();  // a lingering pass stops lingering
  cv_.wait(lk, [&] { return !combining_; });
  drain_queue();
  for (Request* r : drained_) {
    r->error = std::make_exception_ptr(
        Error(ErrorCode::kCancelled, "Engine: stopping"));
    r->done = true;
  }
  cv_.notify_all();
  // The waiters still touch qmu_ and cv_ on their way out.
  cv_.wait(lk, [&] { return callers_ == 0; });
}

void Engine::pause() {
  std::lock_guard<std::mutex> lk(qmu_);
  paused_ = true;
}

void Engine::resume() {
  std::lock_guard<std::mutex> lk(qmu_);
  paused_ = false;
  cv_.notify_all();
}

int64_t Engine::queue_depth() const {
  std::lock_guard<std::mutex> lk(qmu_);
  return static_cast<int64_t>(q_size_);
}

int64_t Engine::remaining_deadline_ms(
    int64_t deadline_ms, std::chrono::steady_clock::time_point start) {
  if (deadline_ms <= 0) return 0;
  const int64_t left = deadline_ms - elapsed_ms_since(start);
  // The wait already consumed the slack: hand the solver a minimal
  // nonzero remainder (0 would disarm the deadline), so it trips at its
  // first poll point.
  return left > 1 ? left : 1;
}

void Engine::enqueue(Request& r, std::unique_lock<std::mutex>& lk) {
  for (;;) {
    if (stopping_) {
      throw Error(ErrorCode::kCancelled, "Engine: stopping");
    }
    if (q_size_ < ring_.size()) break;
    if (cfg_.backpressure == BackpressureMode::kReject) {
      overload_rejections_.fetch_add(1, std::memory_order_relaxed);
      throw Error(ErrorCode::kOverloaded,
                  "Engine: admission queue full (capacity " +
                      std::to_string(ring_.size()) + ")");
    }
    // kBlock: the guard still applies while we wait for a slot.
    if (r.cancel.valid() && r.cancel.cancel_requested()) {
      throw Error(ErrorCode::kCancelled,
                  "Engine: cancelled while blocked on admission");
    }
    if (r.deadline_ms > 0 && elapsed_ms_since(r.submitted) >= r.deadline_ms) {
      throw Error(ErrorCode::kDeadlineExceeded,
                  "Engine: deadline expired while blocked on admission");
    }
    not_full_.wait_for(lk, std::chrono::milliseconds(1));
  }
  ring_[(q_head_ + q_size_) % ring_.size()] = &r;
  q_size_++;
  bump_hwm(queue_depth_hwm_, static_cast<int64_t>(q_size_));
  // Only a lingering pass waits for arrivals.
  if (combining_ && cfg_.coalesce_linger_us > 0) cv_.notify_all();
}

void Engine::submit_and_wait(Request& r) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  r.submitted = std::chrono::steady_clock::now();
  r.guarded = r.cancel.valid() || r.deadline_ms > 0;
  std::unique_lock<std::mutex> lk(qmu_);
  callers_++;
  try {
    enqueue(r, lk);
  } catch (...) {
    r.error = std::current_exception();
    r.done = true;
  }
  // A request that is not done and not in a running pass is still queued,
  // so a pass this caller starts serves it.
  while (!r.done) {
    if (combining_ || paused_ || stopping_) {
      cv_.wait(lk);
    } else {
      run_pass(lk);
    }
  }
  if (--callers_ == 0 && stopping_) cv_.notify_all();
  lk.unlock();  // the engine may be destroyed from here on
  if (r.error) std::rethrow_exception(r.error);
}

bool Engine::finish_if_dead(Request& r) {
  if (r.cancel.valid() && r.cancel.cancel_requested()) {
    cancelled_queued_.fetch_add(1, std::memory_order_relaxed);
    r.error = std::make_exception_ptr(
        Error(ErrorCode::kCancelled, "Engine: cancelled while queued"));
    return true;
  }
  if (r.deadline_ms > 0 && elapsed_ms_since(r.submitted) >= r.deadline_ms) {
    expired_queued_.fetch_add(1, std::memory_order_relaxed);
    r.error = std::make_exception_ptr(Error(
        ErrorCode::kDeadlineExceeded, "Engine: deadline expired while queued"));
    return true;
  }
  return false;
}

void Engine::execute_solo(Request& r) {
  // Guarded batch: one guard per solve_many call, so it runs alone.
  try {
    batch_solver_.set_cancel(r.cancel);
    batch_solver_.set_deadline_ms(
        remaining_deadline_ms(r.deadline_ms, r.submitted));
    batch_solver_.solve_many(r.queries, r.results);
  } catch (...) {
    r.error = std::current_exception();
  }
}

void Engine::run_coalesced(std::vector<Request*>& batch) {
  if (batch.empty()) return;
  coalesced_batches_.fetch_add(1, std::memory_order_relaxed);
  coalesced_queries_.fetch_add(static_cast<int64_t>(batch_queries_.size()),
                               std::memory_order_relaxed);
  bump_hwm(coalesced_batch_max_,
           static_cast<int64_t>(batch_queries_.size()));
  // Single-request batch: solve straight into the caller's spans — the
  // gather/scatter copy only pays for itself when it merges requests.
  const bool merged = batch.size() > 1;
  if (merged) batch_results_.resize(batch_queries_.size());
  std::exception_ptr err;
  try {
    PARLIS_FAILPOINT("serve.coalesce");
    // All members are guard-free by construction; make sure the shared
    // solver is too.
    batch_solver_.set_cancel(CancelToken{});
    batch_solver_.set_deadline_ms(0);
    if (merged) {
      batch_solver_.solve_many(batch_queries_, batch_results_);
    } else {
      batch_solver_.solve_many(batch[0]->queries, batch[0]->results);
    }
  } catch (...) {
    // Shared fate: the batch is one solver call, so a structured failure
    // inside it fails every request it carried.
    err = std::current_exception();
  }
  size_t off = 0;
  for (Request* r : batch) {
    if (merged && !err) {
      std::copy(batch_results_.begin() + static_cast<ptrdiff_t>(off),
                batch_results_.begin() +
                    static_cast<ptrdiff_t>(off + r->queries.size()),
                r->results.begin());
    }
    off += r->queries.size();
    r->error = err;
  }
  batch.clear();
  batch_queries_.clear();
}

int64_t Engine::drain_queue() {
  int64_t queries = 0;
  for (; q_size_ > 0; q_size_--) {
    Request* r = ring_[q_head_];
    q_head_ = (q_head_ + 1) % ring_.size();
    queries += static_cast<int64_t>(r->queries.size());
    drained_.push_back(r);
  }
  return queries;
}

void Engine::run_pass(std::unique_lock<std::mutex>& lk) {
  combining_ = true;
  int64_t batchable = drain_queue();
  // Batch linger: hold the drain open briefly so concurrent clients'
  // bursts land in ONE coalesced solve_many instead of a ragged split
  // decided by arrival order. Off by default (zero added latency); when
  // on, a lone request still pays at most the linger once.
  if (cfg_.coalesce_linger_us > 0) {
    const auto linger_end = std::chrono::steady_clock::now() +
                            std::chrono::microseconds(cfg_.coalesce_linger_us);
    while (batchable < cfg_.coalesce_max_queries &&
           drained_.size() < ring_.size()) {
      if (!cv_.wait_until(lk, linger_end,
                          [&] { return stopping_ || q_size_ > 0; }) ||
          stopping_) {
        break;  // window expired with no new arrivals, or the engine stops
      }
      batchable += drain_queue();
    }
  }
  lk.unlock();
  not_full_.notify_all();
  batch_reqs_.clear();
  batch_queries_.clear();
  for (Request* r : drained_) {
    if (finish_if_dead(*r)) continue;
    const bool coalescable =
        !r->guarded &&
        static_cast<int64_t>(r->queries.size()) <= cfg_.coalesce_max_queries;
    if (coalescable) {
      if (static_cast<int64_t>(batch_queries_.size() + r->queries.size()) >
          cfg_.coalesce_max_queries) {
        run_coalesced(batch_reqs_);  // full: flush, then start anew
      }
      batch_reqs_.push_back(r);
      batch_queries_.insert(batch_queries_.end(), r->queries.begin(),
                            r->queries.end());
    } else {
      execute_solo(*r);
    }
  }
  run_coalesced(batch_reqs_);
  lk.lock();
  for (Request* r : drained_) r->done = true;
  drained_.clear();
  combining_ = false;
  cv_.notify_all();
}

void Engine::solve(std::span<const Query> queries,
                   std::span<QueryResult> results, const RequestGuard& guard) {
  if (results.size() < queries.size()) {
    throw Error(ErrorCode::kInvalidArgument,
                "Engine::solve: |results| must be >= |queries|");
  }
  if (queries.empty()) return;
  // Checked here, not in the batch: a malformed query would otherwise fail
  // every request coalesced with it.
  for (const Query& q : queries) validate_query(q);
  Request r;
  r.queries = queries;
  r.results = results;
  r.cancel = guard.cancel;
  r.deadline_ms = guard.deadline_ms;
  submit_and_wait(r);
}

QueryResult Engine::solve_one(const Query& q, const RequestGuard& guard) {
  QueryResult res;
  solve(std::span<const Query>(&q, 1), std::span<QueryResult>(&res, 1), guard);
  return res;
}

SessionTable::Lease Engine::lease_tenant(uint64_t series,
                                         const RequestGuard& guard) {
  // The deadline's clock starts before the acquire, so waiting for the
  // tenant's current holder counts against it. A guard that trips during
  // that wait fails the verb here, before its op runs; the lease goes back
  // as the error unwinds. Guard-free verbs read no clock.
  const bool timed = guard.deadline_ms > 0;
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
  SessionTable::Lease lease = table_.acquire(series);
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (guard.cancel.cancel_requested()) {
    throw Error(ErrorCode::kCancelled,
                "Engine: cancelled while waiting for the tenant");
  }
  int64_t left = 0;
  if (timed) {
    left = guard.deadline_ms - elapsed_ms_since(start);
    if (left <= 0) {
      throw Error(ErrorCode::kDeadlineExceeded,
                  "Engine: deadline expired while waiting for the tenant");
    }
  }
  lease.solver().set_cancel(guard.cancel);
  lease.solver().set_deadline_ms(left);
  return lease;
}

int64_t Engine::append(uint64_t series, int64_t value,
                       const RequestGuard& guard) {
  SessionTable::Lease lease = lease_tenant(series, guard);
  return lease.session().append(value);
}

QueryResult Engine::solve_warm(uint64_t series, const Query& q,
                               const RequestGuard& guard) {
  validate_query(q);  // a malformed query admits no tenant
  SessionTable::Lease lease = lease_tenant(series, guard);
  QueryResult res;
  const bool hit = lease.solver().solve_query(q, res);
  if (!q.w.empty()) {
    (hit ? value_cache_hits_ : value_cache_misses_)
        .fetch_add(1, std::memory_order_relaxed);
  }
  return res;
}

Stats Engine::stats() const {
  Stats st = table_.stats();
  st.requests = requests_.load(std::memory_order_relaxed);
  st.overload_rejections =
      overload_rejections_.load(std::memory_order_relaxed);
  st.cancelled_queued = cancelled_queued_.load(std::memory_order_relaxed);
  st.expired_queued = expired_queued_.load(std::memory_order_relaxed);
  st.coalesced_batches = coalesced_batches_.load(std::memory_order_relaxed);
  st.coalesced_queries = coalesced_queries_.load(std::memory_order_relaxed);
  st.coalesced_batch_max =
      coalesced_batch_max_.load(std::memory_order_relaxed);
  st.queue_depth_hwm = queue_depth_hwm_.load(std::memory_order_relaxed);
  st.value_cache_hits = value_cache_hits_.load(std::memory_order_relaxed);
  st.value_cache_misses = value_cache_misses_.load(std::memory_order_relaxed);
  return st;
}

}  // namespace parlis::serve
