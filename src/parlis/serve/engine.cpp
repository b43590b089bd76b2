#include "parlis/serve/engine.hpp"

#include <algorithm>
#include <exception>
#include <utility>

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
  // Dispatcher scratch sized up front, so warm drains never allocate.
  // 2x: a linger window can top the first drain up with a second full ring.
  drained_.reserve(2 * ring_.size());
  batch_reqs_.reserve(ring_.size());
  batch_queries_.reserve(static_cast<size_t>(cfg_.coalesce_max_queries));
  batch_results_.reserve(static_cast<size_t>(cfg_.coalesce_max_queries));
  paused_ = cfg_.start_paused;
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

Engine::~Engine() {
  {
    std::lock_guard<std::mutex> lk(qmu_);
    stopping_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  dispatcher_.join();
}

void Engine::pause() {
  std::lock_guard<std::mutex> lk(qmu_);
  paused_ = true;
}

void Engine::resume() {
  {
    std::lock_guard<std::mutex> lk(qmu_);
    paused_ = false;
  }
  not_empty_.notify_all();
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

void Engine::complete(Request& r, std::exception_ptr err) {
  // Notify UNDER the lock: the Request (and its cv) lives on the caller's
  // stack and is destroyed the moment the caller observes done — which it
  // cannot do before this lock is released, so the signal always lands on
  // a live condition variable.
  std::lock_guard<std::mutex> lk(r.mu);
  r.error = std::move(err);
  r.done = true;
  r.cv.notify_one();
}

void Engine::enqueue(Request& r) {
  std::unique_lock<std::mutex> lk(qmu_);
  while (q_size_ >= ring_.size()) {
    if (stopping_) {
      throw Error(ErrorCode::kCancelled, "Engine: stopping");
    }
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
  lk.unlock();
  not_empty_.notify_one();
}

void Engine::submit_and_wait(Request& r) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  r.submitted = std::chrono::steady_clock::now();
  r.guarded = r.cancel.valid() || r.deadline_ms > 0;
  enqueue(r);
  std::unique_lock<std::mutex> lk(r.mu);
  r.cv.wait(lk, [&] { return r.done; });
  if (r.error) std::rethrow_exception(r.error);
}

bool Engine::finish_if_dead(Request& r) {
  if (r.cancel.valid() && r.cancel.cancel_requested()) {
    cancelled_queued_.fetch_add(1, std::memory_order_relaxed);
    complete(r, std::make_exception_ptr(Error(
                    ErrorCode::kCancelled, "Engine: cancelled while queued")));
    return true;
  }
  if (r.deadline_ms > 0 && elapsed_ms_since(r.submitted) >= r.deadline_ms) {
    expired_queued_.fetch_add(1, std::memory_order_relaxed);
    complete(r, std::make_exception_ptr(
                    Error(ErrorCode::kDeadlineExceeded,
                          "Engine: deadline expired while queued")));
    return true;
  }
  return false;
}

void Engine::execute_solo(Request& r) {
  // Guarded batch: one guard per solve_many call, so it runs alone.
  std::exception_ptr err;
  try {
    batch_solver_.set_cancel(r.cancel);
    batch_solver_.set_deadline_ms(
        remaining_deadline_ms(r.deadline_ms, r.submitted));
    batch_solver_.solve_many(r.queries, r.results);
  } catch (...) {
    err = std::current_exception();
  }
  complete(r, std::move(err));
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
    complete(*r, err);
  }
  batch.clear();
  batch_queries_.clear();
}

void Engine::dispatcher_loop() {
  for (;;) {
    bool stop_after_drain = false;
    {
      std::unique_lock<std::mutex> lk(qmu_);
      not_empty_.wait(lk, [&] {
        return stopping_ || (q_size_ > 0 && !paused_);
      });
      stop_after_drain = stopping_;
      drained_.clear();
      while (q_size_ > 0) {
        drained_.push_back(ring_[q_head_]);
        q_head_ = (q_head_ + 1) % ring_.size();
        q_size_--;
      }
      // Batch linger: hold the drain open briefly so concurrent clients'
      // bursts land in ONE coalesced solve_many instead of a ragged split
      // decided by wake-up order. Off by default (zero added latency);
      // when on, a lone request still pays at most the linger once.
      if (!stop_after_drain && cfg_.coalesce_linger_us > 0) {
        const auto linger_end =
            std::chrono::steady_clock::now() +
            std::chrono::microseconds(cfg_.coalesce_linger_us);
        int64_t batchable = 0;
        for (const Request* r : drained_) {
          batchable += static_cast<int64_t>(r->queries.size());
        }
        while (batchable < cfg_.coalesce_max_queries &&
               drained_.size() < ring_.size()) {
          if (!not_empty_.wait_until(lk, linger_end,
                                     [&] { return stopping_ || q_size_ > 0; })) {
            break;  // window expired with no new arrivals
          }
          if (stopping_) {
            stop_after_drain = true;
            break;
          }
          while (q_size_ > 0) {
            batchable += static_cast<int64_t>(ring_[q_head_]->queries.size());
            drained_.push_back(ring_[q_head_]);
            q_head_ = (q_head_ + 1) % ring_.size();
            q_size_--;
          }
        }
      }
    }
    not_full_.notify_all();
    if (stop_after_drain) {
      // Fail whatever was still queued; enqueue() refuses new work once
      // stopping_ is up, so this is the final sweep.
      for (Request* r : drained_) {
        complete(*r, std::make_exception_ptr(
                         Error(ErrorCode::kCancelled, "Engine: stopping")));
      }
      return;
    }
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
  }
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
  // The guard's clock starts before the acquire, so waiting for the
  // tenant's current holder counts against the deadline.
  const auto start = std::chrono::steady_clock::now();
  SessionTable::Lease lease = table_.acquire(series);
  requests_.fetch_add(1, std::memory_order_relaxed);
  lease.solver().set_cancel(guard.cancel);
  lease.solver().set_deadline_ms(
      remaining_deadline_ms(guard.deadline_ms, start));
  return lease;
}

int64_t Engine::append(uint64_t series, int64_t value,
                       const RequestGuard& guard) {
  SessionTable::Lease lease = lease_tenant(series, guard);
  return lease.session().append(value);
}

QueryResult Engine::solve_warm(uint64_t series, const Query& q,
                               const RequestGuard& guard) {
  validate_query(q);  // the results below copy |a| values into the spans
  SessionTable::Lease lease = lease_tenant(series, guard);
  Solver& s = lease.solver();
  QueryResult res;
  if (q.w.empty()) {
    LisResult& out = lease.lis_out();
    s.solve_lis(q.a, out);
    res.k = out.k;
    res.best = out.k;
    if (!q.rank_out.empty()) {
      std::copy(out.rank.begin(), out.rank.end(), q.rank_out.begin());
    }
  } else {
    WlisResult& out = lease.wlis_out();
    const bool hit = s.solve_wlis(q.a, q.w, out);
    (hit ? value_cache_hits_ : value_cache_misses_)
        .fetch_add(1, std::memory_order_relaxed);
    res.k = out.k;
    res.best = out.best;
    if (!q.dp_out.empty()) {
      std::copy(out.dp.begin(), out.dp.end(), q.dp_out.begin());
    }
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
