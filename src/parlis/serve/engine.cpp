#include "parlis/serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "parlis/util/error.hpp"
#include "parlis/util/exec_context.hpp"
#include "parlis/util/failpoint.hpp"

namespace parlis::serve {

namespace {

// The batch solver carries no guard of its own: each request brings its
// caller's scope.
Options unguarded(Options o) {
  o.cancel = CancelToken{};
  o.deadline_ms = 0;
  return o;
}

void bump_hwm(std::atomic<int64_t>& hwm, int64_t v) {
  int64_t cur = hwm.load(std::memory_order_relaxed);
  while (v > cur &&
         !hwm.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Engine::Engine(const EngineConfig& cfg)
    : table_(cfg.table),
      batch_solver_(unguarded(cfg.table.solver)),
      cfg_(cfg) {
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
    // kBlock: the caller's scope still applies while it waits for a slot.
    internal::poll_cancellation();
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
  r.scope = internal::tl_exec_context;
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
  if (r.scope == nullptr) return false;
  try {
    r.scope->check();
    return false;
  } catch (const Error& e) {
    (e.code() == ErrorCode::kCancelled ? cancelled_queued_ : expired_queued_)
        .fetch_add(1, std::memory_order_relaxed);
    r.error = std::current_exception();
    return true;
  }
}

void Engine::execute_solo(Request& r) {
  // One scope per solve_many call, so a request with one runs alone, under
  // it; the batch solver's own (empty) scope leaves it visible.
  internal::ScopeSwap scope(r.scope);
  try {
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
  batch_results_.resize(batch_queries_.size());
  std::exception_ptr err;
  // Every member is guard-free, so the batch runs under no scope: the
  // combiner's own never reaches the requests it serves.
  internal::ScopeSwap scope(nullptr);
  try {
    PARLIS_FAILPOINT("serve.coalesce");
    batch_solver_.solve_many(batch_queries_, batch_results_);
  } catch (...) {
    // Shared fate: the batch is one solver call, so a structured failure
    // inside it fails every request it carried.
    err = std::current_exception();
  }
  auto from = batch_results_.begin();
  for (Request* r : batch) {
    const auto to = from + static_cast<ptrdiff_t>(r->queries.size());
    if (!err) std::copy(from, to, r->results.begin());
    from = to;
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
        r->scope == nullptr &&
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
  internal::CancelScope scope(guard.cancel, guard.deadline_ms);
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
  submit_and_wait(r);
}

QueryResult Engine::solve_one(const Query& q, const RequestGuard& guard) {
  QueryResult res;
  solve(std::span<const Query>(&q, 1), std::span<QueryResult>(&res, 1), guard);
  return res;
}

SessionTable::Lease Engine::lease_tenant(uint64_t series) {
  // The acquire's wait polls the verb's scope. One that trips between the
  // wait and here fails the verb before its op runs; the lease goes back
  // as the error unwinds.
  SessionTable::Lease lease = table_.acquire(series);
  requests_.fetch_add(1, std::memory_order_relaxed);
  internal::poll_cancellation();
  return lease;
}

int64_t Engine::append(uint64_t series, int64_t value,
                       const RequestGuard& guard) {
  internal::CancelScope scope(guard.cancel, guard.deadline_ms);
  SessionTable::Lease lease = lease_tenant(series);
  return lease.session().append(value);
}

QueryResult Engine::solve_warm(uint64_t series, const Query& q,
                               const RequestGuard& guard) {
  internal::CancelScope scope(guard.cancel, guard.deadline_ms);
  validate_query(q);  // a malformed query admits no tenant
  SessionTable::Lease lease = lease_tenant(series);
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
