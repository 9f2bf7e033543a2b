/// \file shard_runtime.h
/// \brief The sharding runtime under the stream and delta engines
/// (docs/ARCHITECTURE.md "Shard runtime"): Push (window wait, seq stamp,
/// route) -> a BoundedQueue ring per shard -> a worker per ring
/// (PopBatch -> work) -> Complete, which applies results strictly in seq
/// order under the one merge lock. At most `num_shards * queue_capacity`
/// jobs are in flight, which bounds the reorder buffer. The seq is
/// stamped after the window wait: the window frees only as smaller seqs
/// complete, so a producer parked while holding one could starve
/// completion. Push may run on several threads; Close must not race it.

#ifndef CERTFIX_STREAM_SHARD_RUNTIME_H_
#define CERTFIX_STREAM_SHARD_RUNTIME_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "stream/bounded_queue.h"
#include "util/thread_pool.h"

namespace certfix {

/// \brief Rings, workers and ordered completion over `Job` and `Result`,
/// both carrying a `uint64_t seq` (stamped by Push, echoed by the worker).
template <typename Job, typename Result>
class ShardRuntime {
 public:
  /// `num_shards` 0 = one per hardware thread, capped like ParallelFor at
  /// max(16, 2x hardware); capacity (slots per ring) and `max_batch`
  /// (most jobs one PopBatch hands a worker) are at least 1.
  ShardRuntime(size_t num_shards, size_t queue_capacity, size_t max_batch)
      : shards_(std::min(num_shards == 0 ? DefaultParallelism() : num_shards,
                         std::max<size_t>(16, 2 * DefaultParallelism()))),
        capacity_(std::max<size_t>(1, queue_capacity)),
        max_batch_(std::max<size_t>(1, max_batch)) {}
  ~ShardRuntime() { Close(); }
  ShardRuntime(const ShardRuntime&) = delete;
  ShardRuntime& operator=(const ShardRuntime&) = delete;

  /// Creates the rings and a worker per ring that calls `work(shard,
  /// std::vector<Job>&)` per popped batch and reports results through
  /// Complete; an exception escaping `work` fails the runtime. Past
  /// thread exhaustion the unserved rings go (std::system_error if no
  /// worker started). Once, before any Push.
  template <typename Work>
  void Start(Work work) {
    for (size_t s = 0; s < shards_; ++s) {
      rings_.push_back(std::make_unique<BoundedQueue<Job>>(capacity_));
    }
    try {
      for (size_t s = 0; s < shards_; ++s) {
        BoundedQueue<Job>* ring = rings_[s].get();
        workers_.emplace_back([this, s, ring, work]() mutable {
          try {
            std::vector<Job> batch;
            while (ring->PopBatch(&batch, max_batch_) > 0) {
              work(s, batch);
              batch.clear();
            }
          } catch (...) {
            Fail(std::current_exception());
          }
        });
      }
    } catch (const std::system_error&) {
      if (workers_.empty()) throw;
      rings_.resize(workers_.size());  // no job queued yet: nothing races
    }
    window_ = static_cast<uint64_t>(rings_.size()) * capacity_;
  }

  /// Admits `job` (window wait, seq stamp) onto ring `route(job) %
  /// num_shards()`, blocking while that ring is full. False — job
  /// dropped — before Start and once failed or closed.
  template <typename Route>
  bool Push(Job job, Route&& route) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (failed_ || closed_ || rings_.empty()) return false;
      if (in_flight_ >= window_) {
        ++window_waits_;
        progress_.wait(lock,
                       [this] { return in_flight_ < window_ || failed_; });
        if (failed_) return false;
      }
      job.seq = next_seq_++;
      ++in_flight_;
    }
    const size_t shard = rings_.size() == 1 ? 0 : route(job) % rings_.size();
    if (rings_[shard]->Push(std::move(job))) return true;
    std::lock_guard<std::mutex> lock(mutex_);  // a worker failed mid-push
    --in_flight_;
    return false;
  }

  /// Hands in one result; results reach `apply(Result&)` strictly in seq
  /// order, under the merge lock.
  template <typename Apply>
  void Complete(Result result, Apply&& apply) {
    std::lock_guard<std::mutex> lock(mutex_);
    max_reorder_ = std::max<uint64_t>(max_reorder_, pending_.size() + 1);
    if (result.seq != next_done_) {
      const uint64_t seq = result.seq;
      pending_.emplace(seq, std::move(result));
      return;
    }
    apply(result);
    uint64_t done = 1;
    ++next_done_;
    while (!pending_.empty() && pending_.begin()->first == next_done_) {
      apply(pending_.begin()->second);
      pending_.erase(pending_.begin());
      ++next_done_;
      ++done;
    }
    in_flight_ -= done;
    progress_.notify_all();
  }

  /// Records `error` (the first wins), stops admission, and wakes every
  /// producer parked on the window or a full ring (Push returns false).
  void Fail(std::exception_ptr error) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::move(error);
      failed_ = true;
    }
    progress_.notify_all();
    for (auto& ring : rings_) ring->Close();
  }

  /// Waits until every admitted job completed, or the runtime failed.
  void Drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    progress_.wait(lock, [this] { return in_flight_ == 0 || failed_; });
  }

  /// Stops admission, lets the workers drain their rings, joins them.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    for (auto& ring : rings_) ring->Close();
    for (std::thread& w : workers_) {
      if (w.joinable()) w.join();
    }
  }

  /// The first recorded error, cleared by the call; null if none.
  std::exception_ptr TakeError() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(first_error_, nullptr);
  }
  bool failed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return failed_;
  }
  /// The merge lock, for callers sharing state with their apply functor.
  [[nodiscard]] std::unique_lock<std::mutex> LockMerge() {
    return std::unique_lock<std::mutex>(mutex_);
  }

  size_t num_shards() const { return rings_.size(); }
  /// High-water mark of the reorder buffer.
  uint64_t max_reorder() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return max_reorder_;
  }
  /// Pushes that blocked on the window or on a full ring.
  uint64_t backpressure_waits() const {
    uint64_t waits = 0;
    for (const auto& ring : rings_) waits += ring->blocked_pushes();
    std::lock_guard<std::mutex> lock(mutex_);
    return waits + window_waits_;
  }

 private:
  const size_t shards_;
  const size_t capacity_;
  const size_t max_batch_;
  std::vector<std::unique_ptr<BoundedQueue<Job>>> rings_;

  mutable std::mutex mutex_;  ///< window, reorder buffer, failure state
  std::condition_variable progress_;  ///< window opens / jobs complete
  std::map<uint64_t, Result> pending_;
  uint64_t next_seq_ = 0;   ///< next seq to stamp
  uint64_t next_done_ = 0;  ///< next seq to apply
  uint64_t in_flight_ = 0;  ///< stamped, not yet applied
  uint64_t window_ = 0;
  uint64_t max_reorder_ = 0;
  uint64_t window_waits_ = 0;
  bool failed_ = false;
  bool closed_ = false;
  std::exception_ptr first_error_;
  std::vector<std::thread> workers_;  ///< last: uses everything above
};

}  // namespace certfix

#endif  // CERTFIX_STREAM_SHARD_RUNTIME_H_
