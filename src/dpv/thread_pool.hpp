#pragma once
// Minimal fork-join thread pool used by the dpv scan-model runtime.
//
// The pool supports exactly the execution shape the scan model needs:
// bulk-synchronous launches of `k` identical tasks (one per worker) with a
// join barrier.  There is deliberately no task queue or futures machinery --
// every dpv primitive is a flat data-parallel step, so the only operation we
// need is "run f(worker_index) on all workers and wait".

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "dpv/fault.hpp"

namespace dps::dpv {

/// Fixed-size fork-join worker pool.
///
/// Workers are created once and parked on a condition variable between
/// launches.  `run(k, f)` wakes `k` workers, each executes `f(i)` for its
/// worker index `i in [0, k)`, and `run` returns when all have finished.
/// The calling thread participates as worker 0, so a pool constructed with
/// `n` threads exposes `n` lanes of parallelism using `n - 1` OS threads.
class ThreadPool {
 public:
  /// Creates a pool exposing `num_threads` parallel lanes (>= 1).
  /// `num_threads == 0` selects `std::thread::hardware_concurrency()`.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of parallel lanes (including the caller's lane).
  std::size_t size() const noexcept { return lanes_; }

  /// Runs `f(i)` for each lane index `i in [0, k)` and waits for completion.
  /// `k` is clamped to `size()`.  `f` must be safe to invoke concurrently.
  /// Exceptions thrown by `f` terminate (dpv primitives do not throw from
  /// worker bodies; validation happens before the fork).
  ///
  /// `run` may be called from several threads at once (the serving engine
  /// does); concurrent launches serialize, each seeing the full pool.  A
  /// worker body must not call `run` on its own pool -- the nested launch
  /// would wait on the serialization lock its caller holds.
  void run(std::size_t k, const std::function<void(std::size_t)>& f);

  /// Arms deterministic lane-stall injection: each lane of every launch
  /// asks `inj` whether to sleep before running its task.  Stalls delay
  /// lanes (to chaos-test slow-worker schedules); they never change what a
  /// task computes.  Pass nullptr to disarm.  Arm while the pool is idle --
  /// the pointer is read by concurrent launches.
  void set_fault_injector(FaultInjector* inj) noexcept {
    fault_.store(inj, std::memory_order_release);
  }

 private:
  void worker_loop(std::size_t lane);

  std::size_t lanes_;                 // total lanes, caller included
  std::vector<std::thread> threads_;  // lanes_ - 1 helper threads

  std::atomic<FaultInjector*> fault_{nullptr};  // borrowed; null = no chaos
  std::atomic<std::uint64_t> launches_{0};      // stall-decision coordinate

  std::mutex submit_mutex_;  // serializes whole launches across callers
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t job_lanes_ = 0;     // lanes participating in current job
  std::size_t generation_ = 0;    // bumped per launch; wakes sleepers
  std::size_t outstanding_ = 0;   // helper lanes still running the job
  bool stop_ = false;
};

/// Runs `task(i)` for every `i in [0, n)` -- independent tasks, typically
/// of unequal size -- and returns when all have finished.  Runs them
/// inline, in index order, when `n <= 1` or the host reports at most one
/// hardware thread.  Otherwise the calling thread and up to
/// `min(n, hardware_concurrency()) - 1` short-lived helper threads claim
/// indexes in order from a shared cursor, so listing the largest tasks
/// first keeps the longest one off the end of the schedule.  Once a task
/// throws no further task starts, and the first exception is rethrown
/// after every started task has finished.
///
/// Helpers are created per call and run at default scheduling priority;
/// callers are the rare, heavy build paths (mount, shadow updates), never
/// the serving fan-out, which has its own pools.
void fork_join(std::size_t n, const std::function<void(std::size_t)>& task);

/// Persistent submit-and-forget worker pool for async fan-out.
///
/// Unlike the fork-join ThreadPool above there is no join: `submit`
/// enqueues a closure and returns immediately, and completion is signalled
/// through state the closure itself owns (the cluster dispatcher shares
/// its per-subrequest state via shared_ptr, so a job outliving the call
/// that submitted it is safe -- that is exactly how a late reply from a
/// stuck replica gets *dropped* instead of joined on).
///
/// Shutdown contract: the destructor discards jobs that have not started
/// and joins the workers.  A long-running job (an injected replica stall
/// or stuck-forever fault) must poll `stopping()` so teardown is never
/// wedged on chaos.
class AsyncPool {
 public:
  /// Creates `num_threads` workers (>= 1; 0 is clamped to 1).
  explicit AsyncPool(std::size_t num_threads);
  ~AsyncPool();

  AsyncPool(const AsyncPool&) = delete;
  AsyncPool& operator=(const AsyncPool&) = delete;

  std::size_t size() const noexcept { return threads_.size(); }

  /// Enqueues `job` for execution on some worker, FIFO.  Never blocks on
  /// job execution; jobs submitted after shutdown began are dropped.
  void submit(std::function<void()> job);

  /// Median wall-clock microseconds of 16 no-op submit-and-wait round
  /// trips: the fixed cost a job pays before it starts.  Each trip finds
  /// the pool idle for a millisecond, as between a client's batches (back
  /// to back, a trip finds its worker still awake and reads about a third
  /// of that).  Blocks for about 16 ms.
  double round_trip_us();

  /// True once destruction began; long-running jobs poll this.
  bool stopping() const noexcept {
    return stop_.load(std::memory_order_acquire);
  }

 private:
  void worker_loop();

  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
};

}  // namespace dps::dpv
