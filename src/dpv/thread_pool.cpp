#include "dpv/thread_pool.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <exception>
#include <system_error>

namespace dps::dpv {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  lanes_ = num_threads;
  threads_.reserve(lanes_ > 0 ? lanes_ - 1 : 0);
  for (std::size_t lane = 1; lane < lanes_; ++lane) {
    threads_.emplace_back([this, lane] { worker_loop(lane); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::run(std::size_t k, const std::function<void(std::size_t)>& f) {
  k = std::min(k, lanes_);
  // Chaos hook: when armed, each lane of this launch asks the injector for
  // a (deterministic) stall before running its task slice.
  FaultInjector* const inj = fault_.load(std::memory_order_acquire);
  const std::uint64_t launch =
      inj != nullptr ? launches_.fetch_add(1, std::memory_order_relaxed) : 0;
  const std::function<void(std::size_t)>* body = &f;
  std::function<void(std::size_t)> stalled;
  if (inj != nullptr) {
    stalled = [inj, launch, &f](std::size_t lane) {
      const auto stall = inj->lane_stall(lane, launch);
      if (stall.count() > 0) {
        inj->note_lane_stall();
        std::this_thread::sleep_for(stall);
      }
      f(lane);
    };
    body = &stalled;
  }
  if (k <= 1) {  // no helpers needed; run inline
    if (k == 1) (*body)(0);
    return;
  }
  // One launch at a time: concurrent callers queue here, so the
  // job_/generation_/outstanding_ handshake below always describes exactly
  // one job.
  std::lock_guard<std::mutex> submit(submit_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = body;
    job_lanes_ = k;
    outstanding_ = k - 1;  // helper lanes 1..k-1
    ++generation_;
  }
  start_cv_.notify_all();
  (*body)(0);  // caller is lane 0
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return outstanding_ == 0; });
  job_ = nullptr;
}

void ThreadPool::worker_loop(std::size_t lane) {
  std::size_t seen_generation = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] {
        return stop_ || (generation_ != seen_generation && job_ != nullptr);
      });
      if (stop_) return;
      seen_generation = generation_;
      if (lane >= job_lanes_) continue;  // not participating in this launch
      job = job_;
    }
    (*job)(lane);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--outstanding_ == 0) done_cv_.notify_one();
    }
  }
}

void fork_join(std::size_t n, const std::function<void(std::size_t)>& task) {
  const std::size_t hw = std::thread::hardware_concurrency();
  if (n <= 1 || hw <= 1) {
    for (std::size_t i = 0; i < n; ++i) task(i);
    return;
  }
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto drain = [&] {
    while (!failed.load(std::memory_order_acquire)) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        task(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (error == nullptr) error = std::current_exception();
        failed.store(true, std::memory_order_release);
      }
    }
  };
  const std::size_t lanes = std::min(n, hw);
  std::vector<std::thread> helpers;
  helpers.reserve(lanes - 1);
  try {
    while (helpers.size() + 1 < lanes) helpers.emplace_back(drain);
  } catch (const std::system_error&) {
    // Out of threads: the caller and the helpers already started drain
    // every task between them.
  }
  drain();
  for (std::thread& t : helpers) t.join();
  if (error != nullptr) std::rethrow_exception(error);
}

AsyncPool::AsyncPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

AsyncPool::~AsyncPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_.store(true, std::memory_order_release);
    queue_.clear();  // not-yet-started jobs are discarded, never run
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void AsyncPool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_.load(std::memory_order_acquire)) return;
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

double AsyncPool::round_trip_us() {
  using Clock = std::chrono::steady_clock;
  std::array<double, 16> trips{};
  std::mutex m;
  std::condition_variable cv;
  std::size_t done = 0;
  for (std::size_t i = 0; i < trips.size(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const auto t0 = Clock::now();
    submit([&] {
      std::lock_guard<std::mutex> lk(m);
      ++done;
      cv.notify_one();
    });
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return done > i; });
    trips[i] =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  }
  std::nth_element(trips.begin(), trips.begin() + 8, trips.end());
  return trips[8];
}

void AsyncPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_relaxed) || !queue_.empty();
      });
      if (stop_.load(std::memory_order_relaxed)) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

}  // namespace dps::dpv
