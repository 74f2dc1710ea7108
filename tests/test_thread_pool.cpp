#include "dpv/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace dps::dpv {
namespace {

TEST(ThreadPool, SingleLanePoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  int hits = 0;
  pool.run(1, [&](std::size_t lane) {
    EXPECT_EQ(lane, 0u);
    ++hits;
  });
  EXPECT_EQ(hits, 1);
}

TEST(ThreadPool, AllLanesParticipate) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.run(4, [&](std::size_t lane) { hits[lane]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, LaneCountClampedToPoolSize) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  pool.run(100, [&](std::size_t lane) {
    EXPECT_LT(lane, 3u);
    total++;
  });
  EXPECT_EQ(total.load(), 3);
}

TEST(ThreadPool, PartialLaunchLeavesOtherLanesIdle) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.run(2, [&](std::size_t lane) {
    EXPECT_LT(lane, 2u);
    total++;
  });
  EXPECT_EQ(total.load(), 2);
}

TEST(ThreadPool, ManySequentialLaunches) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> sum{0};
  for (int round = 0; round < 200; ++round) {
    pool.run(4, [&](std::size_t lane) { sum += static_cast<int>(lane) + 1; });
  }
  EXPECT_EQ(sum.load(), 200 * (1 + 2 + 3 + 4));
}

TEST(ThreadPool, ZeroLaneRunIsNoop) {
  ThreadPool pool(2);
  pool.run(0, [&](std::size_t) { FAIL() << "no lane should run"; });
}

TEST(ThreadPool, DefaultSizeUsesHardwareConcurrency) {
  ThreadPool pool;  // smoke: constructs, runs, destructs
  std::atomic<int> total{0};
  pool.run(pool.size(), [&](std::size_t) { total++; });
  EXPECT_EQ(static_cast<std::size_t>(total.load()), pool.size());
}

TEST(ThreadPool, SingleLanePoolClampsOversizedLaunch) {
  ThreadPool pool(1);
  std::atomic<int> total{0};
  pool.run(64, [&](std::size_t lane) {
    EXPECT_EQ(lane, 0u);
    total++;
  });
  EXPECT_EQ(total.load(), 1);
}

// The serving engine issues launches from several driver threads at once;
// concurrent run() callers must serialize, each seeing a complete launch.
TEST(ThreadPool, ConcurrentRunCallersSerializeCorrectly) {
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr int kRounds = 100;
  std::atomic<std::int64_t> sum{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        pool.run(4, [&](std::size_t lane) {
          sum += static_cast<std::int64_t>(lane) + 1;
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(sum.load(), std::int64_t{kCallers} * kRounds * (1 + 2 + 3 + 4));
}

// Concurrent callers with *different* lane counts: each launch must see
// exactly its own k, never a neighbor's.
TEST(ThreadPool, ConcurrentMixedWidthLaunches) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> narrow{0}, wide{0};
  std::thread a([&] {
    for (int r = 0; r < 150; ++r) {
      pool.run(2, [&](std::size_t lane) {
        EXPECT_LT(lane, 2u);
        narrow++;
      });
    }
  });
  std::thread b([&] {
    for (int r = 0; r < 150; ++r) {
      pool.run(4, [&](std::size_t lane) {
        EXPECT_LT(lane, 4u);
        wide++;
      });
    }
  });
  a.join();
  b.join();
  EXPECT_EQ(narrow.load(), 150 * 2);
  EXPECT_EQ(wide.load(), 150 * 4);
}

TEST(ThreadPool, DestructionWhileWorkersParked) {
  // Workers that have never run, and workers parked after a launch, must
  // both shut down cleanly.
  { ThreadPool pool(4); }  // never launched
  {
    ThreadPool pool(4);
    std::atomic<int> total{0};
    pool.run(4, [&](std::size_t) { total++; });
    EXPECT_EQ(total.load(), 4);
    // Give a worker a chance to be mid-repark when the destructor fires.
    std::this_thread::yield();
  }
  // Rapid create/launch/destroy churn.
  for (int i = 0; i < 20; ++i) {
    ThreadPool pool(3);
    std::atomic<int> total{0};
    pool.run(3, [&](std::size_t) { total++; });
    EXPECT_EQ(total.load(), 3);
  }
}

TEST(ThreadPool, ForkJoinRunsEveryTaskOnce) {
  for (const std::size_t n : {0u, 1u, 2u, 7u, 64u}) {
    std::vector<std::atomic<int>> hits(n);
    fork_join(n, [&](std::size_t i) { hits[i]++; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "n = " << n;
  }
}

// Helpers claim tasks in index order, so the first `lanes` tasks start
// together: with at least two hardware threads, task 0 can wait for task 1
// to start (a serial schedule would deadlock here, hence the time bound).
TEST(ThreadPool, ForkJoinRunsTasksSideBySide) {
  if (std::thread::hardware_concurrency() <= 1) {
    GTEST_SKIP() << "one hardware thread: fork_join runs inline";
  }
  std::atomic<bool> second_started{false};
  bool overlapped = false;
  fork_join(2, [&](std::size_t i) {
    if (i == 1) {
      second_started.store(true);
      return;
    }
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!second_started.load() && std::chrono::steady_clock::now() < until) {
      std::this_thread::yield();
    }
    overlapped = second_started.load();
  });
  EXPECT_TRUE(overlapped);
}

// A throwing task surfaces as the call's exception, after the tasks that
// already started have finished; the first failure stops the rest.
TEST(ThreadPool, ForkJoinRethrowsAfterJoin) {
  for (const std::size_t n : {1u, 3u, 16u}) {
    std::atomic<int> finished{0};
    EXPECT_THROW(fork_join(n,
                           [&](std::size_t i) {
                             if (i == 0) throw std::runtime_error("task 0");
                             std::this_thread::sleep_for(
                                 std::chrono::milliseconds(1));
                             finished.fetch_add(1);
                           }),
                 std::runtime_error);
    // Nothing runs behind the caller's back once fork_join returned.
    const int settled = finished.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(finished.load(), settled) << "n = " << n;
    EXPECT_LT(settled, static_cast<int>(n)) << "n = " << n;
  }
}

TEST(AsyncPool, RunsEverySubmittedJob) {
  AsyncPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) {
    pool.submit([&] { ran.fetch_add(1); });
  }
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (ran.load() < 32 && std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(AsyncPool, ZeroThreadsClampsToOne) {
  AsyncPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<bool> ran{false};
  pool.submit([&] { ran.store(true); });
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!ran.load() && std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_TRUE(ran.load());
}

// The measured handoff is a positive, sub-second wall time, and the pool
// keeps serving jobs after its probe trips.
TEST(AsyncPool, RoundTripIsMeasuredAndPoolStillServes) {
  AsyncPool pool(2);
  const double rt = pool.round_trip_us();
  EXPECT_GT(rt, 0.0);
  EXPECT_LT(rt, 1e6);
  std::atomic<bool> ran{false};
  pool.submit([&] { ran.store(true); });
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!ran.load() && std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_TRUE(ran.load());
}

// The destructor discards jobs still waiting in the queue and only joins
// the running ones -- a wedged-looking job that polls stopping() cannot
// wedge shutdown, and nothing queued behind it ever starts.
TEST(AsyncPool, DestructorDiscardsQueueAndInterruptsViaStopping) {
  std::atomic<bool> queued_ran{false};
  std::atomic<bool> long_job_started{false};
  {
    AsyncPool pool(1);
    pool.submit([&] {
      long_job_started.store(true);
      while (!pool.stopping()) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
    while (!long_job_started.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    for (int i = 0; i < 8; ++i) {
      pool.submit([&] { queued_ran.store(true); });
    }
    // ~AsyncPool: clears the queue, flips stopping(), joins the worker.
  }
  EXPECT_FALSE(queued_ran.load())
      << "jobs still queued at shutdown must be dropped, not run";
}

TEST(ThreadPool, UnevenLaneDurationsStillJoin) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  pool.run(4, [&](std::size_t lane) {
    if (lane == 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    done++;
  });
  // run() returning proves the join barrier held for the slow lane.
  EXPECT_EQ(done.load(), 4);
}

}  // namespace
}  // namespace dps::dpv
