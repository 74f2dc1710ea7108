// Per-replica circuit breakers: the state machine itself, and the
// cluster-level behaviour -- open breakers skip a sick replica entirely
// (degrading exactly), warm cache entries keep serving while a shard's
// breaker is open, and a healed replica is readmitted through a half-open
// probe.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "core/core.hpp"
#include "data/mapgen.hpp"
#include "serve/breaker.hpp"
#include "serve/cluster.hpp"
#include "test_util.hpp"

namespace dps::serve {
namespace {

using State = CircuitBreaker::State;
using Gate = CircuitBreaker::Gate;

BreakerOptions on_options() {
  BreakerOptions bo;
  bo.enabled = true;
  bo.failure_threshold = 3;
  bo.cooldown = std::chrono::microseconds(10'000);
  return bo;
}

TEST(CircuitBreakerTest, DisabledNeverOpens) {
  CircuitBreaker cb(BreakerOptions{});  // enabled = false
  const auto now = CircuitBreaker::Clock::now();
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(cb.on_failure(now));
    EXPECT_EQ(cb.admit(now), Gate::kDispatch);
  }
  EXPECT_EQ(cb.state(), State::kClosed);
}

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailuresOnly) {
  CircuitBreaker cb(on_options());
  auto now = CircuitBreaker::Clock::now();
  EXPECT_FALSE(cb.on_failure(now));
  EXPECT_FALSE(cb.on_failure(now));
  cb.on_success();  // breaks the streak
  EXPECT_EQ(cb.consecutive_failures(), 0u);
  EXPECT_FALSE(cb.on_failure(now));
  EXPECT_FALSE(cb.on_failure(now));
  EXPECT_EQ(cb.state(), State::kClosed);
  EXPECT_TRUE(cb.on_failure(now)) << "third consecutive failure trips";
  EXPECT_EQ(cb.state(), State::kOpen);
  EXPECT_EQ(cb.admit(now), Gate::kSkip);
}

TEST(CircuitBreakerTest, HalfOpenAdmitsOneProbeThenCloses) {
  CircuitBreaker cb(on_options());
  auto now = CircuitBreaker::Clock::now();
  for (int i = 0; i < 3; ++i) cb.on_failure(now);
  ASSERT_EQ(cb.state(), State::kOpen);

  // Inside the cooldown: skip.  After it: exactly one probe.
  EXPECT_EQ(cb.admit(now + std::chrono::microseconds(1)), Gate::kSkip);
  const auto later = now + std::chrono::microseconds(20'000);
  EXPECT_EQ(cb.admit(later), Gate::kProbe);
  EXPECT_EQ(cb.state(), State::kHalfOpen);
  EXPECT_EQ(cb.admit(later), Gate::kSkip) << "one probe in flight at a time";

  EXPECT_TRUE(cb.on_success()) << "probe success closes the breaker";
  EXPECT_EQ(cb.state(), State::kClosed);
  EXPECT_EQ(cb.admit(later), Gate::kDispatch);
}

TEST(CircuitBreakerTest, ProbeFailureReopens) {
  CircuitBreaker cb(on_options());
  auto now = CircuitBreaker::Clock::now();
  for (int i = 0; i < 3; ++i) cb.on_failure(now);
  const auto later = now + std::chrono::microseconds(20'000);
  ASSERT_EQ(cb.admit(later), Gate::kProbe);
  EXPECT_TRUE(cb.on_failure(later)) << "probe failure reopens";
  EXPECT_EQ(cb.state(), State::kOpen);
  // The quarantine clock restarted: still skipping within the cooldown.
  EXPECT_EQ(cb.admit(later + std::chrono::microseconds(1)), Gate::kSkip);
  // A late failure from a pre-trip subrequest keeps it open (no double
  // "open transition" reported).
  EXPECT_FALSE(cb.on_failure(later));
}

// --- cluster-level behaviour ---

constexpr double kWorld = 1024.0;

ClusterMountOptions mount_options() {
  ClusterMountOptions mo;
  mo.world = kWorld;
  mo.quad.max_depth = 10;
  mo.quad.bucket_capacity = 4;
  mo.rtree.m = 2;
  mo.rtree.M = 8;
  return mo;
}

/// A request that routes to replica 0 and nowhere else.
Request shard0_window(const serve::Cluster& cluster, double pad = 10.0) {
  const geom::Point c = cluster.plan().footprints[0].center();
  return Request::window_query(IndexKind::kQuadTree,
                               {c.x - pad, c.y - pad, c.x + pad, c.y + pad});
}

struct BreakerClusterRig {
  dpv::FaultInjector inject;
  std::unique_ptr<serve::Cluster> cluster;
  std::vector<geom::Segment> lines;

  BreakerClusterRig(bool cache_on, bool crash_from_start,
                    std::chrono::microseconds cooldown) {
    lines = data::uniform_segments(300, kWorld, 22.0, 911);
    dpv::FaultSchedule s;
    s.seed = test::chaos_seed(81);
    s.replica_fault_mask = 1u;
    if (crash_from_start) s.replica_crash_rate = 1.0;
    inject.set_schedule(s);

    ClusterOptions co;
    co.shards = 4;
    co.cache.enabled = cache_on;
    co.engine.shards = 2;
    co.engine.threads = 1;
    co.replica_fault_injectors = {&inject};
    co.breaker.enabled = true;
    co.breaker.failure_threshold = 2;
    co.breaker.cooldown = cooldown;
    cluster = std::make_unique<serve::Cluster>(co);
    cluster->mount(lines, mount_options());
  }

  void crash_replica0() {
    dpv::FaultSchedule s = inject.schedule();
    s.replica_crash_rate = 1.0;
    inject.set_schedule(s);
  }
  void heal_replica0() {
    dpv::FaultSchedule s = inject.schedule();
    s.replica_crash_rate = 0.0;
    inject.set_schedule(s);
  }
};

// Consecutive crashes trip replica 0's breaker; once open, its
// subrequests are skipped outright (no more crash dispatches) and every
// answer still settles exactly through the shard generation's oracle.
TEST(ClusterBreaker, OpensAfterCrashesThenSkipsAndDegradesExactly) {
  // A long cooldown so the breaker cannot slip into half-open mid-test.
  BreakerClusterRig rig(/*cache_on=*/false, /*crash_from_start=*/true,
                        std::chrono::seconds(10));
  const Request rq = shard0_window(*rig.cluster);

  dpv::Context ctx;
  core::PmrBuildOptions po = mount_options().quad;
  po.world = kWorld;
  const core::QuadTree oracle = core::pmr_build(ctx, rig.lines, po).tree;
  const auto want = core::window_query(oracle, rq.window);

  for (int i = 0; i < 6; ++i) {
    const auto responses = rig.cluster->serve({rq});
    ASSERT_EQ(responses[0].status, Status::kOk) << "batch " << i;
    EXPECT_EQ(responses[0].ids, want) << "batch " << i;
  }
  const ClusterMetrics m = rig.cluster->metrics();
  EXPECT_EQ(m.ok, 6u);
  EXPECT_EQ(m.degraded_fallback, 6u)
      << "crashed and skipped batches all settle via the oracle";
  EXPECT_EQ(m.breaker_open_transitions, 1u);
  EXPECT_EQ(m.replica_crashes, 2u)
      << "after the second crash the breaker stops dispatching";
  EXPECT_EQ(m.breaker_skipped_subrequests, 4u);
  EXPECT_EQ(m.replicas.at(0).breaker_state, CircuitBreaker::State::kOpen);
  EXPECT_GE(m.replicas.at(0).consecutive_failures, 2u);
  EXPECT_EQ(m.replicas.at(1).breaker_skips, 0u);
}

// After the cooldown, a healed replica is readmitted: the next subrequest
// runs as the half-open probe, succeeds, and closes the breaker; traffic
// dispatches normally again (no more degradation).
TEST(ClusterBreaker, HalfOpenProbeClosesAfterHealing) {
  BreakerClusterRig rig(/*cache_on=*/false, /*crash_from_start=*/true,
                        std::chrono::milliseconds(30));
  const Request rq = shard0_window(*rig.cluster);

  for (int i = 0; i < 3; ++i) rig.cluster->serve({rq});  // trip it open
  ASSERT_EQ(rig.cluster->metrics().replicas.at(0).breaker_state,
            CircuitBreaker::State::kOpen);

  rig.heal_replica0();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));  // > cooldown

  const auto probe_rsp = rig.cluster->serve({rq});
  EXPECT_EQ(probe_rsp[0].status, Status::kOk);
  ClusterMetrics m = rig.cluster->metrics();
  EXPECT_GE(m.breaker_half_open_probes, 1u);
  EXPECT_EQ(m.breaker_close_transitions, 1u);
  EXPECT_EQ(m.replicas.at(0).breaker_state, CircuitBreaker::State::kClosed);

  const std::uint64_t degraded_before = m.degraded_fallback;
  rig.cluster->serve({rq});
  m = rig.cluster->metrics();
  EXPECT_EQ(m.degraded_fallback, degraded_before)
      << "a closed breaker dispatches normally again";
}

// Satellite: a warm cache entry for a shard keeps serving while that
// shard's breaker is open -- the cache sits in front of the router, so an
// open failure domain costs nothing for hot repeats.
TEST(ClusterBreaker, WarmCacheEntryServesWhileBreakerOpen) {
  BreakerClusterRig rig(/*cache_on=*/true, /*crash_from_start=*/false,
                        std::chrono::seconds(10));
  const Request rq = shard0_window(*rig.cluster);

  // Healthy warmup: fill the cache for rq.
  auto responses = rig.cluster->serve({rq});
  ASSERT_EQ(responses[0].status, Status::kOk);
  const auto want = responses[0].ids;
  ASSERT_EQ(rig.cluster->metrics().cache.entries, 1u);

  // Crash the replica and trip its breaker with cache-bypassing copies.
  rig.crash_replica0();
  const Request bypass = Request(rq).with_bypass_cache();
  rig.cluster->serve({bypass});
  rig.cluster->serve({bypass});
  ASSERT_EQ(rig.cluster->metrics().replicas.at(0).breaker_state,
            CircuitBreaker::State::kOpen);

  // The warm entry still answers -- from the cache, not the oracle.
  const std::uint64_t degraded_before =
      rig.cluster->metrics().degraded_fallback;
  responses = rig.cluster->serve({rq});
  EXPECT_EQ(responses[0].status, Status::kOk);
  EXPECT_EQ(responses[0].ids, want);
  const ClusterMetrics m = rig.cluster->metrics();
  EXPECT_GE(m.cache_hits, 1u);
  EXPECT_EQ(m.degraded_fallback, degraded_before)
      << "the hit never reached the router";

  // And a remount still drops the entry even while the breaker is open:
  // epoch invalidation is not negotiable.
  rig.cluster->mount(rig.lines, mount_options());
  EXPECT_EQ(rig.cluster->metrics().cache.entries, 0u);
}

}  // namespace
}  // namespace dps::serve
