// serve::Cluster differential harness: a spatially-sharded cluster must
// answer every request *exactly* as a single engine over the whole map --
// same statuses, same ids, same distances^2, same tie order -- for every
// generator, shard count, and cache setting; across remounts (no stale
// cache answers); and with a poisoned replica (retry keeps it exact).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/core.hpp"
#include "data/data.hpp"
#include "serve/cluster.hpp"
#include "serve/engine.hpp"
#include "test_util.hpp"

namespace dps {
namespace {

constexpr double kWorld = 1024.0;

struct ClusterCase {
  const char* generator;
  std::size_t n_lines;
  std::size_t n_requests;
  std::uint64_t seed;
  std::size_t shards;
  bool cache_on;
};

std::vector<geom::Segment> make_map(const char* generator, std::size_t n,
                                    std::uint64_t seed) {
  const std::string g = generator;
  if (g == "roads") return data::hierarchical_roads(n, kWorld, seed);
  if (g == "clustered") {
    return data::clustered_segments(n, 5, kWorld / 30.0, kWorld, 12.0, seed);
  }
  return data::uniform_segments(n, kWorld, 18.0, seed);
}

serve::ClusterMountOptions mount_options() {
  serve::ClusterMountOptions mo;
  mo.world = kWorld;
  mo.quad.max_depth = 12;
  mo.quad.bucket_capacity = 6;
  mo.rtree.m = 2;
  mo.rtree.M = 8;
  return mo;
}

/// Mixed workload over every request kind and index, like the engine's
/// differential suite.
std::vector<serve::Request> random_requests(
    const std::vector<geom::Segment>& lines, std::size_t n,
    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> pos(0.0, kWorld - 1.0);
  std::uniform_real_distribution<double> extent(2.0, kWorld / 6.0);
  std::uniform_int_distribution<std::size_t> kdist(1, 8);
  std::uniform_int_distribution<int> kind(0, 9);
  std::uniform_int_distribution<int> index(0, 1);
  std::vector<serve::Request> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto idx = static_cast<serve::IndexKind>(index(rng));
    const int roll = kind(rng);
    if (roll < 5) {
      const double x = pos(rng), y = pos(rng);
      batch.push_back(serve::Request::window_query(
          idx, {x, y, std::min(kWorld, x + extent(rng)),
                std::min(kWorld, y + extent(rng))}));
    } else if (roll < 8) {
      const geom::Point p = (roll == 5 && !lines.empty())
                                ? lines[i % lines.size()].mid()
                                : geom::Point{pos(rng), pos(rng)};
      batch.push_back(serve::Request::point_query(idx, p));
    } else {
      batch.push_back(serve::Request::nearest_query(
          idx, {pos(rng), pos(rng)}, kdist(rng)));
    }
  }
  return batch;
}

/// Whole-map oracle: the same indexes a single engine would mount, queried
/// one request at a time with the sequential core operations.
struct Oracle {
  core::QuadTree quad;
  core::RTree rtree;

  explicit Oracle(const std::vector<geom::Segment>& lines) {
    dpv::Context ctx;
    const serve::ClusterMountOptions mo = mount_options();
    core::PmrBuildOptions po = mo.quad;
    po.world = mo.world;
    quad = core::pmr_build(ctx, lines, po).tree;
    rtree = core::rtree_build(ctx, lines, mo.rtree).tree;
  }

  std::vector<geom::LineId> ids(const serve::Request& rq) const {
    if (rq.kind == serve::RequestKind::kWindow) {
      switch (rq.index) {
        case serve::IndexKind::kQuadTree:
          return core::window_query(quad, rq.window);
        case serve::IndexKind::kRTree:
          return core::window_query(rtree, rq.window);
      }
    }
    switch (rq.index) {
      case serve::IndexKind::kQuadTree:
        return core::point_query(quad, rq.point);
      case serve::IndexKind::kRTree:
        return core::point_query(rtree, rq.point);
    }
    return {};
  }

  std::vector<core::Neighbor> nearest(const serve::Request& rq) const {
    return rq.index == serve::IndexKind::kQuadTree
               ? core::k_nearest(quad, rq.point, rq.k)
               : core::k_nearest(rtree, rq.point, rq.k);
  }
};

void expect_exact(const serve::Request& rq, const serve::Response& got,
                  const Oracle& oracle, std::size_t i) {
  ASSERT_EQ(got.status, serve::Status::kOk) << "request " << i;
  if (rq.kind == serve::RequestKind::kNearest) {
    const auto want = oracle.nearest(rq);
    ASSERT_EQ(got.neighbors.size(), want.size()) << "request " << i;
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(got.neighbors[j].id, want[j].id)
          << "request " << i << " neighbor " << j;
      EXPECT_DOUBLE_EQ(got.neighbors[j].distance2, want[j].distance2)
          << "request " << i << " neighbor " << j;
    }
  } else {
    EXPECT_EQ(got.ids, oracle.ids(rq)) << "request " << i;
  }
}

serve::ClusterOptions cluster_options(std::size_t shards, bool cache_on) {
  serve::ClusterOptions co;
  co.shards = shards;
  co.cache.enabled = cache_on;
  // Keep per-replica thread fan-out bounded: shards x (2 lanes) stays
  // TSan-friendly even at 8 replicas.
  co.engine.shards = 2;
  co.engine.threads = 2;
  return co;
}

class ClusterDifferential : public ::testing::TestWithParam<ClusterCase> {};

// The tentpole acceptance: cluster == single engine, twice (the second
// pass replays through the cache when it is on), for every combination.
TEST_P(ClusterDifferential, MatchesSingleEngineExactly) {
  const ClusterCase& c = GetParam();
  const auto lines = make_map(c.generator, c.n_lines, c.seed);
  const Oracle oracle(lines);

  serve::Cluster cluster(cluster_options(c.shards, c.cache_on));
  cluster.mount(lines, mount_options());
  EXPECT_EQ(cluster.shards(), c.shards);
  EXPECT_EQ(cluster.plan().footprints.size(), c.shards);
  EXPECT_EQ(cluster.mount_epoch(), 1u);

  const auto batch = random_requests(lines, c.n_requests, c.seed * 7919 + 3);
  for (int pass = 0; pass < 2; ++pass) {
    const auto responses = cluster.serve(batch);
    ASSERT_EQ(responses.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expect_exact(batch[i], responses[i], oracle, i);
    }
  }

  const serve::ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.batches, 2u);
  EXPECT_EQ(m.requests, 2 * c.n_requests);
  EXPECT_EQ(m.ok, 2 * c.n_requests);
  if (c.cache_on) {
    // The second pass replays the first, so every repeat is a hit.
    EXPECT_GE(m.cache_hits, c.n_requests);
    EXPECT_EQ(m.cache_hits + m.cache_misses, 2 * c.n_requests);
  } else {
    EXPECT_EQ(m.cache_hits, 0u);
    EXPECT_EQ(m.cache_misses, 0u);
  }
  if (c.shards == 1) {
    EXPECT_EQ(m.duplicate_hits_removed, 0u)
        << "one shard holds no clones to delete";
    EXPECT_EQ(m.knn_widened_shards, 0u);
  }
  // Every served (non-cached) request routed somewhere.
  EXPECT_GT(m.routed_subrequests, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ClusterDifferential,
    ::testing::Values(
        // generator, lines, requests, seed, shards, cache_on
        ClusterCase{"uniform", 350, 300, 1, 1, false},
        ClusterCase{"uniform", 350, 300, 2, 1, true},
        ClusterCase{"uniform", 400, 400, 3, 2, false},
        ClusterCase{"uniform", 400, 400, 4, 4, true},
        ClusterCase{"uniform", 400, 350, 5, 8, false},
        ClusterCase{"clustered", 400, 350, 6, 2, true},
        ClusterCase{"clustered", 400, 350, 7, 4, false},
        ClusterCase{"clustered", 400, 300, 8, 8, true},
        ClusterCase{"roads", 400, 350, 9, 2, false},
        ClusterCase{"roads", 400, 350, 10, 4, true},
        ClusterCase{"roads", 400, 300, 11, 8, false},
        ClusterCase{"roads", 450, 400, 12, 8, true}),
    [](const ::testing::TestParamInfo<ClusterCase>& info) {
      const ClusterCase& c = info.param;
      return std::string(c.generator) + std::to_string(c.n_requests) + "_s" +
             std::to_string(c.seed) + "_sh" + std::to_string(c.shards) +
             (c.cache_on ? "_cache" : "_nocache");
    });

// Remounting a different map must never serve an answer computed against
// the previous one: the epoch advances, the warm cache drops, and every
// post-remount answer matches the new map's oracle.
TEST(ClusterRemount, EpochInvalidationAcrossRemount) {
  const auto map_a = make_map("uniform", 300, 21);
  const auto map_b = make_map("clustered", 300, 22);
  const Oracle oracle_a(map_a);
  const Oracle oracle_b(map_b);

  serve::Cluster cluster(cluster_options(4, true));
  cluster.mount(map_a, mount_options());
  EXPECT_EQ(cluster.mount_epoch(), 1u);

  const auto batch = random_requests(map_a, 200, 77);
  auto responses = cluster.serve(batch);  // cold: fills the cache
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_exact(batch[i], responses[i], oracle_a, i);
  }
  responses = cluster.serve(batch);  // warm: replays through the cache
  ASSERT_GT(cluster.metrics().cache_hits, 0u);

  cluster.mount(map_b, mount_options());
  EXPECT_EQ(cluster.mount_epoch(), 2u);

  responses = cluster.serve(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_exact(batch[i], responses[i], oracle_b, i);
  }
  const serve::ClusterMetrics m = cluster.metrics();
  EXPECT_GT(m.cache.invalidations, 0u) << "remount must drop the warm cache";
  EXPECT_EQ(m.cache.epoch, 2u);
}

// The per-request bypass flag skips both lookup and fill.
TEST(ClusterCachePath, BypassFlagSkipsTheCache) {
  const auto lines = make_map("uniform", 250, 31);
  serve::Cluster cluster(cluster_options(2, true));
  cluster.mount(lines, mount_options());

  std::vector<serve::Request> batch(
      8, serve::Request::window_query(serve::IndexKind::kQuadTree,
                                      {100, 100, 400, 400})
             .with_bypass_cache());
  cluster.serve(batch);
  cluster.serve(batch);
  serve::ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.cache_bypasses, 16u);
  EXPECT_EQ(m.cache_hits, 0u);
  EXPECT_EQ(m.cache_misses, 0u);
  EXPECT_EQ(m.cache.entries, 0u) << "bypassed answers must not be memoized";

  // The same request without the flag memoizes (all lookups in a batch
  // precede its fills, so the first batch misses throughout) and the next
  // batch hits on every repeat.
  std::vector<serve::Request> cached(
      8, serve::Request::window_query(serve::IndexKind::kQuadTree,
                                      {100, 100, 400, 400}));
  cluster.serve(cached);
  m = cluster.metrics();
  EXPECT_EQ(m.cache_misses, 8u);
  EXPECT_EQ(m.cache_hits, 0u);
  cluster.serve(cached);
  m = cluster.metrics();
  EXPECT_EQ(m.cache_hits, 8u);
  EXPECT_EQ(m.cache_misses, 8u);
  EXPECT_EQ(m.cache.entries, 1u) << "identical requests share one entry";
}

// An expired deadline answers kDeadlineExpired even when the identical
// request sits warm in the cache: liveness checks precede the lookup.
TEST(ClusterCachePath, ExpiredDeadlineNeverServedFromCache) {
  const auto lines = make_map("uniform", 250, 32);
  serve::Cluster cluster(cluster_options(2, true));
  cluster.mount(lines, mount_options());

  const auto rq = serve::Request::window_query(serve::IndexKind::kQuadTree,
                                               {100, 100, 400, 400});
  cluster.serve({rq});  // warm the entry
  auto expired = rq;
  expired.with_deadline(serve::Clock::now() - std::chrono::seconds(1));
  const auto responses = cluster.serve({expired});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, serve::Status::kDeadlineExpired);
  EXPECT_EQ(cluster.metrics().cache_hits, 0u);
}

// A window crossing the shard boundary finds boundary clones in both
// shards; duplicate deletion removes them and the answer stays exact.
TEST(ClusterMerge, BoundaryWindowDeletesClonedDuplicates) {
  // One segment crossing the 2-shard split at x = 512, plus bystanders.
  std::vector<geom::Segment> lines = {
      {{500.0, 100.0}, {524.0, 100.0}, 1},
      {{100.0, 100.0}, {120.0, 120.0}, 2},
      {{900.0, 900.0}, {920.0, 920.0}, 3},
  };
  serve::Cluster cluster(cluster_options(2, false));
  cluster.mount(lines, mount_options());
  ASSERT_GE(cluster.shard_segment_count(0) + cluster.shard_segment_count(1),
            4u)
      << "the crossing segment should be cloned into both shards";

  const auto responses = cluster.serve({serve::Request::window_query(
      serve::IndexKind::kQuadTree, {480.0, 90.0, 540.0, 110.0})});
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_EQ(responses[0].status, serve::Status::kOk);
  EXPECT_EQ(responses[0].ids, (std::vector<geom::LineId>{1}));
  const serve::ClusterMetrics m = cluster.metrics();
  EXPECT_GE(m.duplicate_hits_removed, 1u);
  EXPECT_EQ(m.routed_subrequests, 2u) << "the window spans both footprints";
}

// One poisoned replica: the exactness bar does not move.  Retry absorbs
// the chaos (visible in that replica's metrics) and every answer still
// matches the whole-map oracle.
TEST(ClusterChaos, PoisonedReplicaStaysExactViaRetry) {
  const auto lines = make_map("uniform", 400, 41);
  const Oracle oracle(lines);

  dpv::FaultSchedule schedule;
  schedule.seed = 99;
  schedule.shard_poison_rate = 0.5;
  dpv::FaultInjector inject(schedule);

  serve::ClusterOptions co = cluster_options(4, false);
  // Pin the dp path, where poison bites.
  const test::DispatchForceScope force(static_cast<int>(dpv::CostPath::kDp));
  co.replica_fault_injectors = {&inject};  // replica 0 only
  serve::Cluster cluster(co);
  cluster.mount(lines, mount_options());

  const auto batch = random_requests(lines, 400, 43);
  const auto responses = cluster.serve(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_exact(batch[i], responses[i], oracle, i);
  }
  EXPECT_GT(cluster.engine(0).metrics().retries, 0u)
      << "the poisoned replica should have retried dp attempts";
  EXPECT_EQ(cluster.engine(1).metrics().retries, 0u)
      << "chaos was scoped to replica 0";
}

// Status taxonomy at the cluster door.
TEST(ClusterStatus, GateAndSupportStatuses) {
  serve::Cluster unmounted(cluster_options(2, true));
  auto responses = unmounted.serve({serve::Request::window_query(
      serve::IndexKind::kQuadTree, {0, 0, 10, 10})});
  EXPECT_EQ(responses[0].status, serve::Status::kRejected)
      << "nothing mounted";
  EXPECT_EQ(unmounted.metrics().rejected, 1u);

  const auto lines = make_map("uniform", 200, 51);
  serve::Cluster cluster(cluster_options(2, true));
  cluster.mount(lines, mount_options());

  const double nan = std::nan("");
  responses = cluster.serve({
      serve::Request::window_query(serve::IndexKind::kQuadTree,
                                   {nan, 0, 10, 10}),
      serve::Request::nearest_query(serve::IndexKind::kRTree, {10, 10}, 3),
      serve::Request::nearest_query(serve::IndexKind::kQuadTree, {10, 10}, 0),
      serve::Request::point_query(serve::IndexKind::kQuadTree, {10, 10}),
  });
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(responses[0].status, serve::Status::kInvalidArgument);
  EXPECT_EQ(responses[1].status, serve::Status::kOk)
      << "every (kind, index) pair is served";
  EXPECT_EQ(responses[2].status, serve::Status::kInvalidArgument);
  EXPECT_EQ(responses[3].status, serve::Status::kOk);
  const serve::ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.invalid, 2u);
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_EQ(m.ok, 2u);
}

TEST(ClusterStatus, CancelAllThenReset) {
  const auto lines = make_map("uniform", 200, 52);
  serve::Cluster cluster(cluster_options(2, false));
  cluster.mount(lines, mount_options());
  const auto rq = serve::Request::point_query(serve::IndexKind::kQuadTree,
                                              lines.front().mid());
  cluster.cancel_all();
  EXPECT_EQ(cluster.serve({rq})[0].status, serve::Status::kCancelled);
  cluster.reset_cancel();
  EXPECT_EQ(cluster.serve({rq})[0].status, serve::Status::kOk);
}

// Many threads serving one cluster concurrently (the TSan workhorse):
// every answer stays exact against the oracle.
TEST(ClusterConcurrency, ConcurrentServesStayExact) {
  const auto lines = make_map("clustered", 300, 61);
  const Oracle oracle(lines);
  serve::Cluster cluster(cluster_options(2, true));
  cluster.mount(lines, mount_options());

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kBatches = 6;
  std::vector<std::vector<serve::Request>> workloads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workloads.push_back(random_requests(lines, 60, 100 + t));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t b = 0; b < kBatches; ++b) {
        const auto responses = cluster.serve(workloads[t]);
        for (std::size_t i = 0; i < workloads[t].size(); ++i) {
          const serve::Request& rq = workloads[t][i];
          const serve::Response& rsp = responses[i];
          if (rsp.status != serve::Status::kOk) {
            failures.fetch_add(1);
            continue;
          }
          if (rq.kind == serve::RequestKind::kNearest) {
            const auto want = oracle.nearest(rq);
            if (rsp.neighbors.size() != want.size()) {
              failures.fetch_add(1);
              continue;
            }
            for (std::size_t j = 0; j < want.size(); ++j) {
              if (rsp.neighbors[j].id != want[j].id ||
                  rsp.neighbors[j].distance2 != want[j].distance2) {
                failures.fetch_add(1);
              }
            }
          } else if (rsp.ids != oracle.ids(rq)) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const serve::ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.requests, kThreads * kBatches * 60);
  EXPECT_EQ(m.ok, m.requests);
}

// Satellite: the engine's mount generation is monotonic and counts every
// mount -- including unmounts -- exactly once.
TEST(QueryEngineMountEpoch, AdvancesOncePerMount) {
  dpv::Context ctx;
  const auto lines = make_map("uniform", 100, 71);
  core::PmrBuildOptions po;
  po.world = kWorld;
  const core::QuadTree quad = core::pmr_build(ctx, lines, po).tree;

  serve::QueryEngine engine;
  EXPECT_EQ(engine.mount_epoch(), 0u);
  engine.mount(&quad);
  EXPECT_EQ(engine.mount_epoch(), 1u);
  engine.mount(&quad);  // remount counts too
  EXPECT_EQ(engine.mount_epoch(), 2u);
  engine.mount(static_cast<const core::QuadTree*>(nullptr));  // unmount
  EXPECT_EQ(engine.mount_epoch(), 3u);
}

}  // namespace
}  // namespace dps
