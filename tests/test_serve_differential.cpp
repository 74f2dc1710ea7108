// Differential serving harness: every answer the QueryEngine produces --
// and every row of the underlying data-parallel batch pipelines -- must be
// byte-identical to the per-request sequential core queries, on seeded
// random workloads across generators, shard counts, thread counts, and
// degradation thresholds (a parameterized sweep in the style of
// Maps/CrossValidate).

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "core/core.hpp"
#include "data/data.hpp"
#include "serve/engine.hpp"
#include "test_util.hpp"

namespace dps {
namespace {

struct ServeCase {
  const char* generator;
  std::size_t n_lines;
  std::size_t n_requests;
  std::uint64_t seed;
  std::size_t shards;
  std::size_t threads;
  std::size_t min_dp_batch;
};

constexpr double kWorld = 1024.0;

std::vector<geom::Segment> make_map(const ServeCase& c) {
  const std::string g = c.generator;
  if (g == "roads") return data::hierarchical_roads(c.n_lines, kWorld, c.seed);
  if (g == "clustered") {
    return data::clustered_segments(c.n_lines, 5, kWorld / 30.0, kWorld, 12.0,
                                    c.seed);
  }
  return data::uniform_segments(c.n_lines, kWorld, 18.0, c.seed);
}

class ServeDifferential : public ::testing::TestWithParam<ServeCase> {
 protected:
  void SetUp() override {
    const ServeCase& c = GetParam();
    lines_ = make_map(c);
    dpv::Context ctx;
    core::PmrBuildOptions po;
    po.world = kWorld;
    po.max_depth = 12;
    po.bucket_capacity = 6;
    quad_ = core::pmr_build(ctx, lines_, po).tree;
    core::RtreeBuildOptions ro;
    ro.m = 2;
    ro.M = 8;
    rtree_ = core::rtree_build(ctx, lines_, ro).tree;
  }

  std::vector<serve::Request> random_requests(std::size_t n,
                                              std::uint64_t seed) const {
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
      if (roll < 5) {  // half the traffic: windows
        const double x = pos(rng), y = pos(rng);
        batch.push_back(serve::Request::window_query(
            idx, {x, y, std::min(kWorld, x + extent(rng)),
                  std::min(kWorld, y + extent(rng))}));
      } else if (roll < 8) {  // points: half on segments, half free
        const geom::Point p = (roll == 5 && !lines_.empty())
                                  ? lines_[i % lines_.size()].mid()
                                  : geom::Point{pos(rng), pos(rng)};
        batch.push_back(serve::Request::point_query(idx, p));
      } else {  // nearest
        batch.push_back(serve::Request::nearest_query(
            idx, {pos(rng), pos(rng)}, kdist(rng)));
      }
    }
    return batch;
  }

  std::vector<geom::LineId> sequential_ids(const serve::Request& rq) const {
    if (rq.kind == serve::RequestKind::kWindow) {
      switch (rq.index) {
        case serve::IndexKind::kQuadTree:
          return core::window_query(quad_, rq.window);
        case serve::IndexKind::kRTree:
          return core::window_query(rtree_, rq.window);
      }
    }
    switch (rq.index) {
      case serve::IndexKind::kQuadTree:
        return core::point_query(quad_, rq.point);
      case serve::IndexKind::kRTree:
        return core::point_query(rtree_, rq.point);
    }
    return {};
  }

  std::vector<geom::Segment> lines_;
  core::QuadTree quad_;
  core::RTree rtree_;
};

// The engine, sharded and threaded per the case, must answer exactly what
// one-request-at-a-time sequential traversal answers.
TEST_P(ServeDifferential, EngineMatchesSequential) {
  const ServeCase& c = GetParam();
  serve::EngineOptions opts;
  opts.shards = c.shards;
  opts.threads = c.threads;
  // A fresh engine's one serve is decided by the min_dp_batch prior, so
  // the sweep's "always sequential" and "always dp" cases hold.
  opts.min_dp_batch = c.min_dp_batch;
  serve::QueryEngine engine(opts);
  engine.mount(&quad_);
  engine.mount(&rtree_);

  const auto batch = random_requests(c.n_requests, c.seed * 7919 + 13);
  const auto responses = engine.serve(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(responses[i].status, serve::Status::kOk) << "request " << i;
    if (batch[i].kind == serve::RequestKind::kNearest) {
      const auto want = batch[i].index == serve::IndexKind::kQuadTree
                            ? core::k_nearest(quad_, batch[i].point, batch[i].k)
                            : core::k_nearest(rtree_, batch[i].point,
                                              batch[i].k);
      ASSERT_EQ(responses[i].neighbors.size(), want.size()) << "request " << i;
      for (std::size_t j = 0; j < want.size(); ++j) {
        EXPECT_EQ(responses[i].neighbors[j].id, want[j].id)
            << "request " << i << " neighbor " << j;
        EXPECT_DOUBLE_EQ(responses[i].neighbors[j].distance2,
                         want[j].distance2);
      }
    } else {
      EXPECT_EQ(responses[i].ids, sequential_ids(batch[i]))
          << "request " << i;
    }
  }
  const serve::ServeMetrics m = engine.metrics();
  EXPECT_EQ(m.ok, c.n_requests);
  EXPECT_EQ(m.latency.count(), c.n_requests);
}

// The raw batch pipelines, run directly (serial and parallel backends),
// must match per-window / per-point sequential queries on the same
// workloads the engine sees.
TEST_P(ServeDifferential, BatchPipelinesMatchSequential) {
  const ServeCase& c = GetParam();
  std::mt19937_64 rng(c.seed * 104729 + 7);
  std::uniform_real_distribution<double> pos(0.0, kWorld - 1.0);
  std::uniform_real_distribution<double> extent(2.0, kWorld / 5.0);
  std::vector<geom::Rect> windows;
  std::vector<geom::Point> points;
  const std::size_t n = std::min<std::size_t>(c.n_requests, 200);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = pos(rng), y = pos(rng);
    windows.push_back({x, y, std::min(kWorld, x + extent(rng)),
                       std::min(kWorld, y + extent(rng))});
    points.push_back(i % 2 == 0 && !lines_.empty()
                         ? lines_[i % lines_.size()].mid()
                         : geom::Point{pos(rng), pos(rng)});
  }

  // The linear quadtree is a core structure only (serving holds the PMR
  // quadtree and the R-tree), so its batch pipelines are checked here.
  const core::LinearQuadTree linear = core::LinearQuadTree::from(quad_);
  dpv::Context serial;
  dpv::Context parallel = test::make_parallel_context();
  for (dpv::Context* ctx : {&serial, &parallel}) {
    const auto quad_batch = core::batch_window_query(*ctx, quad_, windows);
    const auto rtree_batch = core::batch_window_query(*ctx, rtree_, windows);
    ASSERT_EQ(quad_batch.results.size(), windows.size());
    ASSERT_EQ(rtree_batch.results.size(), windows.size());
    for (std::size_t w = 0; w < windows.size(); ++w) {
      const auto want = core::window_query(quad_, windows[w]);
      EXPECT_EQ(quad_batch.results[w], want) << "window " << w;
      EXPECT_EQ(rtree_batch.results[w],
                core::window_query(rtree_, windows[w]))
          << "window " << w;
    }
    const auto linear_batch = core::batch_window_query(*ctx, linear, windows);
    ASSERT_EQ(linear_batch.results.size(), windows.size());
    for (std::size_t w = 0; w < windows.size(); ++w) {
      EXPECT_EQ(linear_batch.results[w], linear.window_query(windows[w]))
          << "window " << w;
    }
    const auto point_batch = core::batch_point_query(*ctx, quad_, points);
    const auto rtree_points = core::batch_point_query(*ctx, rtree_, points);
    const auto linear_points = core::batch_point_query(*ctx, linear, points);
    ASSERT_EQ(point_batch.results.size(), points.size());
    ASSERT_EQ(rtree_points.results.size(), points.size());
    ASSERT_EQ(linear_points.results.size(), points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
      EXPECT_EQ(point_batch.results[p], core::point_query(quad_, points[p]))
          << "point " << p;
      EXPECT_EQ(rtree_points.results[p], core::point_query(rtree_, points[p]))
          << "point " << p;
      EXPECT_EQ(linear_points.results[p], linear.point_query(points[p]))
          << "point " << p;
    }
  }
}

// Under a forced dp path, every group with a data-parallel kernel -- the
// window and point combinations on both indexes -- must take it: the
// engine may not silently fall back to sequential traversal.  k-nearest
// has no serving pipeline, so its groups sweep sequentially, exactly.
TEST_P(ServeDifferential, AllCombosExecuteDataParallel) {
  const ServeCase& c = GetParam();
  const test::DispatchForceScope force(static_cast<int>(dpv::CostPath::kDp));
  serve::EngineOptions opts;
  opts.shards = c.shards;
  opts.threads = c.threads;
  serve::QueryEngine engine(opts);
  engine.mount(&quad_);
  engine.mount(&rtree_);

  // Every combo in rotation: windows and points on both indexes, k-nearest
  // on both (split into its own batch).
  std::mt19937_64 rng(c.seed * 6151 + 3);
  std::uniform_real_distribution<double> pos(0.0, kWorld - 1.0);
  std::uniform_int_distribution<std::size_t> kdist(1, 8);
  std::vector<serve::Request> dp_batch;
  std::vector<serve::Request> knn_batch;
  for (std::size_t i = 0; i < std::min<std::size_t>(c.n_requests, 300); ++i) {
    const auto idx = static_cast<serve::IndexKind>(i % 2);
    const double x = pos(rng), y = pos(rng);
    switch (i % 8) {
      case 0:
      case 3:
      case 5:
        dp_batch.push_back(serve::Request::window_query(
            idx,
            {x, y, std::min(kWorld, x + 40.0), std::min(kWorld, y + 30.0)}));
        break;
      case 1:
      case 4:
      case 7:
        dp_batch.push_back(serve::Request::point_query(
            idx, !lines_.empty() ? lines_[i % lines_.size()].mid()
                                 : geom::Point{x, y}));
        break;
      default:
        knn_batch.push_back(serve::Request::nearest_query(
            i % 8 == 2 ? serve::IndexKind::kQuadTree : serve::IndexKind::kRTree,
            {x, y}, kdist(rng)));
        break;
    }
  }
  const auto expect_exact = [&](const std::vector<serve::Request>& batch) {
    const auto responses = engine.serve(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(responses[i].status, serve::Status::kOk) << "request " << i;
      if (batch[i].kind == serve::RequestKind::kNearest) {
        const auto want =
            batch[i].index == serve::IndexKind::kQuadTree
                ? core::k_nearest(quad_, batch[i].point, batch[i].k)
                : core::k_nearest(rtree_, batch[i].point, batch[i].k);
        ASSERT_EQ(responses[i].neighbors.size(), want.size())
            << "request " << i;
        for (std::size_t j = 0; j < want.size(); ++j) {
          EXPECT_EQ(responses[i].neighbors[j].id, want[j].id)
              << "request " << i << " neighbor " << j;
          EXPECT_DOUBLE_EQ(responses[i].neighbors[j].distance2,
                           want[j].distance2);
        }
      } else {
        EXPECT_EQ(responses[i].ids, sequential_ids(batch[i]))
            << "request " << i;
      }
    }
  };

  expect_exact(dp_batch);
  const serve::ServeMetrics m = engine.metrics();
  EXPECT_EQ(m.seq_groups, 0u)
      << "a group silently degraded to sequential traversal";
  EXPECT_EQ(m.seq_fallbacks, 0u)
      << "a fault-free dp pipeline burned its retries and fell back";
  EXPECT_GT(m.dp_groups, 0u);
  // The shard arenas did real work and nothing leaked past a round scope.
  const dpv::ArenaStats arena = engine.arena_stats();
  EXPECT_GT(arena.rounds, 0u);
  EXPECT_EQ(arena.live_blocks, 0u);

  engine.reset_metrics();
  expect_exact(knn_batch);
  const serve::ServeMetrics knn = engine.metrics();
  EXPECT_EQ(knn.dp_groups, 0u) << "k-nearest reached a dp pipeline";
  EXPECT_GT(knn.seq_groups, 0u);
  EXPECT_EQ(knn.prims.total_invocations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ServeDifferential,
    ::testing::Values(
        // generator, lines, requests, seed, shards, threads, min_dp_batch
        ServeCase{"uniform", 300, 400, 1, 1, 1, 8},
        ServeCase{"uniform", 400, 600, 2, 4, 2, 4},
        ServeCase{"uniform", 400, 500, 3, 4, 4, 1},      // always data-parallel
        ServeCase{"clustered", 500, 600, 4, 4, 2, 8},
        ServeCase{"clustered", 350, 400, 5, 2, 2, 4096}, // always sequential
        ServeCase{"roads", 450, 500, 6, 3, 2, 8},
        ServeCase{"roads", 350, 450, 7, 6, 2, 4},        // shards > lanes
        // Acceptance-scale: >= 10k mixed queries over >= 4 shards.
        ServeCase{"uniform", 800, 10000, 8, 4, 4, 8}),
    [](const ::testing::TestParamInfo<ServeCase>& info) {
      const ServeCase& c = info.param;
      return std::string(c.generator) + std::to_string(c.n_requests) + "_s" +
             std::to_string(c.seed) + "_sh" + std::to_string(c.shards) +
             "_t" + std::to_string(c.threads) + "_b" +
             std::to_string(c.min_dp_batch);
    });

}  // namespace
}  // namespace dps
