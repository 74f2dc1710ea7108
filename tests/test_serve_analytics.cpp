// Serving-layer analytics: range-aggregate and map-vs-map join request
// kinds, end to end.  The engine must answer both kinds bitwise-equal to
// the core baselines; the cluster must answer them exactly as a single
// engine over the whole map for every shard count (count/bbox/pairs
// exact, FP sums to rounding), with cloned boundary segments counted
// once, probe-map validation settling kInvalidArgument at the door, the
// cache canonicalizing every kind's unused payload bytes to zero, and
// live base updates keeping aggregates exact against a brute-force twin.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_aggregate.hpp"
#include "core/core.hpp"
#include "core/rtree_join.hpp"
#include "core/spatial_join.hpp"
#include "data/data.hpp"
#include "serve/cluster.hpp"
#include "serve/engine.hpp"
#include "serve/kinds.hpp"
#include "test_util.hpp"

namespace dps::serve {
namespace {

constexpr double kWorld = 1024.0;

std::vector<geom::Segment> make_map(const std::string& generator,
                                    std::size_t n, std::uint64_t seed,
                                    geom::LineId id_base = 0) {
  std::vector<geom::Segment> lines;
  if (generator == "roads") {
    lines = data::hierarchical_roads(n, kWorld, seed);
  } else if (generator == "clustered") {
    lines = data::clustered_segments(n, 5, kWorld / 30.0, kWorld, 12.0, seed);
  } else {
    lines = data::uniform_segments(n, kWorld, 18.0, seed);
  }
  for (geom::Segment& s : lines) s.id += id_base;
  return lines;
}

ClusterMountOptions mount_options() {
  ClusterMountOptions mo;
  mo.world = kWorld;
  mo.quad.max_depth = 12;
  mo.quad.bucket_capacity = 6;
  mo.rtree.m = 2;
  mo.rtree.M = 8;
  return mo;
}

/// Brute-force materialize-then-reduce oracle in id order (an order the
/// serving descent never uses; count/bbox must still match exactly).
core::WindowAggregate oracle(const std::vector<geom::Segment>& lines,
                             const geom::Rect& w) {
  core::WindowAggregate g;
  for (const geom::Segment& s : lines) {
    double t0 = 0.0, t1 = 1.0;
    if (geom::clip_segment_to_rect(s.a, s.b, w, t0, t1)) {
      core::accumulate_hit(g, s, t0, t1, core::AggregateScope{});
    }
  }
  return g;
}

void expect_close(const core::WindowAggregate& got,
                  const core::WindowAggregate& want, const char* label,
                  std::size_t w) {
  EXPECT_EQ(got.count, want.count) << label << " window " << w;
  EXPECT_EQ(got.bbox, want.bbox) << label << " window " << w;
  const auto tol = [](double v) { return 1e-7 * (1.0 + std::fabs(v)); };
  EXPECT_NEAR(got.length, want.length, tol(want.length))
      << label << " window " << w;
  EXPECT_NEAR(got.wx, want.wx, tol(want.wx)) << label << " window " << w;
  EXPECT_NEAR(got.wy, want.wy, tol(want.wy)) << label << " window " << w;
}

std::vector<geom::Rect> test_windows() {
  return {
      {100.0, 100.0, 260.0, 220.0},
      {480.0, 40.0, 560.0, 980.0},    // straddles the x = 512 shard cut
      {40.0, 480.0, 980.0, 560.0},    // straddles the y = 512 shard cut
      {500.0, 500.0, 524.0, 524.0},   // straddles the 4-way corner
      {0.0, 0.0, kWorld, kWorld},     // fully-covered root
      {900.5, 2.25, 1010.0, 90.75},
  };
}

// ---- Engine level. ----

class ServeAnalyticsEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = make_map("uniform", 500, 101);
    probe_ = make_map("clustered", 300, 202, 10000);
    dpv::Context ctx;
    core::PmrBuildOptions po;
    po.world = kWorld;
    po.max_depth = 12;
    po.bucket_capacity = 6;
    core::RtreeBuildOptions ro;
    ro.m = 2;
    ro.M = 8;
    quad_ = core::pmr_build(ctx, base_, po).tree;
    rtree_ = core::rtree_build(ctx, base_, ro).tree;
    linear_ = core::LinearQuadTree::from(quad_);
    probe_quad_ = core::pmr_build(ctx, probe_, po).tree;
    probe_rtree_ = core::rtree_build(ctx, probe_, ro).tree;
  }

  std::unique_ptr<QueryEngine> make_engine() {
    auto e = std::make_unique<QueryEngine>();
    e->mount(&quad_);
    e->mount(&rtree_);
    e->mount(&linear_);
    return e;
  }

  std::vector<geom::Segment> base_, probe_;
  core::QuadTree quad_, probe_quad_;
  core::RTree rtree_, probe_rtree_;
  core::LinearQuadTree linear_;
};

TEST_F(ServeAnalyticsEngineTest, AggregateMatchesTheSeqBaselineBitwise) {
  auto engine = make_engine();
  const auto qa = core::build_agg_annotations(quad_);
  const auto ra = core::build_agg_annotations(rtree_);
  const auto la = core::build_agg_annotations(linear_);
  std::vector<Request> batch;
  for (const geom::Rect& w : test_windows()) {
    batch.push_back(Request::aggregate_query(IndexKind::kQuadTree, w));
    batch.push_back(Request::aggregate_query(IndexKind::kRTree, w));
    batch.push_back(Request::aggregate_query(IndexKind::kLinearQuadTree, w));
  }
  const auto responses = engine->serve(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(responses[i].status, Status::kOk) << "request " << i;
    const geom::Rect& w = batch[i].window;
    const core::WindowAggregate want =
        batch[i].index == IndexKind::kQuadTree
            ? core::window_aggregate_seq(quad_, qa, w)
            : batch[i].index == IndexKind::kRTree
                  ? core::window_aggregate_seq(rtree_, ra, w)
                  : core::window_aggregate_seq(linear_, la, w);
    EXPECT_EQ(responses[i].aggregate, want) << "request " << i;
    expect_close(responses[i].aggregate, oracle(base_, w), "engine", i);
  }
  const ServeMetrics m = engine->metrics();
  EXPECT_EQ(m.aggregate_requests, batch.size());
  EXPECT_GE(m.agg_annotation_builds, 3u);  // one per index, built lazily
}

TEST_F(ServeAnalyticsEngineTest, AggregateValidationRejectsBadWindows) {
  auto engine = make_engine();
  const double nan = std::nan("");
  const std::vector<Request> batch{
      Request::aggregate_query(IndexKind::kQuadTree, {nan, 0.0, 1.0, 1.0}),
      Request::aggregate_query(IndexKind::kRTree, {10.0, 10.0, 5.0, 20.0}),
      Request::aggregate_query(IndexKind::kQuadTree,
                               {0.0, 0.0, 1.0,
                                std::numeric_limits<double>::infinity()}),
  };
  for (const Response& rsp : engine->serve(batch)) {
    EXPECT_EQ(rsp.status, Status::kInvalidArgument);
  }
}

TEST_F(ServeAnalyticsEngineTest, JoinMatchesTheHostJoins) {
  auto engine = make_engine();
  engine->mount_probe(&probe_quad_, &probe_rtree_);
  const std::vector<Request> batch{
      Request::join_query(IndexKind::kQuadTree),
      Request::join_query(IndexKind::kRTree),
      Request::join_query(IndexKind::kLinearQuadTree),
  };
  const auto responses = engine->serve(batch);
  ASSERT_EQ(responses.size(), 3u);
  ASSERT_EQ(responses[0].status, Status::kOk);
  EXPECT_EQ(responses[0].pairs, core::spatial_join(quad_, probe_quad_));
  ASSERT_EQ(responses[1].status, Status::kOk);
  EXPECT_EQ(responses[1].pairs, core::rtree_join(rtree_, probe_rtree_));
  // The linear quadtree serves no joins.
  EXPECT_EQ(responses[2].status, Status::kRejected);
  const ServeMetrics m = engine->metrics();
  EXPECT_EQ(m.join_requests, 3u);
}

TEST_F(ServeAnalyticsEngineTest, JoinWithoutProbeIsInvalidArgument) {
  auto engine = make_engine();
  const std::vector<Request> batch{
      Request::join_query(IndexKind::kQuadTree),
      Request::join_query(IndexKind::kRTree),
  };
  for (const Response& rsp : engine->serve(batch)) {
    EXPECT_EQ(rsp.status, Status::kInvalidArgument);
  }
  // An explicitly unmounted (null) probe behaves the same.
  engine->mount_probe(&probe_quad_, &probe_rtree_);
  engine->mount_probe(nullptr, nullptr);
  for (const Response& rsp : engine->serve(batch)) {
    EXPECT_EQ(rsp.status, Status::kInvalidArgument);
  }
}

// ---- Cluster level. ----

struct SweepCase {
  std::size_t shards;
  bool cache_on;
};

class ServeAnalyticsClusterTest : public ::testing::TestWithParam<SweepCase> {
 protected:
  static ClusterOptions cluster_options(const SweepCase& c) {
    ClusterOptions co;
    co.shards = c.shards;
    co.cache.enabled = c.cache_on;
    co.engine.threads = 2;
    return co;
  }
};

TEST_P(ServeAnalyticsClusterTest, AggregateAndJoinMatchTheSingleEngine) {
  const SweepCase& c = GetParam();
  const auto base = make_map("uniform", 600, 303);
  const auto probe = make_map("roads", 300, 404, 20000);

  Cluster cluster(cluster_options(c));
  cluster.mount(base, mount_options());
  cluster.mount_probe(probe);

  // Whole-map twin: one engine, same builds, same probe.
  dpv::Context ctx;
  core::PmrBuildOptions po = mount_options().quad;
  po.world = kWorld;
  const core::QuadTree quad = core::pmr_build(ctx, base, po).tree;
  const core::RTree rtree =
      core::rtree_build(ctx, base, mount_options().rtree).tree;
  const core::QuadTree probe_quad = core::pmr_build(ctx, probe, po).tree;
  const core::RTree probe_rtree =
      core::rtree_build(ctx, probe, mount_options().rtree).tree;

  std::vector<Request> batch;
  for (const geom::Rect& w : test_windows()) {
    batch.push_back(Request::aggregate_query(IndexKind::kQuadTree, w));
    batch.push_back(Request::aggregate_query(IndexKind::kRTree, w));
    batch.push_back(Request::aggregate_query(IndexKind::kLinearQuadTree, w));
  }
  batch.push_back(Request::join_query(IndexKind::kQuadTree));
  batch.push_back(Request::join_query(IndexKind::kRTree));

  // Serve twice: the second pass exercises the cache-hit path when on.
  for (int pass = 0; pass < 2; ++pass) {
    const auto responses = cluster.serve(batch);
    ASSERT_EQ(responses.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(responses[i].status, Status::kOk)
          << "pass " << pass << " request " << i;
      if (batch[i].kind == RequestKind::kAggregate) {
        expect_close(responses[i].aggregate, oracle(base, batch[i].window),
                     c.cache_on ? "cluster-cached" : "cluster", i);
      } else {
        EXPECT_EQ(responses[i].pairs,
                  batch[i].index == IndexKind::kQuadTree
                      ? core::spatial_join(quad, probe_quad)
                      : core::rtree_join(rtree, probe_rtree))
            << "pass " << pass << " request " << i;
      }
    }
  }
  if (c.cache_on) {
    EXPECT_GT(cluster.metrics().cache_hits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardSweep, ServeAnalyticsClusterTest,
    ::testing::Values(SweepCase{1, false}, SweepCase{2, false},
                      SweepCase{4, true}, SweepCase{8, false}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return "shards" + std::to_string(info.param.shards) +
             (info.param.cache_on ? "_cache" : "");
    });

TEST(ServeAnalyticsCluster, BoundaryCloneIsCountedOnce) {
  // Segments straddling the 2-way shard cut are cloned into both shards;
  // a window straddling the same cut must count each exactly once.
  std::vector<geom::Segment> lines;
  for (std::size_t i = 0; i < 40; ++i) {
    const double y = 20.0 + static_cast<double>(i) * 24.0;
    lines.push_back({{480.0, y}, {544.0, y + 7.0},
                     static_cast<geom::LineId>(i)});
  }
  ClusterOptions co;
  co.shards = 2;
  Cluster cluster(co);
  cluster.mount(lines, mount_options());

  const geom::Rect window{400.0, 0.0, 620.0, kWorld};
  const auto responses = cluster.serve(
      {Request::aggregate_query(IndexKind::kQuadTree, window)});
  ASSERT_EQ(responses[0].status, Status::kOk);
  EXPECT_EQ(responses[0].aggregate.count, lines.size());
  expect_close(responses[0].aggregate, oracle(lines, window), "boundary", 0);
}

TEST(ServeAnalyticsCluster, JoinProbeGateAndRemountSemantics) {
  const auto base = make_map("uniform", 300, 55);
  const auto probe = make_map("uniform", 200, 66, 5000);
  ClusterOptions co;
  co.shards = 4;
  Cluster cluster(co);
  cluster.mount(base, mount_options());

  const std::vector<Request> join{Request::join_query(IndexKind::kQuadTree)};
  // No probe mounted yet.
  EXPECT_EQ(cluster.serve(join)[0].status, Status::kInvalidArgument);
  // An empty probe map is a caller error too.
  cluster.mount_probe({});
  EXPECT_EQ(cluster.serve(join)[0].status, Status::kInvalidArgument);

  cluster.mount_probe(probe);
  EXPECT_EQ(cluster.serve(join)[0].status, Status::kOk);

  // A base remount drops the probe (its shards were cut by the old plan).
  cluster.mount(base, mount_options());
  EXPECT_EQ(cluster.serve(join)[0].status, Status::kInvalidArgument);
  cluster.mount_probe(probe);
  EXPECT_EQ(cluster.serve(join)[0].status, Status::kOk);
}

TEST(ServeAnalyticsCluster, LiveUpdatesKeepAggregatesAndJoinsExact) {
  auto live = make_map("clustered", 400, 99);
  const auto probe = make_map("uniform", 250, 111, 30000);
  ClusterOptions co;
  co.shards = 4;
  Cluster cluster(co);
  cluster.mount(live, mount_options());
  cluster.mount_probe(probe);

  const geom::Rect hot{450.0, 450.0, 600.0, 600.0};
  const std::vector<Request> batch{
      Request::aggregate_query(IndexKind::kQuadTree, hot),
      Request::join_query(IndexKind::kQuadTree),
  };
  // Warm the cache with the pre-update answers.
  {
    const auto pre = cluster.serve(batch);
    ASSERT_EQ(pre[0].status, Status::kOk);
    expect_close(pre[0].aggregate, oracle(live, hot), "pre-update", 0);
  }

  // Insert lines inside the hot window, delete a few existing ones.
  UpdateBatch up;
  for (std::size_t i = 0; i < 24; ++i) {
    const double x = 460.0 + static_cast<double>(i * 5 % 120);
    const double y = 470.0 + static_cast<double>(i * 11 % 110);
    up.inserts.push_back({{x, y}, {x + 13.0, y + 4.0},
                          static_cast<geom::LineId>(500000 + i)});
  }
  for (std::size_t i = 0; i < 10; ++i) up.deletes.push_back(live[i * 7].id);
  const UpdateResult res = cluster.apply_update(up);
  ASSERT_TRUE(res.ok());

  // Brute-force twin of the post-update map.
  std::vector<geom::Segment> twin;
  for (const geom::Segment& s : live) {
    bool doomed = false;
    for (const geom::LineId id : up.deletes) doomed = doomed || id == s.id;
    if (!doomed) twin.push_back(s);
  }
  twin.insert(twin.end(), up.inserts.begin(), up.inserts.end());

  const auto post = cluster.serve(batch);
  ASSERT_EQ(post[0].status, Status::kOk);
  expect_close(post[0].aggregate, oracle(twin, hot), "post-update", 0);
  EXPECT_NE(post[0].aggregate.count, oracle(live, hot).count)
      << "update should have changed the hot window's aggregate";

  // The join pairs the *updated* base against the static probe snapshot.
  dpv::Context ctx;
  core::PmrBuildOptions po = mount_options().quad;
  po.world = kWorld;
  const core::QuadTree twin_quad = core::pmr_build(ctx, twin, po).tree;
  const core::QuadTree probe_quad = core::pmr_build(ctx, probe, po).tree;
  ASSERT_EQ(post[1].status, Status::kOk);
  EXPECT_EQ(post[1].pairs, core::spatial_join(twin_quad, probe_quad));
}

// ---- Support matrix: every layer settles every (kind, index) alike. ----

// All 15 (kind, index) pairs, with and without a probe map: the engine's
// batch path, its sequential oracle, the cluster door at 1 and 4 shards,
// and the kind table agree on kOk / kRejected / kInvalidArgument.  The
// linear quadtree answers neither k-nearest nor joins; a join without a
// probe map is a caller error.
TEST_F(ServeAnalyticsEngineTest, SupportMatrixAgreesAcrossLayers) {
  const geom::Rect w{100.0, 100.0, 260.0, 220.0};
  const geom::Point p = base_[7].mid();
  const auto request = [&](RequestKind kind, IndexKind idx) {
    switch (kind) {
      case RequestKind::kWindow: return Request::window_query(idx, w);
      case RequestKind::kPoint: return Request::point_query(idx, p);
      case RequestKind::kNearest: return Request::nearest_query(idx, p, 3);
      case RequestKind::kAggregate: return Request::aggregate_query(idx, w);
      case RequestKind::kJoin: break;
    }
    return Request::join_query(idx);
  };
  for (const bool with_probe : {true, false}) {
    auto engine = make_engine();
    if (with_probe) engine->mount_probe(&probe_quad_, &probe_rtree_);
    std::vector<std::unique_ptr<Cluster>> clusters;
    for (const std::size_t shards : {1u, 4u}) {
      ClusterOptions co;
      co.shards = shards;
      clusters.push_back(std::make_unique<Cluster>(co));
      clusters.back()->mount(base_, mount_options());
      if (with_probe) clusters.back()->mount_probe(probe_);
    }
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      for (std::size_t i = 0; i < kNumIndexes; ++i) {
        const auto kind = static_cast<RequestKind>(k);
        const auto idx = static_cast<IndexKind>(i);
        SCOPED_TRACE(::testing::Message() << "kind " << k << ", index " << i
                                          << ", probe " << with_probe);
        const bool supported =
            idx != IndexKind::kLinearQuadTree ||
            (kind != RequestKind::kNearest && kind != RequestKind::kJoin);
        const Status want = !supported ? Status::kRejected
                            : kind == RequestKind::kJoin && !with_probe
                                ? Status::kInvalidArgument
                                : Status::kOk;
        const KindOps& ops = kind_ops(kind);
        EXPECT_EQ(ops.supports(idx), supported);
        EXPECT_EQ(ops.needs_probe, kind == RequestKind::kJoin);

        const Request rq = request(kind, idx);
        EXPECT_EQ(engine->serve({rq})[0].status, want) << "engine serve";
        Response oracle_rsp;
        EXPECT_EQ(engine->run_oracle(rq, oracle_rsp), want) << "run_oracle";
        for (const auto& c : clusters) {
          EXPECT_EQ(c->serve({rq})[0].status, want)
              << "cluster, " << c->shards() << " shards";
        }
      }
    }
  }
}

// ---- Cache canonicalization hardening (all five kinds). ----

TEST(ServeAnalyticsCache, CanonicalKeysZeroEveryUnusedPayloadField) {
  const geom::Rect w{1.5, 2.5, 3.5, 4.5};
  const geom::Point p{7.25, 8.75};

  // Garbage the builders never set must not reach the key.
  auto garbage = [](Request rq) {
    switch (rq.kind) {
      case RequestKind::kWindow:
      case RequestKind::kAggregate:
        rq.point = {123.0, 456.0};
        rq.k = 99;
        break;
      case RequestKind::kPoint:
        rq.window = {9.0, 9.0, 99.0, 99.0};
        rq.k = 42;
        break;
      case RequestKind::kNearest:
        rq.window = {1.0, 2.0, 3.0, 4.0};
        break;
      case RequestKind::kJoin:
        rq.window = {5.0, 6.0, 7.0, 8.0};
        rq.point = {11.0, 12.0};
        rq.k = 7;
        break;
    }
    return rq;
  };

  const std::vector<Request> clean{
      Request::window_query(IndexKind::kQuadTree, w),
      Request::point_query(IndexKind::kRTree, p),
      Request::nearest_query(IndexKind::kQuadTree, p, 3),
      Request::aggregate_query(IndexKind::kLinearQuadTree, w),
      Request::join_query(IndexKind::kRTree),
  };
  for (const Request& rq : clean) {
    EXPECT_EQ(ResultCache::canonical_key(rq),
              ResultCache::canonical_key(garbage(rq)))
        << "kind " << static_cast<int>(rq.kind);
  }

  // The join key carries no geometry at all.
  const ResultCache::Key jk =
      ResultCache::canonical_key(Request::join_query(IndexKind::kRTree));
  EXPECT_EQ(jk.g0, 0u);
  EXPECT_EQ(jk.g1, 0u);
  EXPECT_EQ(jk.g2, 0u);
  EXPECT_EQ(jk.g3, 0u);
  EXPECT_EQ(jk.k, 0u);

  // -0.0 folds to 0.0 for aggregate windows like for plain windows.
  const ResultCache::Key neg = ResultCache::canonical_key(
      Request::aggregate_query(IndexKind::kQuadTree, {-0.0, -0.0, 4.0, 4.0}));
  const ResultCache::Key pos = ResultCache::canonical_key(
      Request::aggregate_query(IndexKind::kQuadTree, {0.0, 0.0, 4.0, 4.0}));
  EXPECT_EQ(neg, pos);
}

}  // namespace
}  // namespace dps::serve
