// Oracular dispatch at the engine level: the DispatchMode escape hatches,
// the static-threshold compatibility mode, warmed-coefficient steering,
// the hybrid k-nearest split, chaos-mode exactness, and cluster ledger
// sharing.  Every path must answer byte-identically to the sequential
// oracle -- dispatch picks *when* work runs data-parallel, never *what*
// the answer is.

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "core/core.hpp"
#include "data/mapgen.hpp"
#include "serve/cluster.hpp"
#include "serve/engine.hpp"
#include "test_util.hpp"

namespace dps::serve {
namespace {

class ServeDispatchTest : public ::testing::Test {
 protected:
  // These tests check the model's own decisions: an environment-wide
  // DPS_DISPATCH_FORCE must not override them.
  const test::DispatchForceScope unforced_{test::kUnforced};

  void SetUp() override {
    lines_ = data::uniform_segments(500, kWorld, 25.0, 4242);
    dpv::Context ctx;
    core::PmrBuildOptions po;
    po.world = kWorld;
    po.max_depth = 10;
    po.bucket_capacity = 4;
    quad_ = core::pmr_build(ctx, lines_, po).tree;
    core::RtreeBuildOptions ro;
    ro.m = 2;
    ro.M = 8;
    rtree_ = core::rtree_build(ctx, lines_, ro).tree;
    linear_ = core::LinearQuadTree::from(quad_);
  }

  std::unique_ptr<QueryEngine> make_engine(EngineOptions opts = {}) {
    auto e = std::make_unique<QueryEngine>(opts);
    e->mount(&quad_);
    e->mount(&rtree_);
    e->mount(&linear_);
    return e;
  }

  std::vector<Request> mixed_requests(std::size_t n) const {
    std::vector<Request> batch;
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double x = static_cast<double>((i * 131) % 900);
      const double y = static_cast<double>((i * 79) % 900);
      const auto idx = static_cast<IndexKind>(i % 3);
      switch (i % 4) {
        case 0:
          batch.push_back(
              Request::window_query(idx, {x, y, x + 80.0, y + 60.0}));
          break;
        case 1:
          batch.push_back(
              Request::point_query(idx, lines_[i % lines_.size()].mid()));
          break;
        case 2:
          batch.push_back(Request::point_query(idx, {x + 0.5, y + 0.5}));
          break;
        default:
          batch.push_back(Request::nearest_query(
              idx == IndexKind::kLinearQuadTree ? IndexKind::kQuadTree : idx,
              {x, y}, 1 + i % 4));
          break;
      }
    }
    return batch;
  }

  std::vector<Request> knn_requests(std::size_t n, std::size_t k) const {
    std::vector<Request> batch;
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(Request::nearest_query(
          IndexKind::kQuadTree,
          {static_cast<double>((i * 97) % 900),
           static_cast<double>((i * 61) % 900)},
          k));
    }
    return batch;
  }

  Response expect_for(const Request& rq) const {
    Response rsp;
    switch (rq.kind) {
      case RequestKind::kWindow:
        rsp.ids = rq.index == IndexKind::kQuadTree
                      ? core::window_query(quad_, rq.window)
                      : rq.index == IndexKind::kRTree
                            ? core::window_query(rtree_, rq.window)
                            : linear_.window_query(rq.window);
        break;
      case RequestKind::kPoint:
        rsp.ids = rq.index == IndexKind::kQuadTree
                      ? core::point_query(quad_, rq.point)
                      : rq.index == IndexKind::kRTree
                            ? core::point_query(rtree_, rq.point)
                            : linear_.point_query(rq.point);
        break;
      case RequestKind::kNearest:
        rsp.neighbors = rq.index == IndexKind::kQuadTree
                            ? core::k_nearest(quad_, rq.point, rq.k)
                            : core::k_nearest(rtree_, rq.point, rq.k);
        break;
    }
    return rsp;
  }

  void expect_matches_sequential(const std::vector<Request>& batch,
                                 const std::vector<Response>& responses,
                                 const char* label) const {
    ASSERT_EQ(responses.size(), batch.size()) << label;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(responses[i].status, Status::kOk)
          << label << " request " << i;
      const Response want = expect_for(batch[i]);
      EXPECT_EQ(responses[i].ids, want.ids) << label << " request " << i;
      ASSERT_EQ(responses[i].neighbors.size(), want.neighbors.size())
          << label << " request " << i;
      for (std::size_t j = 0; j < want.neighbors.size(); ++j) {
        EXPECT_EQ(responses[i].neighbors[j].id, want.neighbors[j].id);
        EXPECT_DOUBLE_EQ(responses[i].neighbors[j].distance2,
                         want.neighbors[j].distance2);
      }
    }
  }

  /// The shape the engine hands the cost model for a group of `n` requests
  /// (mirrors QueryEngine::group_shape; its ordinals are the enum values).
  dpv::GroupShape gshape(RequestKind kind, IndexKind index, std::size_t n,
                         std::size_t k) const {
    dpv::GroupShape g;
    g.kind = static_cast<int>(kind);
    g.index = static_cast<int>(index);
    g.group_size = n;
    g.map_elements = index == IndexKind::kQuadTree
                         ? quad_.num_qedges()
                         : index == IndexKind::kRTree
                               ? rtree_.entries().size()
                               : linear_.edges().size();
    g.mean_k = k;
    return g;
  }

  /// Snapshot entry asserting `us_per_query` for the cell of shape `g`
  /// down `path`, with enough samples to dominate any live measurement.
  static void teach(dpv::CostModelSnapshot& snap, const dpv::GroupShape& g,
                    dpv::CostPath path, double us_per_query) {
    snap.entries.push_back({dpv::CostModel::cell_key(g, path), 1000,
                            us_per_query,
                            static_cast<double>(g.group_size)});
  }

  /// Options with the model's deterministic probes off, so warmed
  /// coefficients alone decide (no explore/refresh flips mid-test).
  static EngineOptions model_options() {
    EngineOptions opts;
    opts.shards = 1;
    opts.threads = 1;
    opts.dispatch = DispatchMode::kModel;
    opts.cost_model.explore_period = 0;
    opts.cost_model.refresh_period = 0;
    return opts;
  }

  static constexpr double kWorld = 1024.0;
  std::vector<geom::Segment> lines_;
  core::QuadTree quad_;
  core::RTree rtree_;
  core::LinearQuadTree linear_;
};

TEST_F(ServeDispatchTest, ForceDpRunsEveryGroupDataParallel) {
  EngineOptions opts;
  opts.shards = 2;
  opts.dispatch = DispatchMode::kForceDp;
  opts.min_dp_batch = 1000000;  // must be ignored under kForceDp
  auto engine = make_engine(opts);
  const auto batch = mixed_requests(120);
  expect_matches_sequential(batch, engine->serve(batch), "force-dp");
  const ServeMetrics m = engine->metrics();
  EXPECT_GT(m.dp_groups, 0u);
  EXPECT_EQ(m.seq_groups, 0u);
  EXPECT_GT(m.prims.total_invocations(), 0u);
}

TEST_F(ServeDispatchTest, ForceSeqNeverTouchesThePipelines) {
  EngineOptions opts;
  opts.shards = 2;
  opts.dispatch = DispatchMode::kForceSeq;
  opts.min_dp_batch = 1;  // must be ignored under kForceSeq
  auto engine = make_engine(opts);
  const auto batch = mixed_requests(120);
  expect_matches_sequential(batch, engine->serve(batch), "force-seq");
  const ServeMetrics m = engine->metrics();
  EXPECT_EQ(m.dp_groups, 0u);
  EXPECT_GT(m.seq_groups, 0u);
  EXPECT_EQ(m.prims.total_invocations(), 0u);
}

TEST_F(ServeDispatchTest, StaticModeHonorsTheThreshold) {
  for (const std::size_t threshold : {std::size_t{1}, std::size_t{1000}}) {
    EngineOptions opts;
    opts.shards = 1;
    opts.dispatch = DispatchMode::kStatic;
    opts.min_dp_batch = threshold;
    auto engine = make_engine(opts);
    const auto batch = mixed_requests(90);
    expect_matches_sequential(batch, engine->serve(batch), "static");
    const ServeMetrics m = engine->metrics();
    if (threshold == 1) {
      EXPECT_EQ(m.seq_groups, 0u) << "threshold " << threshold;
      EXPECT_GT(m.dp_groups, 0u);
    } else {
      EXPECT_EQ(m.dp_groups, 0u) << "threshold " << threshold;
      EXPECT_GT(m.seq_groups, 0u);
    }
  }
}

TEST_F(ServeDispatchTest, WarmedCoefficientsSteerWindowGroups) {
  // One homogeneous 64-request window group; warmed measurements say the
  // sequential path is 100x faster, so the model must ignore the bootstrap
  // prior (64 >= 8) and sweep sequentially -- and flip back when the
  // warmed coefficients say the opposite.
  const auto batch = [&] {
    std::vector<Request> b;
    for (std::size_t i = 0; i < 64; ++i) {
      const double x = static_cast<double>((i * 131) % 900);
      b.push_back(Request::window_query(IndexKind::kQuadTree,
                                        {x, x, x + 80.0, x + 60.0}));
    }
    return b;
  }();
  const auto g =
      gshape(RequestKind::kWindow, IndexKind::kQuadTree, 64, 0);

  for (const bool seq_wins : {true, false}) {
    auto engine = make_engine(model_options());
    dpv::CostModelSnapshot snap;
    teach(snap, g, dpv::CostPath::kSeq, seq_wins ? 1.0 : 100.0);
    teach(snap, g, dpv::CostPath::kDp, seq_wins ? 100.0 : 1.0);
    engine->warm_cost_model(snap);
    expect_matches_sequential(batch, engine->serve(batch), "warmed-window");
    const ServeMetrics m = engine->metrics();
    if (seq_wins) {
      EXPECT_EQ(m.dp_groups, 0u);
      EXPECT_EQ(m.seq_groups, 1u);
    } else {
      EXPECT_EQ(m.dp_groups, 1u);
      EXPECT_EQ(m.seq_groups, 0u);
    }
  }
}

TEST_F(ServeDispatchTest, HybridSplitPeelsTheSeqWinningKBucket) {
  // 40 small-k and 40 large-k k-nearest requests in one shard group.
  // Warmed coefficients make sequential win the small-k bucket by far more
  // than the hybrid margin and dp win the large-k bucket, so the group
  // must split: one dp sub-group, one sequential sub-group, counted as a
  // hybrid -- with answers still byte-identical to the oracle.
  std::vector<Request> batch = knn_requests(40, 2);
  const auto large = knn_requests(40, 32);
  batch.insert(batch.end(), large.begin(), large.end());

  auto engine = make_engine(model_options());
  dpv::CostModelSnapshot snap;
  const auto small_g =
      gshape(RequestKind::kNearest, IndexKind::kQuadTree, 40, 2);
  const auto large_g =
      gshape(RequestKind::kNearest, IndexKind::kQuadTree, 40, 32);
  teach(snap, small_g, dpv::CostPath::kSeq, 1.0);
  teach(snap, small_g, dpv::CostPath::kDp, 100.0);
  teach(snap, large_g, dpv::CostPath::kSeq, 100.0);
  teach(snap, large_g, dpv::CostPath::kDp, 1.0);
  engine->warm_cost_model(snap);

  expect_matches_sequential(batch, engine->serve(batch), "hybrid");
  const ServeMetrics m = engine->metrics();
  EXPECT_EQ(m.hybrid_groups, 1u);
  EXPECT_EQ(m.dp_groups, 1u);
  EXPECT_EQ(m.seq_groups, 1u);
}

TEST_F(ServeDispatchTest, HybridMarginKeepsMarginalBucketsInTheDpGroup) {
  // Same split, but the small-k bucket's measured sequential win (5%) is
  // inside the 10% hybrid margin: peeling is not worth shrinking the dp
  // group, so the whole group must run as one dp shot.
  std::vector<Request> batch = knn_requests(40, 2);
  const auto large = knn_requests(40, 32);
  batch.insert(batch.end(), large.begin(), large.end());

  auto engine = make_engine(model_options());
  dpv::CostModelSnapshot snap;
  const auto small_g =
      gshape(RequestKind::kNearest, IndexKind::kQuadTree, 40, 2);
  const auto large_g =
      gshape(RequestKind::kNearest, IndexKind::kQuadTree, 40, 32);
  teach(snap, small_g, dpv::CostPath::kSeq, 0.95);
  teach(snap, small_g, dpv::CostPath::kDp, 1.0);
  teach(snap, large_g, dpv::CostPath::kSeq, 100.0);
  teach(snap, large_g, dpv::CostPath::kDp, 1.0);
  engine->warm_cost_model(snap);

  expect_matches_sequential(batch, engine->serve(batch), "margin");
  const ServeMetrics m = engine->metrics();
  EXPECT_EQ(m.hybrid_groups, 0u);
  EXPECT_EQ(m.seq_groups, 0u);
  EXPECT_EQ(m.dp_groups, 1u);
}

TEST_F(ServeDispatchTest, ModelConvergesOnTheEmpiricallyFasterPath) {
  // End-to-end convergence, no warming: serve the same homogeneous window
  // batch repeatedly and let the engine measure both paths itself (the
  // explore probe guarantees the unmeasured side gets sampled).  After the
  // warm-up the model must have trusted measurements for both paths and
  // every subsequent batch must take the argmin side -- whichever that is
  // on this host -- rather than the bootstrap prior.
  EngineOptions opts = model_options();
  opts.cost_model.explore_period = 2;  // probe early, converge fast
  auto engine = make_engine(opts);
  const auto batch = [&] {
    std::vector<Request> b;
    for (std::size_t i = 0; i < 256; ++i) {
      const double x = static_cast<double>((i * 37) % 900);
      b.push_back(Request::window_query(IndexKind::kQuadTree,
                                        {x, x, x + 60.0, x + 60.0}));
    }
    return b;
  }();
  for (int i = 0; i < 24; ++i) engine->serve(batch);

  const dpv::GroupShape g =
      gshape(RequestKind::kWindow, IndexKind::kQuadTree, batch.size(), 0);
  dpv::CostModel probe(opts.cost_model);
  probe.warm(engine->cost_model_snapshot());
  const double seq_us = probe.estimate_us(g, dpv::CostPath::kSeq);
  const double dp_us = probe.estimate_us(g, dpv::CostPath::kDp);
  ASSERT_GE(seq_us, 0.0) << "sequential path never measured";
  ASSERT_GE(dp_us, 0.0) << "dp path never measured";

  engine->reset_metrics();
  expect_matches_sequential(batch, engine->serve(batch), "converged");
  const ServeMetrics m = engine->metrics();
  if (dp_us <= seq_us) {
    EXPECT_EQ(m.dp_groups, 1u) << "dp measured faster but was not chosen";
  } else {
    EXPECT_EQ(m.seq_groups, 1u) << "seq measured faster but was not chosen";
  }
}

TEST_F(ServeDispatchTest, EveryDispatchModeMatchesTheOracleUnderChaos) {
  // dp / seq / hybrid / static must return byte-identical answers even
  // while a chaos schedule aborts pipelines mid-flight.  The model never
  // observes under an injector, so its decisions stay prior-driven and
  // deterministic here.
  dpv::FaultSchedule schedule;
  schedule.seed = test::chaos_seed(77);
  schedule.primitive_fail_rate = 0.3;
  const auto batch = mixed_requests(160);
  for (const DispatchMode mode :
       {DispatchMode::kModel, DispatchMode::kStatic, DispatchMode::kForceDp,
        DispatchMode::kForceSeq}) {
    dpv::FaultInjector inj(schedule);
    EngineOptions opts;
    opts.shards = 4;
    opts.threads = 4;
    opts.min_dp_batch = 4;
    opts.dispatch = mode;
    opts.backoff_base = std::chrono::microseconds(5);
    opts.fault_injector = &inj;
    auto engine = make_engine(opts);
    expect_matches_sequential(batch, engine->serve(batch), "chaos-mode");
  }
}

TEST_F(ServeDispatchTest, ChaosWallClocksNeverFeedTheModel) {
  // An engine with an armed injector must not learn: stalled lanes and
  // retried attempts would poison the estimator.
  dpv::FaultSchedule schedule;
  schedule.seed = test::chaos_seed(78);
  schedule.primitive_fail_rate = 0.2;
  dpv::FaultInjector inj(schedule);
  EngineOptions opts;
  opts.shards = 2;
  opts.min_dp_batch = 4;
  opts.backoff_base = std::chrono::microseconds(5);
  opts.fault_injector = &inj;
  auto engine = make_engine(opts);
  engine->serve(mixed_requests(160));
  EXPECT_TRUE(engine->cost_model_snapshot().empty());
}

TEST_F(ServeDispatchTest, MetricsExposeTheModelSnapshot) {
  auto engine = make_engine(model_options());
  const auto batch = mixed_requests(128);
  engine->serve(batch);
  const ServeMetrics m = engine->metrics();
  // A clean serve measured at least the paths it ran.
  EXPECT_FALSE(m.cost_model.empty());
  // The snapshot rides metrics merging: folding two snapshots keeps the
  // better-trained cell per key.
  ServeMetrics fold;
  fold += m;
  fold += m;
  EXPECT_EQ(fold.cost_model.entries.size(), m.cost_model.entries.size());
}

TEST_F(ServeDispatchTest, ClusterReplicasWarmFromEachOthersLedgers) {
  ClusterOptions co;
  co.shards = 2;
  co.engine.shards = 1;
  co.engine.threads = 1;
  co.engine.min_dp_batch = 8;
  Cluster cluster(co);
  ClusterMountOptions mo;
  mo.world = kWorld;
  mo.quad.max_depth = 10;
  mo.quad.bucket_capacity = 4;
  mo.rtree.m = 2;
  mo.rtree.M = 8;
  cluster.mount(lines_, mo);

  // Traffic confined to shard 0's footprint: only replica 0 learns.
  const geom::Rect fp0 = cluster.plan().footprints[0];
  std::vector<Request> batch;
  for (std::size_t i = 0; i < 64; ++i) {
    const double x =
        fp0.xmin + static_cast<double>(i % 8) / 8.0 * (fp0.xmax - fp0.xmin);
    const double y =
        fp0.ymin + static_cast<double>(i / 8) / 8.0 * (fp0.ymax - fp0.ymin);
    batch.push_back(Request::window_query(
        IndexKind::kQuadTree,
        {x, y, std::min(fp0.xmax, x + 20.0), std::min(fp0.ymax, y + 20.0)}));
  }
  for (int i = 0; i < 4; ++i) cluster.serve(batch);

  const auto before = cluster.engine(1).cost_model_snapshot();
  const dpv::CostModelSnapshot merged = cluster.share_cost_models();
  EXPECT_FALSE(merged.empty());
  const auto after = cluster.engine(1).cost_model_snapshot();
  // Replica 1 now holds every cell the fleet learned (cells it had never
  // seen included), and a second share is a no-op (idempotent).
  EXPECT_GE(after.entries.size(), merged.entries.size());
  EXPECT_GE(after.entries.size(), before.entries.size());
  for (const auto& e : merged.entries) {
    bool found = false;
    for (const auto& r : after.entries) {
      if (r.key == e.key) {
        found = r.samples >= e.samples;
        break;
      }
    }
    EXPECT_TRUE(found) << "cell " << e.key << " missing on replica 1";
  }
  const dpv::CostModelSnapshot again = cluster.share_cost_models();
  EXPECT_EQ(again.entries.size(), merged.entries.size());
}

TEST_F(ServeDispatchTest, AggregateGroupsConvergeOnTheirOwnFamily) {
  // Range-aggregate groups key their own cost-model family (GroupShape
  // kind = kAggregate): serving homogeneous aggregate batches must train
  // that family's cells -- independent of the window family -- and later
  // batches must take whichever path measured faster, while every answer
  // stays bitwise equal to the annotated sequential baseline.
  EngineOptions opts = model_options();
  opts.cost_model.explore_period = 2;
  auto engine = make_engine(opts);
  const auto batch = [&] {
    std::vector<Request> b;
    for (std::size_t i = 0; i < 256; ++i) {
      const double x = static_cast<double>((i * 53) % 900);
      b.push_back(Request::aggregate_query(IndexKind::kQuadTree,
                                           {x, x, x + 70.0, x + 70.0}));
    }
    return b;
  }();
  for (int i = 0; i < 24; ++i) engine->serve(batch);

  const dpv::GroupShape g =
      gshape(RequestKind::kAggregate, IndexKind::kQuadTree, batch.size(), 0);
  dpv::CostModel probe(opts.cost_model);
  probe.warm(engine->cost_model_snapshot());
  const double seq_us = probe.estimate_us(g, dpv::CostPath::kSeq);
  const double dp_us = probe.estimate_us(g, dpv::CostPath::kDp);
  ASSERT_GE(seq_us, 0.0) << "aggregate sequential path never measured";
  ASSERT_GE(dp_us, 0.0) << "aggregate dp path never measured";

  engine->reset_metrics();
  const auto responses = engine->serve(batch);
  const auto ann = core::build_agg_annotations(quad_);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(responses[i].status, Status::kOk) << "request " << i;
    EXPECT_EQ(responses[i].aggregate,
              core::window_aggregate_seq(quad_, ann, batch[i].window))
        << "request " << i;
  }
  const ServeMetrics m = engine->metrics();
  EXPECT_EQ(m.aggregate_requests, batch.size());
  if (dp_us <= seq_us) {
    EXPECT_EQ(m.dp_groups, 1u) << "dp measured faster but was not chosen";
  } else {
    EXPECT_EQ(m.seq_groups, 1u) << "seq measured faster but was not chosen";
  }
}

}  // namespace
}  // namespace dps::serve
