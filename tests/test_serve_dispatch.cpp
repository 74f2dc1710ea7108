// Oracular dispatch at the engine level: the force override, the untrained
// model's min_dp_batch prior, sequential k-nearest, warmed-coefficient
// steering, model convergence, chaos-mode exactness, and cluster ledger
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

constexpr int kForceDp = static_cast<int>(dpv::CostPath::kDp);
constexpr int kForceSeq = static_cast<int>(dpv::CostPath::kSeq);

class ServeDispatchTest : public ::testing::Test {
 protected:
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
  }

  std::unique_ptr<QueryEngine> make_engine(EngineOptions opts = {}) {
    auto e = std::make_unique<QueryEngine>(opts);
    e->mount(&quad_);
    e->mount(&rtree_);
    return e;
  }

  std::vector<Request> mixed_requests(std::size_t n) const {
    std::vector<Request> batch;
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double x = static_cast<double>((i * 131) % 900);
      const double y = static_cast<double>((i * 79) % 900);
      // Four kinds per index, then the other index: every (kind, index)
      // pair recurs.
      const auto idx = static_cast<IndexKind>((i / 4) % 2);
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
          batch.push_back(Request::nearest_query(idx, {x, y}, 1 + i % 4));
          break;
      }
    }
    return batch;
  }

  /// `mixed_requests` without its k-nearest requests: every group has a
  /// data-parallel kernel.
  std::vector<Request> dp_kernel_requests(std::size_t n) const {
    std::vector<Request> batch = mixed_requests(n);
    std::erase_if(batch, [](const Request& rq) {
      return rq.kind == RequestKind::kNearest;
    });
    return batch;
  }

  /// k-nearest requests alternating between the quadtree and the R-tree,
  /// k in [1, 16].
  std::vector<Request> knn_requests(std::size_t n) const {
    std::vector<Request> batch;
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(Request::nearest_query(
          i % 2 == 0 ? IndexKind::kQuadTree : IndexKind::kRTree,
          {static_cast<double>((i * 97) % 900),
           static_cast<double>((i * 61) % 900)},
          1 + i % 16));
    }
    return batch;
  }

  Response expect_for(const Request& rq) const {
    Response rsp;
    switch (rq.kind) {
      case RequestKind::kWindow:
        rsp.ids = rq.index == IndexKind::kQuadTree
                      ? core::window_query(quad_, rq.window)
                      : core::window_query(rtree_, rq.window);
        break;
      case RequestKind::kPoint:
        rsp.ids = rq.index == IndexKind::kQuadTree
                      ? core::point_query(quad_, rq.point)
                      : core::point_query(rtree_, rq.point);
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
  dpv::GroupShape gshape(RequestKind kind, IndexKind index,
                         std::size_t n) const {
    dpv::GroupShape g;
    g.kind = static_cast<int>(kind);
    g.index = static_cast<int>(index);
    g.group_size = n;
    g.map_elements = index == IndexKind::kQuadTree ? quad_.num_qedges()
                                                   : rtree_.entries().size();
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
    opts.cost_model.explore_period = 0;
    opts.cost_model.refresh_period = 0;
    return opts;
  }

  static constexpr double kWorld = 1024.0;
  std::vector<geom::Segment> lines_;
  core::QuadTree quad_;
  core::RTree rtree_;
};

TEST_F(ServeDispatchTest, ForceDpRunsEveryGroupDataParallel) {
  const test::DispatchForceScope force(kForceDp);
  EngineOptions opts;
  opts.shards = 2;
  opts.min_dp_batch = 1000000;  // must be ignored under the force
  auto engine = make_engine(opts);
  const auto batch = dp_kernel_requests(120);
  expect_matches_sequential(batch, engine->serve(batch), "force-dp");
  const ServeMetrics m = engine->metrics();
  EXPECT_GT(m.dp_groups, 0u);
  EXPECT_EQ(m.seq_groups, 0u);
  EXPECT_GT(m.prims.total_invocations(), 0u);
}

TEST_F(ServeDispatchTest, ForceSeqNeverTouchesThePipelines) {
  const test::DispatchForceScope force(kForceSeq);
  EngineOptions opts;
  opts.shards = 2;
  opts.min_dp_batch = 1;  // must be ignored under the force
  auto engine = make_engine(opts);
  const auto batch = mixed_requests(120);
  expect_matches_sequential(batch, engine->serve(batch), "force-seq");
  const ServeMetrics m = engine->metrics();
  EXPECT_EQ(m.dp_groups, 0u);
  EXPECT_GT(m.seq_groups, 0u);
  EXPECT_EQ(m.prims.total_invocations(), 0u);
}

TEST_F(ServeDispatchTest, StaticModeHonorsTheThreshold) {
  // An untrained model has no measurements, so a fresh engine's first
  // serve is decided by the static min_dp_batch prior alone.
  for (const std::size_t threshold : {std::size_t{1}, std::size_t{1000}}) {
    EngineOptions opts;
    opts.shards = 1;
    opts.min_dp_batch = threshold;
    auto engine = make_engine(opts);
    const auto batch = dp_kernel_requests(90);
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

TEST_F(ServeDispatchTest, MixedBatchSplitsNearestFromDpKernelGroups) {
  // One batch holding every kind: under a forced dp path the window and
  // point groups take their pipelines while the k-nearest groups (one per
  // tree index) sweep sequentially, and no group is split.
  const test::DispatchForceScope force(kForceDp);
  EngineOptions opts = model_options();
  opts.min_dp_batch = 1000000;  // must be ignored under the force
  auto engine = make_engine(opts);
  const auto batch = mixed_requests(120);
  expect_matches_sequential(batch, engine->serve(batch), "mixed");
  const ServeMetrics m = engine->metrics();
  EXPECT_EQ(m.dp_groups, 4u) << "window and point on both indexes";
  EXPECT_EQ(m.seq_groups, 2u) << "k-nearest on the quadtree and the R-tree";
  EXPECT_EQ(m.hybrid_groups, 0u);
  EXPECT_EQ(m.seq_fallbacks, 0u);
  EXPECT_GT(m.prims.total_invocations(), 0u);
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
  const auto g = gshape(RequestKind::kWindow, IndexKind::kQuadTree, 64);

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

TEST_F(ServeDispatchTest, NearestGroupsServeSequentially) {
  // k-nearest has no data-parallel kernel in the serving table: whatever
  // the force, the warmed coefficients or the bootstrap prior say, its
  // groups sweep sequentially, never touch a primitive, and never train
  // the model.
  const auto batch = knn_requests(256);
  const auto expect_sequential = [&](QueryEngine& engine, const char* label) {
    expect_matches_sequential(batch, engine.serve(batch), label);
    const ServeMetrics m = engine.metrics();
    EXPECT_EQ(m.dp_groups, 0u) << label;
    EXPECT_EQ(m.seq_groups, 2u) << label << ": one group per index";
    EXPECT_EQ(m.prims.total_invocations(), 0u) << label;
  };

  {
    const test::DispatchForceScope force(kForceDp);
    auto engine = make_engine(model_options());
    expect_sequential(*engine, "forced dp");
    EXPECT_TRUE(engine->cost_model_snapshot().empty());
  }
  {
    auto engine = make_engine(model_options());
    dpv::CostModelSnapshot snap;
    for (const IndexKind index : {IndexKind::kQuadTree, IndexKind::kRTree}) {
      const auto g = gshape(RequestKind::kNearest, index, batch.size() / 2);
      teach(snap, g, dpv::CostPath::kSeq, 100.0);
      teach(snap, g, dpv::CostPath::kDp, 1.0);
    }
    engine->warm_cost_model(snap);
    expect_sequential(*engine, "warmed dp 100x faster");
    EXPECT_EQ(engine->cost_model_snapshot().entries.size(),
              snap.entries.size());
  }
  {
    EngineOptions opts = model_options();
    opts.min_dp_batch = 1;
    auto engine = make_engine(opts);
    expect_sequential(*engine, "min_dp_batch 1");
    EXPECT_TRUE(engine->cost_model_snapshot().empty());
  }
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
      gshape(RequestKind::kWindow, IndexKind::kQuadTree, batch.size());
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

TEST_F(ServeDispatchTest, EveryDispatchPathMatchesTheOracleUnderChaos) {
  // The model, forced dp and forced seq must return byte-identical answers
  // even while a chaos schedule aborts pipelines mid-flight.  The model
  // never observes under an injector, so its decisions stay prior-driven
  // and deterministic here.
  dpv::FaultSchedule schedule;
  schedule.seed = test::chaos_seed(77);
  schedule.primitive_fail_rate = 0.3;
  const auto batch = mixed_requests(160);
  for (const int path : {test::kUnforced, kForceDp, kForceSeq}) {
    const test::DispatchForceScope force(path);
    dpv::FaultInjector inj(schedule);
    EngineOptions opts;
    opts.shards = 4;
    opts.threads = 4;
    opts.min_dp_batch = 4;
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
      gshape(RequestKind::kAggregate, IndexKind::kQuadTree, batch.size());
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
