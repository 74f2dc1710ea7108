// Chaos suite: seeded fault schedules (primitive failures, lane stalls,
// shard poisoning) swept across shard counts and backends.  Under every
// schedule the engine must answer every admitted request exactly like the
// sequential oracle (retry + sequential degradation guarantee), and
// replaying a seed must reproduce identical responses and identical retry
// metrics -- on the serial and the thread-pool backend alike.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/core.hpp"
#include "data/mapgen.hpp"
#include "serve/engine.hpp"
#include "test_util.hpp"

namespace dps::serve {
namespace {

struct ChaosRun {
  std::vector<Response> responses;
  ServeMetrics metrics;
};

bool same_answers(const Response& a, const Response& b) {
  if (a.status != b.status || a.ids != b.ids) return false;
  if (a.neighbors.size() != b.neighbors.size()) return false;
  for (std::size_t j = 0; j < a.neighbors.size(); ++j) {
    if (a.neighbors[j].id != b.neighbors[j].id ||
        a.neighbors[j].distance2 != b.neighbors[j].distance2) {
      return false;
    }
  }
  return true;
}

class ServeChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lines_ = data::uniform_segments(600, kWorld, 25.0, 1234);
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
    batch_ = make_batch(240);
    oracle_ = oracle(batch_);
  }

  std::vector<Request> make_batch(std::size_t n) const {
    std::vector<Request> batch;
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double x = static_cast<double>((i * 97) % 900);
      const double y = static_cast<double>((i * 61) % 900);
      switch (i % 8) {
        case 0:
          batch.push_back(Request::window_query(IndexKind::kQuadTree,
                                                {x, y, x + 70.0, y + 50.0}));
          break;
        case 1:
          batch.push_back(Request::window_query(IndexKind::kRTree,
                                                {x, y, x + 90.0, y + 40.0}));
          break;
        case 2:
          batch.push_back(Request::point_query(
              IndexKind::kQuadTree, lines_[(i * 7) % lines_.size()].mid()));
          break;
        case 3:
          batch.push_back(Request::window_query(IndexKind::kQuadTree,
                                                {x, y, x + 30.0, y + 30.0}));
          break;
        case 4:
          batch.push_back(
              Request::point_query(IndexKind::kRTree, {x + 0.5, y + 0.5}));
          break;
        case 5:
          batch.push_back(Request::point_query(
              IndexKind::kRTree, lines_[(i * 11) % lines_.size()].mid()));
          break;
        case 6:
          batch.push_back(Request::nearest_query(IndexKind::kRTree,
                                                 {x, y}, 1 + i % 4));
          break;
        default:
          batch.push_back(Request::nearest_query(IndexKind::kQuadTree,
                                                 {x + 0.25, y}, 1 + (i * 5) % 9));
          break;
      }
    }
    return batch;
  }

  std::vector<Response> oracle(const std::vector<Request>& batch) const {
    std::vector<Response> out(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Request& rq = batch[i];
      Response& rsp = out[i];
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
    }
    return out;
  }

  ChaosRun run_once(const dpv::FaultSchedule& schedule, std::size_t shards,
                    std::size_t threads) const {
    dpv::FaultInjector inj(schedule);
    EngineOptions opts;
    opts.shards = shards;
    opts.threads = threads;
    // Chaos replay asserts bit-identical retry metrics across runs; an
    // engine with an injector never trains its model, so dispatch stays
    // the min_dp_batch prior, a pure function of the batch.
    opts.min_dp_batch = 4;
    opts.max_retries = 2;
    opts.backoff_base = std::chrono::microseconds(5);
    opts.fault_injector = &inj;
    QueryEngine engine(opts);
    engine.mount(&quad_);
    engine.mount(&rtree_);
    ChaosRun run;
    run.responses = engine.serve(batch_);
    run.metrics = engine.metrics();
    return run;
  }

  void expect_matches_oracle(const ChaosRun& run, const char* label) const {
    ASSERT_EQ(run.responses.size(), oracle_.size()) << label;
    for (std::size_t i = 0; i < oracle_.size(); ++i) {
      ASSERT_EQ(run.responses[i].status, Status::kOk)
          << label << " request " << i;
      EXPECT_TRUE(same_answers(run.responses[i], oracle_[i]))
          << label << " request " << i;
    }
  }

  static std::vector<dpv::FaultSchedule> schedules() {
    std::vector<dpv::FaultSchedule> out;
    {
      dpv::FaultSchedule s;  // fail the very first primitive everywhere
      s.seed = test::chaos_seed(1);
      s.fail_nth = 1;
      out.push_back(s);
    }
    {
      dpv::FaultSchedule s;  // fail a mid-pipeline primitive
      s.seed = test::chaos_seed(2);
      s.fail_nth = 7;
      out.push_back(s);
    }
    {
      dpv::FaultSchedule s;  // sparse random primitive failures
      s.seed = test::chaos_seed(3);
      s.primitive_fail_rate = 0.05;
      out.push_back(s);
    }
    {
      dpv::FaultSchedule s;  // heavy random primitive failures
      s.seed = test::chaos_seed(4);
      s.primitive_fail_rate = 0.5;
      out.push_back(s);
    }
    {
      dpv::FaultSchedule s;  // half the shard attempts poisoned
      s.seed = test::chaos_seed(5);
      s.shard_poison_rate = 0.5;
      out.push_back(s);
    }
    {
      dpv::FaultSchedule s;  // every dp attempt poisoned: pure fallback
      s.seed = test::chaos_seed(6);
      s.shard_poison_rate = 1.0;
      out.push_back(s);
    }
    {
      dpv::FaultSchedule s;  // slow lanes only
      s.seed = test::chaos_seed(7);
      s.lane_stall_rate = 0.5;
      s.lane_stall_us = std::chrono::microseconds(100);
      out.push_back(s);
    }
    {
      dpv::FaultSchedule s;  // everything at once
      s.seed = test::chaos_seed(8);
      s.primitive_fail_rate = 0.2;
      s.shard_poison_rate = 0.2;
      s.lane_stall_rate = 0.2;
      s.lane_stall_us = std::chrono::microseconds(50);
      out.push_back(s);
    }
    return out;
  }

  static constexpr double kWorld = 1024.0;
  std::vector<geom::Segment> lines_;
  core::QuadTree quad_;
  core::RTree rtree_;
  std::vector<Request> batch_;
  std::vector<Response> oracle_;
};

TEST_F(ServeChaosTest, EveryScheduleEveryShardCountEveryBackendMatchesOracle) {
  int idx = 0;
  for (const dpv::FaultSchedule& s : schedules()) {
    for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
      for (const std::size_t threads : {1u, 4u}) {
        char label[64];
        std::snprintf(label, sizeof label, "schedule %d shards %zu threads %zu",
                      idx, shards, threads);
        expect_matches_oracle(run_once(s, shards, threads), label);
      }
    }
    ++idx;
  }
}

TEST_F(ServeChaosTest, FaultsActuallyTriggerRetriesAndFallbacks) {
  dpv::FaultSchedule s;
  s.seed = test::chaos_seed(21);
  s.fail_nth = 1;  // every dp attempt dies immediately
  const ChaosRun run = run_once(s, 4, 4);
  expect_matches_oracle(run, "fail-first");
  // Every pipeline group burned all its retries and fell back.
  EXPECT_GT(run.metrics.retries, 0u);
  EXPECT_GT(run.metrics.seq_fallbacks, 0u);
  EXPECT_EQ(run.metrics.dp_groups, 0u);
  // A clean engine on the same batch does use the dp path.
  const ChaosRun clean = run_once(dpv::FaultSchedule{}, 4, 4);
  EXPECT_GT(clean.metrics.dp_groups, 0u);
  EXPECT_EQ(clean.metrics.retries, 0u);
  EXPECT_EQ(clean.metrics.seq_fallbacks, 0u);
}

TEST_F(ServeChaosTest, ReplayingASeedIsBitIdentical) {
  for (const dpv::FaultSchedule& s : schedules()) {
    for (const std::size_t threads : {1u, 4u}) {
      const ChaosRun a = run_once(s, 4, threads);
      const ChaosRun b = run_once(s, 4, threads);
      ASSERT_EQ(a.responses.size(), b.responses.size());
      for (std::size_t i = 0; i < a.responses.size(); ++i) {
        EXPECT_TRUE(same_answers(a.responses[i], b.responses[i]))
            << "seed " << s.seed << " threads " << threads << " request " << i;
      }
      EXPECT_EQ(a.metrics.retries, b.metrics.retries) << "seed " << s.seed;
      EXPECT_EQ(a.metrics.seq_fallbacks, b.metrics.seq_fallbacks);
      EXPECT_EQ(a.metrics.dp_groups, b.metrics.dp_groups);
      EXPECT_EQ(a.metrics.seq_groups, b.metrics.seq_groups);
      EXPECT_EQ(a.metrics.prims.total_invocations(),
                b.metrics.prims.total_invocations());
    }
  }
}

TEST_F(ServeChaosTest, SerialAndThreadPoolBackendsAgreeOnRetryMetrics) {
  // Same seed, same shard count: the backend (1 lane vs 4 lanes) must not
  // change what work happened -- responses, retry counts, and the merged
  // scan-model ledger are all identical; only wall-clock may differ.
  for (const dpv::FaultSchedule& s : schedules()) {
    const ChaosRun serial = run_once(s, 4, 1);
    const ChaosRun pooled = run_once(s, 4, 4);
    ASSERT_EQ(serial.responses.size(), pooled.responses.size());
    for (std::size_t i = 0; i < serial.responses.size(); ++i) {
      EXPECT_TRUE(same_answers(serial.responses[i], pooled.responses[i]))
          << "seed " << s.seed << " request " << i;
    }
    EXPECT_EQ(serial.metrics.retries, pooled.metrics.retries)
        << "seed " << s.seed;
    EXPECT_EQ(serial.metrics.seq_fallbacks, pooled.metrics.seq_fallbacks);
    EXPECT_EQ(serial.metrics.dp_groups, pooled.metrics.dp_groups);
    EXPECT_EQ(serial.metrics.seq_groups, pooled.metrics.seq_groups);
    EXPECT_EQ(serial.metrics.prims.total_invocations(),
              pooled.metrics.prims.total_invocations());
  }
}

}  // namespace
}  // namespace dps::serve
