// QueryEngine unit tests: status handling, graceful degradation, metrics
// and ledger merging, cancellation/deadlines, and concurrent serving.

#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "core/core.hpp"
#include "data/mapgen.hpp"
#include "test_util.hpp"

namespace dps::serve {
namespace {

class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lines_ = data::uniform_segments(400, kWorld, 25.0, 77);
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

  // QueryEngine owns a mutex/atomic, so it is neither movable nor
  // copyable; hand out a heap instance.
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
      const auto idx = static_cast<IndexKind>(i % 2);
      switch (i % 5) {
        case 0:
        case 1:
          batch.push_back(Request::window_query(
              idx, {x, y, x + 80.0, y + 60.0}));
          break;
        case 2:
          batch.push_back(
              Request::point_query(idx, lines_[i % lines_.size()].mid()));
          break;
        case 3:
          batch.push_back(Request::point_query(idx, {x + 0.5, y + 0.5}));
          break;
        default:
          batch.push_back(Request::nearest_query(idx, {x, y}, 1 + i % 4));
          break;
      }
    }
    return batch;
  }

  // Sequential ground truth for one request.
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
                                 const std::vector<Response>& responses) {
    ASSERT_EQ(responses.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(responses[i].status, Status::kOk) << "request " << i;
      const Response want = expect_for(batch[i]);
      EXPECT_EQ(responses[i].ids, want.ids) << "request " << i;
      ASSERT_EQ(responses[i].neighbors.size(), want.neighbors.size())
          << "request " << i;
      for (std::size_t j = 0; j < want.neighbors.size(); ++j) {
        EXPECT_EQ(responses[i].neighbors[j].id, want.neighbors[j].id);
        EXPECT_DOUBLE_EQ(responses[i].neighbors[j].distance2,
                         want.neighbors[j].distance2);
      }
    }
  }

  static constexpr double kWorld = 1024.0;
  std::vector<geom::Segment> lines_;
  core::QuadTree quad_;
  core::RTree rtree_;
};

TEST_F(QueryEngineTest, EmptyBatch) {
  auto engine = make_engine();
  EXPECT_TRUE(engine->serve({}).empty());
  const ServeMetrics m = engine->metrics();
  EXPECT_EQ(m.batches, 1u);
  EXPECT_EQ(m.requests, 0u);
}

TEST_F(QueryEngineTest, MixedBatchMatchesSequential) {
  EngineOptions opts;
  opts.shards = 4;
  opts.threads = 4;
  opts.min_dp_batch = 4;
  auto engine = make_engine(opts);
  const auto batch = mixed_requests(240);
  expect_matches_sequential(batch, engine->serve(batch));
  const ServeMetrics m = engine->metrics();
  EXPECT_EQ(m.requests, 240u);
  EXPECT_EQ(m.ok, 240u);
  EXPECT_GT(m.dp_groups, 0u);
  EXPECT_GT(m.nearest_requests, 0u);
  EXPECT_EQ(m.latency.count(), 240u);
}

TEST_F(QueryEngineTest, MoreShardsThanLanesStillCoversEveryRequest) {
  EngineOptions opts;
  opts.shards = 8;
  opts.threads = 2;
  opts.min_dp_batch = 2;
  auto engine = make_engine(opts);
  EXPECT_EQ(engine->shards(), 8u);
  const auto batch = mixed_requests(150);
  expect_matches_sequential(batch, engine->serve(batch));
}

TEST_F(QueryEngineTest, UnmountedIndexIsRejected) {
  EngineOptions opts;
  opts.shards = 2;
  QueryEngine engine(opts);
  engine.mount(&quad_);  // no R-tree
  std::vector<Request> batch{
      Request::window_query(IndexKind::kQuadTree, {0, 0, 100, 100}),
      Request::window_query(IndexKind::kRTree, {0, 0, 100, 100}),
      Request::point_query(IndexKind::kRTree, {1, 1}),
  };
  const auto rsp = engine.serve(batch);
  EXPECT_EQ(rsp[0].status, Status::kOk);
  EXPECT_EQ(rsp[1].status, Status::kRejected);
  EXPECT_EQ(rsp[2].status, Status::kRejected);
  EXPECT_EQ(engine.metrics().rejected, 2u);
}

TEST_F(QueryEngineTest, NearestOnUnmountedIndexIsRejected) {
  QueryEngine engine;
  engine.mount(&quad_);  // no R-tree
  const std::vector<Request> batch{
      Request::nearest_query(IndexKind::kRTree, {10, 10}, 3),
      Request::nearest_query(IndexKind::kQuadTree, {10, 10}, 3),
  };
  const auto rsp = engine.serve(batch);
  ASSERT_EQ(rsp.size(), 2u);
  EXPECT_EQ(rsp[0].status, Status::kRejected);
  EXPECT_TRUE(rsp[0].neighbors.empty());
  expect_matches_sequential({batch[1]}, {rsp[1]});
  Response oracle_rsp;
  EXPECT_EQ(engine.run_oracle(batch[0], oracle_rsp), Status::kRejected);
  EXPECT_EQ(engine.metrics().rejected, 1u);
}

TEST_F(QueryEngineTest, ExpiredDeadlineShortCircuits) {
  auto engine = make_engine();
  auto batch = mixed_requests(20);
  batch[3].deadline = Clock::now() - std::chrono::milliseconds(1);
  batch[11].deadline = Clock::now() - std::chrono::milliseconds(1);
  batch[7].deadline = Clock::now() + std::chrono::hours(1);  // generous
  const auto rsp = engine->serve(batch);
  EXPECT_EQ(rsp[3].status, Status::kDeadlineExpired);
  EXPECT_TRUE(rsp[3].ids.empty());
  EXPECT_EQ(rsp[11].status, Status::kDeadlineExpired);
  // A fired deadline must not void its group-mates.
  for (std::size_t i = 0; i < rsp.size(); ++i) {
    if (i == 3 || i == 11) continue;
    EXPECT_EQ(rsp[i].status, Status::kOk) << "request " << i;
  }
  EXPECT_EQ(engine->metrics().expired, 2u);
}

TEST_F(QueryEngineTest, EpochDeadlineIsARealExpiredDeadline) {
  // Regression: the epoch used to be the "no deadline" sentinel, so a
  // request deadlined at Clock::time_point{} silently ran forever.  With
  // the optional, every concrete time point is a real deadline.
  auto engine = make_engine();
  auto batch = mixed_requests(8);
  EXPECT_FALSE(batch[0].has_deadline());
  batch[0].deadline = Clock::time_point{};  // the epoch: long expired
  EXPECT_TRUE(batch[0].has_deadline());
  const auto rsp = engine->serve(batch);
  EXPECT_EQ(rsp[0].status, Status::kDeadlineExpired);
  for (std::size_t i = 1; i < rsp.size(); ++i) {
    EXPECT_EQ(rsp[i].status, Status::kOk) << "request " << i;
  }
}

TEST_F(QueryEngineTest, MountDuringConcurrentServeIsAtomicPerBatch) {
  // Remount while another thread serves: each batch must be answered
  // entirely by one index generation (the mount lock excludes in-flight
  // batches), never by a half-swapped view.  Run under TSan in CI.
  auto lines_b = data::uniform_segments(400, kWorld, 25.0, 991);
  dpv::Context ctx;
  core::PmrBuildOptions po;
  po.world = kWorld;
  po.max_depth = 10;
  po.bucket_capacity = 4;
  const core::QuadTree quad_b = core::pmr_build(ctx, lines_b, po).tree;

  std::vector<Request> batch;
  for (int i = 0; i < 60; ++i) {
    const double x = static_cast<double>((i * 83) % 900);
    batch.push_back(
        Request::window_query(IndexKind::kQuadTree, {x, x, x + 70.0, x + 70.0}));
  }
  std::vector<std::vector<geom::LineId>> want_a, want_b;
  for (const Request& rq : batch) {
    want_a.push_back(core::window_query(quad_, rq.window));
    want_b.push_back(core::window_query(quad_b, rq.window));
  }
  // A window whose answer differs between the trees classifies which
  // generation served a batch.
  std::size_t probe = batch.size();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (want_a[i] != want_b[i]) {
      probe = i;
      break;
    }
  }
  ASSERT_LT(probe, batch.size()) << "datasets too similar to discriminate";

  EngineOptions opts;
  opts.shards = 2;
  opts.threads = 2;
  opts.min_dp_batch = 4;
  auto engine = make_engine(opts);
  std::atomic<bool> stop{false};
  std::thread server([&] {
    while (!stop.load()) {
      const auto rsp = engine->serve(batch);
      // Decide which tree answered request 0, then demand the whole batch
      // came from that same tree.
      ASSERT_EQ(rsp.size(), batch.size());
      const bool from_a = rsp[probe].ids == want_a[probe];
      for (std::size_t i = 0; i < rsp.size(); ++i) {
        ASSERT_EQ(rsp[i].status, Status::kOk);
        EXPECT_EQ(rsp[i].ids, from_a ? want_a[i] : want_b[i])
            << "request " << i << " answered by a half-swapped index set";
      }
    }
  });
  for (int flip = 0; flip < 200; ++flip) {
    engine->mount(flip % 2 == 0 ? &quad_b : &quad_);
  }
  stop.store(true);
  server.join();
}

TEST_F(QueryEngineTest, CancelAllThenReset) {
  auto engine = make_engine();
  const auto batch = mixed_requests(30);
  engine->cancel_all();
  for (const Response& r : engine->serve(batch)) {
    EXPECT_EQ(r.status, Status::kCancelled);
  }
  EXPECT_EQ(engine->metrics().cancelled, 30u);
  engine->reset_cancel();
  expect_matches_sequential(batch, engine->serve(batch));
}

TEST_F(QueryEngineTest, TinyBatchDegradesToSequential) {
  EngineOptions opts;
  opts.shards = 1;
  opts.min_dp_batch = 1000;  // force sequential traversal
  auto engine = make_engine(opts);
  const auto batch = mixed_requests(40);
  expect_matches_sequential(batch, engine->serve(batch));
  const ServeMetrics m = engine->metrics();
  EXPECT_EQ(m.dp_groups, 0u);
  EXPECT_GT(m.seq_groups, 0u);
  // Sequential traversal never touches the scan-model runtime.
  EXPECT_EQ(m.prims.total_invocations(), 0u);
}

TEST_F(QueryEngineTest, DataParallelPathChargesTheSessionLedger) {
  EngineOptions opts;
  opts.shards = 2;
  opts.min_dp_batch = 1;
  auto engine = make_engine(opts);
  engine->serve(mixed_requests(120));
  const ServeMetrics m = engine->metrics();
  EXPECT_GT(m.dp_groups, 0u);
  EXPECT_GT(m.prims.total_invocations(), 0u);
  engine->reset_metrics();
  EXPECT_EQ(engine->metrics().prims.total_invocations(), 0u);
  EXPECT_EQ(engine->metrics().requests, 0u);
}

// Concurrent callers must never share a shard's scratch arena.  Besides
// the pooled two-lane launch, two configurations run each batch on one
// lane -- inline on the caller's thread, outside the pool's launch
// serialization: one thread and one shard, and one-request batches (forced
// onto the dp pipeline so every call opens an arena round).
TEST_F(QueryEngineTest, ConcurrentServeCallersMatchSequential) {
  struct Config {
    std::size_t threads;
    std::size_t shards;
    bool one_request_batches;
  };
  for (const Config cfg : {Config{2, 2, false}, Config{1, 1, false},
                           Config{2, 2, true}}) {
    SCOPED_TRACE(::testing::Message()
                 << "threads " << cfg.threads << ", shards " << cfg.shards
                 << (cfg.one_request_batches ? ", one-request batches" : ""));
    EngineOptions opts;
    opts.shards = cfg.shards;
    opts.threads = cfg.threads;
    opts.min_dp_batch = 4;
    const test::DispatchForceScope force(
        cfg.one_request_batches ? static_cast<int>(dpv::CostPath::kDp)
                                : test::kUnforced);
    auto engine = make_engine(opts);
    constexpr int kCallers = 4;
    std::vector<std::vector<Request>> batches;
    std::vector<std::vector<Response>> answers(kCallers);
    for (int c = 0; c < kCallers; ++c) {
      batches.push_back(mixed_requests(60 + 7 * c));
    }
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        if (!cfg.one_request_batches) {
          answers[c] = engine->serve(batches[c]);
          return;
        }
        for (const Request& rq : batches[c]) {
          answers[c].push_back(engine->serve(std::vector<Request>{rq})[0]);
        }
      });
    }
    for (auto& t : callers) t.join();
    for (int c = 0; c < kCallers; ++c) {
      expect_matches_sequential(batches[c], answers[c]);
    }
    std::uint64_t total = 0;
    for (const auto& b : batches) total += b.size();
    const ServeMetrics m = engine->metrics();
    EXPECT_EQ(m.requests, total);
    EXPECT_EQ(m.ok, total);
    EXPECT_EQ(m.batches, cfg.one_request_batches
                             ? total
                             : static_cast<std::uint64_t>(kCallers));
  }
}

TEST(LatencyHistogram, RecordsIntoFineBuckets) {
  LatencyHistogram h;
  h.record(0.5);    // bucket 0: [0, 1)
  h.record(1.0);    // bucket 1: [1, 2)
  h.record(3.0);    // bucket 3: [3, 4)
  h.record(100.0);  // octave [64, 128), 2us sub-buckets: [100, 102)
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);
  const std::size_t b100 = LatencyHistogram::bucket_of(100.0);
  EXPECT_EQ(h.buckets()[b100], 1u);
  EXPECT_EQ(LatencyHistogram::bucket_lower_us(b100), 100.0);
  EXPECT_EQ(LatencyHistogram::bucket_upper_us(b100), 102.0);
}

TEST(LatencyHistogram, QuantileUpperBoundsAndMerge) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile_upper_us(0.5), 0.0);
  for (int i = 0; i < 90; ++i) h.record(1.5);    // bucket 1, upper 2us
  for (int i = 0; i < 10; ++i) h.record(500.0);  // [496, 504)
  EXPECT_EQ(h.quantile_upper_us(0.5), 2.0);
  EXPECT_EQ(h.quantile_upper_us(0.99), 504.0);
  LatencyHistogram other;
  other.record(500.0);
  h += other;
  EXPECT_EQ(h.count(), 101u);
}

// The point of the HDR layout: every bucket that can hold a latency in the
// serving range (32us .. 10s) is narrower than 10% of the latencies it
// brackets, so BENCH_serve p50/p99 are real numbers rather than octave
// edges.  Below 32us the buckets are exactly 1us wide, which is already
// sharper in absolute terms.  Sweep the range multiplicatively and check
// the contract at each sample, plus the bracketing invariant
// lower <= v < upper.
TEST(LatencyHistogram, SubTenPercentResolutionInServingRange) {
  for (double v = 32.0; v < 10.0e6; v *= 1.03) {
    const std::size_t b = LatencyHistogram::bucket_of(v);
    ASSERT_LT(b, LatencyHistogram::kBuckets);
    const double lower = LatencyHistogram::bucket_lower_us(b);
    const double upper = LatencyHistogram::bucket_upper_us(b);
    EXPECT_LE(lower, v) << "v=" << v;
    EXPECT_LT(v, upper) << "v=" << v;
    EXPECT_LT((upper - lower) / lower, 0.10)
        << "bucket " << b << " [" << lower << ", " << upper
        << ") too coarse for v=" << v;
  }
  for (double v = 1.0; v < 32.0; v += 1.0) {
    const std::size_t b = LatencyHistogram::bucket_of(v);
    EXPECT_EQ(LatencyHistogram::bucket_upper_us(b) -
                  LatencyHistogram::bucket_lower_us(b),
              1.0)
        << "v=" << v;
  }
}

TEST(ServeStatus, Names) {
  EXPECT_EQ(status_name(Status::kOk), "ok");
  EXPECT_EQ(status_name(Status::kDeadlineExpired), "deadline-expired");
  EXPECT_EQ(status_name(Status::kCancelled), "cancelled");
  EXPECT_EQ(status_name(Status::kRejected), "rejected");
  EXPECT_EQ(status_name(Status::kShedded), "shedded");
  EXPECT_EQ(status_name(Status::kInvalidArgument), "invalid-argument");
}

TEST(ServePriority, Names) {
  EXPECT_EQ(priority_name(Priority::kLow), "low");
  EXPECT_EQ(priority_name(Priority::kNormal), "normal");
  EXPECT_EQ(priority_name(Priority::kHigh), "high");
}

}  // namespace
}  // namespace dps::serve
