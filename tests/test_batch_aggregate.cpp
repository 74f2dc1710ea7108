// Oracle-differential suite for core/batch_aggregate: the annotated
// no-materialization descent must agree with a brute-force
// materialize-then-reduce oracle on every generator, index, and backend.
// `count` and `bbox` are order-independent and must match *exactly*; the
// length/centroid sums are order-dependent FP accumulations and must match
// to rounding (the header's stated FP-order contract).  The batch
// pipelines and the host sequential baseline share descent and candidate
// order, so those two must agree *bitwise* -- as must serial vs pool
// contexts and SIMD on/off (covered by the CI matrix re-running this
// file's cases under DPS_SIMD=OFF).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "core/batch_aggregate.hpp"
#include "core/pmr_build.hpp"
#include "core/query.hpp"
#include "core/rtree_build.hpp"
#include "core/shard_segments.hpp"
#include "data/data.hpp"
#include "geom/geom.hpp"
#include "test_util.hpp"

namespace dps {
namespace {

constexpr double kWorld = 1024.0;

std::vector<geom::Segment> make_map(const std::string& generator,
                                    std::size_t n, std::uint64_t seed) {
  if (generator == "roads") return data::hierarchical_roads(n, kWorld, seed);
  if (generator == "clustered") {
    return data::clustered_segments(n, 5, kWorld / 30.0, kWorld, 12.0, seed);
  }
  return data::uniform_segments(n, kWorld, 18.0, seed);
}

/// Materialize-then-reduce oracle: clip every distinct line against the
/// window (the same Liang-Barsky predicate the kernels use) and fold in id
/// order through the shared accumulate_hit -- an accumulation order the
/// descent does NOT use, which is exactly what the FP-order contract is
/// about.
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

/// Deterministic window mix: small, medium, sliver, whole-world, and
/// off-center windows, clamped to the map square.
std::vector<geom::Rect> make_windows(std::size_t n, std::uint64_t seed) {
  std::vector<geom::Rect> windows;
  windows.reserve(n + 1);
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + 1;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<double>(state % 100000) / 100000.0;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const double x = next() * (kWorld - 2.0);
    const double y = next() * (kWorld - 2.0);
    const double wdt = 1.0 + next() * (i % 3 == 0 ? kWorld / 2.0 : 60.0);
    const double hgt = 1.0 + next() * (i % 5 == 0 ? 2.0 : 60.0);
    windows.push_back({x, y, std::min(kWorld, x + wdt),
                       std::min(kWorld, y + hgt)});
  }
  windows.push_back({0.0, 0.0, kWorld, kWorld});  // fully-covered root
  return windows;
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

struct AggCase {
  const char* generator;
  std::size_t n_lines;
  std::uint64_t seed;
  bool parallel;
};

class BatchAggregateTest : public ::testing::TestWithParam<AggCase> {
 protected:
  void SetUp() override {
    const AggCase& c = GetParam();
    lines_ = make_map(c.generator, c.n_lines, c.seed);
    dpv::Context build;
    core::PmrBuildOptions po;
    po.world = kWorld;
    po.max_depth = 12;
    po.bucket_capacity = 6;
    quad_ = core::pmr_build(build, lines_, po).tree;
    core::RtreeBuildOptions ro;
    ro.m = 2;
    ro.M = 8;
    rtree_ = core::rtree_build(build, lines_, ro).tree;
  }

  dpv::Context make_ctx() const {
    return GetParam().parallel ? test::make_parallel_context()
                               : dpv::Context{};
  }

  std::vector<geom::Segment> lines_;
  core::QuadTree quad_;
  core::RTree rtree_;
};

TEST_P(BatchAggregateTest, MatchesMaterializeThenReduceOnEveryIndex) {
  const auto windows = make_windows(48, GetParam().seed ^ 0xA5);
  std::vector<core::WindowAggregate> want;
  want.reserve(windows.size());
  for (const geom::Rect& w : windows) want.push_back(oracle(lines_, w));

  dpv::Context ctx = make_ctx();
  const auto qa = core::build_agg_annotations(quad_);
  const auto ra = core::build_agg_annotations(rtree_);
  const auto rq = core::batch_window_aggregate(ctx, quad_, qa, windows);
  const auto rr = core::batch_window_aggregate(ctx, rtree_, ra, windows);
  ASSERT_FALSE(rq.aborted);
  ASSERT_FALSE(rr.aborted);
  ASSERT_EQ(rq.results.size(), windows.size());
  ASSERT_EQ(rr.results.size(), windows.size());
  for (std::size_t w = 0; w < windows.size(); ++w) {
    expect_close(rq.results[w], want[w], "quad", w);
    expect_close(rr.results[w], want[w], "rtree", w);
    // The host sequential baseline shares the descent and candidate
    // order: bitwise equality, not just to-rounding.
    EXPECT_EQ(rq.results[w], core::window_aggregate_seq(quad_, qa, windows[w]))
        << "quad seq/dp window " << w;
    EXPECT_EQ(rr.results[w],
              core::window_aggregate_seq(rtree_, ra, windows[w]))
        << "rtree seq/dp window " << w;
  }
}

TEST_P(BatchAggregateTest, SerialAndPoolBackendsAreBitwiseIdentical) {
  const auto windows = make_windows(32, GetParam().seed ^ 0x5A);
  const auto qa = core::build_agg_annotations(quad_);
  dpv::Context serial;
  dpv::Context pool = test::make_parallel_context();
  const auto a = core::batch_window_aggregate(serial, quad_, qa, windows);
  const auto b = core::batch_window_aggregate(pool, quad_, qa, windows);
  ASSERT_FALSE(a.aborted);
  ASSERT_FALSE(b.aborted);
  EXPECT_EQ(a.results, b.results);
}

INSTANTIATE_TEST_SUITE_P(
    Generators, BatchAggregateTest,
    ::testing::Values(AggCase{"uniform", 600, 11, false},
                      AggCase{"uniform", 600, 11, true},
                      AggCase{"clustered", 500, 23, false},
                      AggCase{"clustered", 500, 23, true},
                      AggCase{"roads", 400, 37, false},
                      AggCase{"roads", 400, 37, true}),
    [](const ::testing::TestParamInfo<AggCase>& info) {
      return std::string(info.param.generator) +
             (info.param.parallel ? "_pool" : "_serial");
    });

TEST(BatchAggregate, FullyCoveredRootShortCircuitsTheWholeTree) {
  const auto lines = make_map("uniform", 400, 7);
  dpv::Context ctx;
  core::PmrBuildOptions po;
  po.world = kWorld;
  po.max_depth = 10;
  po.bucket_capacity = 4;
  const core::QuadTree quad = core::pmr_build(ctx, lines, po).tree;
  const auto ann = core::build_agg_annotations(quad);
  const std::vector<geom::Rect> windows{{0.0, 0.0, kWorld, kWorld}};
  const auto res = core::batch_window_aggregate(ctx, quad, ann, windows);
  ASSERT_FALSE(res.aborted);
  // The root cell is inside the window, so the whole answer comes from
  // one annotation: no fringe candidate ever reaches the clip kernel.
  EXPECT_EQ(res.candidates, 0u);
  EXPECT_GE(res.covered, 1u);
  EXPECT_EQ(res.results[0].count, lines.size());
  expect_close(res.results[0], oracle(lines, windows[0]), "covered-root", 0);
}

TEST(BatchAggregate, ZeroHitWindowIsEmpty) {
  // A map confined to the left quarter; windows on the right hit nothing.
  std::vector<geom::Segment> lines;
  for (std::size_t i = 0; i < 64; ++i) {
    const double x = 4.0 + static_cast<double>(i * 3 % 200);
    const double y = 4.0 + static_cast<double>(i * 7 % 200);
    lines.push_back({{x, y}, {x + 9.0, y + 5.0}, static_cast<geom::LineId>(i)});
  }
  dpv::Context ctx;
  core::PmrBuildOptions po;
  po.world = kWorld;
  const core::QuadTree quad = core::pmr_build(ctx, lines, po).tree;
  const auto qa = core::build_agg_annotations(quad);
  const std::vector<geom::Rect> windows{{700.0, 700.0, 900.0, 900.0}};
  const auto res = core::batch_window_aggregate(ctx, quad, qa, windows);
  ASSERT_FALSE(res.aborted);
  EXPECT_EQ(res.results[0].count, 0u);
  EXPECT_EQ(res.results[0].length, 0.0);
  EXPECT_TRUE(res.results[0].bbox.is_empty());
  EXPECT_EQ(res.results[0].centroid().x, 0.0);
}

TEST(BatchAggregate, FiredControlLatchesAborted) {
  const auto lines = make_map("uniform", 300, 3);
  dpv::Context ctx;
  core::PmrBuildOptions po;
  po.world = kWorld;
  const core::QuadTree quad = core::pmr_build(ctx, lines, po).tree;
  const auto ann = core::build_agg_annotations(quad);
  const auto windows = make_windows(16, 3);
  std::atomic<bool> cancel{true};  // fired before the first round
  core::BatchControl control;
  control.cancel = &cancel;
  const auto res = core::batch_window_aggregate(ctx, quad, ann, windows,
                                                control);
  EXPECT_TRUE(res.aborted);
}

TEST(BatchAggregate, ScopedShardPartialsSumToTheUnscopedAnswer) {
  // The cluster-merge identity at the core level: shard the map, scope
  // each shard's annotations to its footprint, and the shard-wise merged
  // aggregate must equal the unscoped single-index answer -- count and
  // bbox exactly (each hit owned by exactly one footprint), sums to
  // rounding.
  const auto lines = make_map("clustered", 500, 77);
  const geom::Rect extent{0.0, 0.0, kWorld, kWorld};
  const core::ShardedSegments sharded =
      core::shard_segments(lines, extent, 4);
  dpv::Context ctx;
  core::PmrBuildOptions po;
  po.world = kWorld;

  const core::QuadTree whole = core::pmr_build(ctx, lines, po).tree;
  const auto whole_ann = core::build_agg_annotations(whole);

  struct Shard {
    core::QuadTree quad;
    core::QuadAggAnnotations ann;
    bool empty = true;
  };
  std::vector<Shard> shards(4);
  for (std::size_t s = 0; s < 4; ++s) {
    if (sharded.shards[s].empty()) continue;
    shards[s].quad = core::pmr_build(ctx, sharded.shards[s], po).tree;
    shards[s].ann = core::build_agg_annotations(
        shards[s].quad,
        core::AggregateScope{sharded.plan.footprints[s], extent});
    shards[s].empty = false;
  }

  const auto windows = make_windows(32, 77);
  for (std::size_t w = 0; w < windows.size(); ++w) {
    core::WindowAggregate merged;
    for (std::size_t s = 0; s < 4; ++s) {
      if (shards[s].empty ||
          !sharded.plan.footprints[s].intersects(windows[w])) {
        continue;  // the cluster router skips these shards too
      }
      merged.merge(core::window_aggregate_seq(shards[s].quad, shards[s].ann,
                                              windows[w]));
    }
    const core::WindowAggregate want =
        core::window_aggregate_seq(whole, whole_ann, windows[w]);
    expect_close(merged, want, "sharded-merge", w);
  }
}

}  // namespace
}  // namespace dps
