// Typed geometry validation at the build and serve boundaries: NaN/inf
// coordinates, inverted and zero-area windows, out-of-world endpoints, and
// k-nearest with k = 0 are rejected with typed errors -- never silently
// answered wrong.

#include "core/validate.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/core.hpp"
#include "data/mapgen.hpp"
#include "serve/cluster.hpp"
#include "serve/engine.hpp"

namespace dps::core {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ValidateWindow, AcceptsWellFormed) {
  EXPECT_FALSE(validate_window({0.0, 0.0, 10.0, 5.0}).has_value());
  EXPECT_FALSE(validate_window({-3.0, -4.0, -1.0, -2.0}).has_value());
}

TEST(ValidateWindow, RejectsNonFinite) {
  for (const geom::Rect w : {geom::Rect{kNan, 0, 1, 1}, geom::Rect{0, kNan, 1, 1},
                             geom::Rect{0, 0, kInf, 1}, geom::Rect{0, 0, 1, -kInf}}) {
    const auto issue = validate_window(w);
    ASSERT_TRUE(issue.has_value());
    EXPECT_EQ(issue->code, GeometryErrorCode::kNonFiniteCoordinate);
  }
}

TEST(ValidateWindow, RejectsInvertedAndZeroArea) {
  auto inverted = validate_window({10.0, 0.0, 5.0, 5.0});  // xmin > xmax
  ASSERT_TRUE(inverted.has_value());
  EXPECT_EQ(inverted->code, GeometryErrorCode::kInvertedWindow);
  inverted = validate_window({0.0, 8.0, 5.0, 5.0});  // ymin > ymax
  ASSERT_TRUE(inverted.has_value());
  EXPECT_EQ(inverted->code, GeometryErrorCode::kInvertedWindow);

  const auto flat = validate_window({0.0, 2.0, 10.0, 2.0});  // zero height
  ASSERT_TRUE(flat.has_value());
  EXPECT_EQ(flat->code, GeometryErrorCode::kZeroAreaWindow);
  const auto dot = validate_window({3.0, 3.0, 3.0, 3.0});
  ASSERT_TRUE(dot.has_value());
  EXPECT_EQ(dot->code, GeometryErrorCode::kZeroAreaWindow);
}

TEST(ValidatePoint, FiniteOnly) {
  EXPECT_FALSE(validate_point({1.0, 2.0}).has_value());
  const auto bad = validate_point({kNan, 2.0});
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->code, GeometryErrorCode::kNonFiniteCoordinate);
}

TEST(ValidateNearest, RejectsZeroCountAndNonFinite) {
  EXPECT_FALSE(validate_nearest({1.0, 2.0}, 1).has_value());
  const auto zero = validate_nearest({1.0, 2.0}, 0);
  ASSERT_TRUE(zero.has_value());
  EXPECT_EQ(zero->code, GeometryErrorCode::kZeroNearestCount);
  const auto nan = validate_nearest({kInf, 2.0}, 3);
  ASSERT_TRUE(nan.has_value());
  EXPECT_EQ(nan->code, GeometryErrorCode::kNonFiniteCoordinate);
}

TEST(ValidateSegments, FindsTheOffendingElement) {
  std::vector<geom::Segment> lines = {
      {{10, 10}, {20, 20}, 0},
      {{30, 30}, {40, 40}, 1},
      {{kNan, 5}, {6, 7}, 2},
  };
  const auto issue = validate_segments(lines);
  ASSERT_TRUE(issue.has_value());
  EXPECT_EQ(issue->code, GeometryErrorCode::kNonFiniteCoordinate);
  EXPECT_EQ(issue->index, 2u);

  lines.pop_back();
  EXPECT_FALSE(validate_segments(lines).has_value());
  // World-bounds sweep is opt-in (builds clip, so they skip it).
  EXPECT_FALSE(validate_segments(lines, 100.0).has_value());
  const auto oob = validate_segments(lines, 35.0);
  ASSERT_TRUE(oob.has_value());
  EXPECT_EQ(oob->code, GeometryErrorCode::kOutOfWorldPoint);
  EXPECT_EQ(oob->index, 1u);
}

TEST(ValidateSegments, IssueDescriptionsAndNamesAreStable) {
  EXPECT_EQ(geometry_error_name(GeometryErrorCode::kNonFiniteCoordinate),
            "non-finite-coordinate");
  EXPECT_EQ(geometry_error_name(GeometryErrorCode::kInvertedWindow),
            "inverted-window");
  EXPECT_EQ(geometry_error_name(GeometryErrorCode::kZeroAreaWindow),
            "zero-area-window");
  EXPECT_EQ(geometry_error_name(GeometryErrorCode::kOutOfWorldPoint),
            "out-of-world-point");
  EXPECT_EQ(geometry_error_name(GeometryErrorCode::kZeroNearestCount),
            "zero-nearest-count");
  const GeometryIssue issue{GeometryErrorCode::kInvertedWindow, 7};
  EXPECT_NE(issue.describe().find("inverted-window"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Build boundary: every build entry point throws a typed GeometryError.

class BuildBoundaryTest : public ::testing::Test {
 protected:
  static std::vector<geom::Segment> poisoned_lines() {
    auto lines = data::uniform_segments(50, 1024.0, 25.0, 5);
    lines[17].a.x = kNan;
    return lines;
  }
};

TEST_F(BuildBoundaryTest, PmrBuildThrowsTyped) {
  dpv::Context ctx;
  PmrBuildOptions opts;
  opts.world = 1024.0;
  try {
    pmr_build(ctx, poisoned_lines(), opts);
    FAIL() << "expected GeometryError";
  } catch (const GeometryError& e) {
    EXPECT_EQ(e.issue().code, GeometryErrorCode::kNonFiniteCoordinate);
    EXPECT_EQ(e.issue().index, 17u);
  }
}

TEST_F(BuildBoundaryTest, Pm1BuildThrowsTyped) {
  dpv::Context ctx;
  QuadBuildOptions opts;
  opts.world = 1024.0;
  EXPECT_THROW(pm1_build(ctx, poisoned_lines(), opts), GeometryError);
}

TEST_F(BuildBoundaryTest, RtreeBuildThrowsTyped) {
  dpv::Context ctx;
  RtreeBuildOptions opts;
  EXPECT_THROW(rtree_build(ctx, poisoned_lines(), opts), GeometryError);
}

TEST_F(BuildBoundaryTest, OutOfWorldEndpointsStillBuild) {
  // The quad builds clip to the root square, so out-of-world (but finite)
  // endpoints are legal input -- only NaN/inf is fatal.
  dpv::Context ctx;
  std::vector<geom::Segment> lines = {
      {{-50.0, 100.0}, {200.0, 1500.0}, 0},
      {{10.0, 10.0}, {900.0, 900.0}, 1},
  };
  PmrBuildOptions opts;
  opts.world = 1024.0;
  EXPECT_NO_THROW(pmr_build(ctx, lines, opts));
}

// ---------------------------------------------------------------------------
// Serve boundary: malformed requests answer kInvalidArgument per request
// and never consume admission budget or reach a pipeline.

TEST(ServeBoundary, MalformedRequestsAnswerInvalidArgument) {
  using namespace dps::serve;
  auto lines = data::uniform_segments(300, 1024.0, 25.0, 6);
  dpv::Context ctx;
  PmrBuildOptions po;
  po.world = 1024.0;
  const QuadTree tree = pmr_build(ctx, lines, po).tree;
  RtreeBuildOptions ro;
  const RTree rtree = rtree_build(ctx, lines, ro).tree;

  EngineOptions opts;
  opts.shards = 2;
  opts.min_dp_batch = 2;
  opts.admission.enabled = true;
  opts.admission.max_inflight_requests = 3;  // tight: only valid work counts
  QueryEngine engine(opts);
  engine.mount(&tree);
  engine.mount(&rtree);

  std::vector<Request> batch{
      Request::window_query(IndexKind::kQuadTree, {0, 0, 100, 100}),
      Request::window_query(IndexKind::kQuadTree, {kNan, 0, 100, 100}),
      Request::window_query(IndexKind::kQuadTree, {100, 0, 0, 100}),
      Request::window_query(IndexKind::kQuadTree, {50, 50, 50, 90}),
      Request::point_query(IndexKind::kQuadTree, {kInf, 5}),
      Request::nearest_query(IndexKind::kRTree, {10, 10}, 0),
      Request::window_query(IndexKind::kQuadTree, {200, 200, 300, 300}),
      Request::nearest_query(IndexKind::kRTree, {10, 10}, 2),
  };
  const auto rsp = engine.serve(batch);
  ASSERT_EQ(rsp.size(), batch.size());

  EXPECT_EQ(rsp[0].status, Status::kOk);
  EXPECT_EQ(rsp[0].ids, window_query(tree, batch[0].window));
  for (const std::size_t i : {1u, 2u, 3u, 4u, 5u}) {
    EXPECT_EQ(rsp[i].status, Status::kInvalidArgument) << "request " << i;
    EXPECT_TRUE(rsp[i].ids.empty());
    EXPECT_TRUE(rsp[i].neighbors.empty());
  }
  EXPECT_EQ(rsp[6].status, Status::kOk);
  EXPECT_EQ(rsp[7].status, Status::kOk);

  const serve::ServeMetrics m = engine.metrics();
  EXPECT_EQ(m.invalid, 5u);
  EXPECT_EQ(m.ok, 3u);
  // The 3 valid requests fit the budget of 3 exactly: had the 5 malformed
  // ones been charged too, this batch could not have been admitted whole.
  EXPECT_EQ(engine.admission_stats().shed_batches, 0u);
  EXPECT_EQ(engine.admission_stats().admitted_batches, 1u);
}

TEST(ServeBoundary, AllInvalidBatchSkipsAdmissionEntirely) {
  using namespace dps::serve;
  auto lines = data::uniform_segments(100, 1024.0, 25.0, 7);
  dpv::Context ctx;
  PmrBuildOptions po;
  po.world = 1024.0;
  const QuadTree tree = pmr_build(ctx, lines, po).tree;
  EngineOptions opts;
  opts.admission.enabled = true;
  QueryEngine engine(opts);
  engine.mount(&tree);
  const auto rsp = engine.serve(
      {Request::window_query(IndexKind::kQuadTree, {kNan, 0, 1, 1}),
       Request::nearest_query(IndexKind::kQuadTree, {1, 1}, 0)});
  for (const Response& r : rsp) {
    EXPECT_EQ(r.status, Status::kInvalidArgument);
  }
  EXPECT_EQ(engine.admission_stats().offered_batches, 0u);
}

TEST(ServeBoundary, InvertedWindowIsInvalidOnEngineAndCluster) {
  using namespace dps::serve;
  auto lines = data::uniform_segments(100, 1024.0, 25.0, 8);
  dpv::Context ctx;
  PmrBuildOptions po;
  po.world = 1024.0;
  const QuadTree tree = pmr_build(ctx, lines, po).tree;
  // An inverted window intersects nothing, yet it is a caller error: the
  // engine and the cluster door both validate every request, so neither
  // answers it kOk-and-empty as the raw query would.
  const Request inverted =
      Request::window_query(IndexKind::kQuadTree, {100, 0, 0, 100});
  ASSERT_TRUE(window_query(tree, inverted.window).empty());

  QueryEngine engine;
  engine.mount(&tree);
  const auto rsp = engine.serve({inverted});
  ASSERT_EQ(rsp.size(), 1u);
  EXPECT_EQ(rsp[0].status, Status::kInvalidArgument);
  EXPECT_TRUE(rsp[0].ids.empty());
  EXPECT_EQ(engine.metrics().invalid, 1u);
  EXPECT_EQ(engine.metrics().ok, 0u);

  ClusterOptions co;
  co.shards = 2;
  co.engine.threads = 2;
  Cluster cluster(co);
  ClusterMountOptions mo;
  mo.world = 1024.0;
  cluster.mount(lines, mo);
  const auto crsp = cluster.serve({inverted});
  ASSERT_EQ(crsp.size(), 1u);
  EXPECT_EQ(crsp[0].status, Status::kInvalidArgument);
  EXPECT_TRUE(crsp[0].ids.empty());
  EXPECT_EQ(cluster.metrics().invalid, 1u);
  EXPECT_EQ(cluster.metrics().ok, 0u);
}

}  // namespace
}  // namespace dps::core
