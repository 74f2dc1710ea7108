// Failure-domain dispatch: hedged subrequests to backup replicas,
// deadline-budgeted abandonment, and graceful degradation (the missing
// shard's own sequential oracle, or opted-in kPartial).  The bar
// everywhere: a replica that stalls, wedges, or crashes costs bounded
// latency, never a wrong answer -- and seeded chaos replays
// bit-identically across runs and engine backends.  Round dispatch: a
// round served inline on the calling thread answers exactly as a forked
// one, a cold cluster serves small rounds inline and forks large ones
// once trained, and a round with failure-domain machinery armed always
// fans out.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/core.hpp"
#include "data/mapgen.hpp"
#include "geom/predicates.hpp"
#include "serve/cluster.hpp"
#include "test_util.hpp"

namespace dps::serve {
namespace {

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

/// Whole-map quadtree/rtree oracle over the same build options, plus the
/// probe map's when joins are checked.
struct Oracle {
  std::vector<geom::Segment> lines;
  core::QuadTree quad;
  core::RTree rtree;
  core::QuadTree probe_quad;
  core::RTree probe_rtree;

  explicit Oracle(const std::vector<geom::Segment>& map) : lines(map) {
    build(lines, quad, rtree);
  }

  void mount_probe(const std::vector<geom::Segment>& probe) {
    build(probe, probe_quad, probe_rtree);
  }

  /// Brute-force materialize-then-reduce range aggregate, in id order.
  core::WindowAggregate aggregate(const geom::Rect& w) const {
    core::WindowAggregate g;
    for (const geom::Segment& seg : lines) {
      double t0 = 0.0, t1 = 1.0;
      if (geom::clip_segment_to_rect(seg.a, seg.b, w, t0, t1)) {
        core::accumulate_hit(g, seg, t0, t1, core::AggregateScope{});
      }
    }
    return g;
  }

 private:
  static void build(const std::vector<geom::Segment>& slice,
                    core::QuadTree& q, core::RTree& r) {
    dpv::Context ctx;
    const ClusterMountOptions mo = mount_options();
    core::PmrBuildOptions po = mo.quad;
    po.world = mo.world;
    q = core::pmr_build(ctx, slice, po).tree;
    r = core::rtree_build(ctx, slice, mo.rtree).tree;
  }
};

/// Deterministic mixed batch (windows, points, k-nearest on both trees).
std::vector<Request> mixed_batch(const std::vector<geom::Segment>& lines,
                                 std::size_t n) {
  std::vector<Request> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>((i * 131) % 900);
    const double y = static_cast<double>((i * 71) % 900);
    switch (i % 4) {
      case 0:
        batch.push_back(Request::window_query(IndexKind::kQuadTree,
                                              {x, y, x + 90.0, y + 60.0}));
        break;
      case 1:
        batch.push_back(Request::window_query(IndexKind::kRTree,
                                              {x, y, x + 50.0, y + 80.0}));
        break;
      case 2:
        batch.push_back(Request::point_query(
            IndexKind::kQuadTree, lines[(i * 13) % lines.size()].mid()));
        break;
      default:
        batch.push_back(
            Request::nearest_query(IndexKind::kRTree, {x, y}, 1 + i % 5));
        break;
    }
  }
  return batch;
}

void expect_exact(const Request& rq, const Response& got, const Oracle& o,
                  std::size_t i, const char* label) {
  ASSERT_EQ(got.status, Status::kOk) << label << " request " << i;
  EXPECT_EQ(got.missing_shards, 0u) << label << " request " << i;
  if (rq.kind == RequestKind::kAggregate) {
    const core::WindowAggregate want = o.aggregate(rq.window);
    EXPECT_EQ(got.aggregate.count, want.count) << label << " request " << i;
    EXPECT_EQ(got.aggregate.bbox, want.bbox) << label << " request " << i;
    // FP-order contract: the sums differ from a single engine only by
    // floating-point association.
    const auto tol = [](double v) { return 1e-7 * (1.0 + std::fabs(v)); };
    EXPECT_NEAR(got.aggregate.length, want.length, tol(want.length))
        << label << " request " << i;
    EXPECT_NEAR(got.aggregate.wx, want.wx, tol(want.wx))
        << label << " request " << i;
    EXPECT_NEAR(got.aggregate.wy, want.wy, tol(want.wy))
        << label << " request " << i;
  } else if (rq.kind == RequestKind::kJoin) {
    EXPECT_EQ(got.pairs, rq.index == IndexKind::kQuadTree
                             ? core::spatial_join(o.quad, o.probe_quad)
                             : core::rtree_join(o.rtree, o.probe_rtree))
        << label << " request " << i;
  } else if (rq.kind == RequestKind::kNearest) {
    const auto want = rq.index == IndexKind::kQuadTree
                          ? core::k_nearest(o.quad, rq.point, rq.k)
                          : core::k_nearest(o.rtree, rq.point, rq.k);
    ASSERT_EQ(got.neighbors.size(), want.size()) << label << " request " << i;
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(got.neighbors[j].id, want[j].id) << label << " request " << i;
      EXPECT_DOUBLE_EQ(got.neighbors[j].distance2, want[j].distance2)
          << label << " request " << i;
    }
  } else {
    const auto want = rq.kind == RequestKind::kWindow
                          ? (rq.index == IndexKind::kQuadTree
                                 ? core::window_query(o.quad, rq.window)
                                 : core::window_query(o.rtree, rq.window))
                          : (rq.index == IndexKind::kQuadTree
                                 ? core::point_query(o.quad, rq.point)
                                 : core::point_query(o.rtree, rq.point));
    EXPECT_EQ(got.ids, want) << label << " request " << i;
  }
}

/// Schedule pinning a chaos kind to replica 0 only.
dpv::FaultSchedule replica0_schedule(std::uint64_t seed) {
  dpv::FaultSchedule s;
  s.seed = seed;
  s.replica_fault_mask = 1u;  // replica 0 only
  return s;
}

ClusterOptions base_options(std::size_t shards) {
  ClusterOptions co;
  co.shards = shards;
  co.cache.enabled = false;
  co.engine.shards = 2;
  co.engine.threads = 1;  // keep the 1-core CI box honest
  return co;
}

// A replica wedged forever (the reply never arrives) is rescued by a
// hedge to its shard's backup replica -- mounted because hedging is on --
// and the merged answer is still exactly the single-engine answer: no
// request waits on the stuck job.  The initial hedge delay is far beyond
// what a healthy replica takes even under a loaded or sanitized run, so
// only the stuck replica ever hedges.
TEST(ClusterHedge, BackupHedgeRescuesStuckReplica) {
  const auto lines = data::uniform_segments(300, kWorld, 22.0, 901);
  const Oracle oracle(lines);

  dpv::FaultSchedule s = replica0_schedule(test::chaos_seed(71));
  s.replica_stuck_rate = 1.0;
  dpv::FaultInjector inject(s);

  ClusterOptions co = base_options(4);
  co.replica_fault_injectors = {&inject};
  co.hedge.enabled = true;
  co.hedge.initial_delay = std::chrono::milliseconds(100);
  serve::Cluster cluster(co);
  cluster.mount(lines, mount_options());
  ASSERT_NE(cluster.backup(0), nullptr);

  const auto batch = mixed_batch(lines, 48);
  const auto responses = cluster.serve(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_exact(batch[i], responses[i], oracle, i, "stuck+backup-hedge");
  }
  const ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.ok, batch.size());
  EXPECT_GT(m.hedges_issued, 0u);
  EXPECT_GT(m.hedges_won, 0u);
  EXPECT_GT(inject.replica_stuck_count(), 0u)
      << "the schedule must actually have wedged subrequests";
  EXPECT_GT(m.replicas.at(0).hedges, 0u);
  EXPECT_EQ(m.replicas.at(1).hedges, 0u) << "chaos was pinned to replica 0";
}

// With an aggressive hedge delay, healthy primaries race their backups
// too; whichever copy wins, the merged answer is still exactly the
// single-engine answer.
TEST(ClusterHedge, BackupReplicaHedgeStaysExact) {
  const auto lines = data::uniform_segments(300, kWorld, 22.0, 902);
  const Oracle oracle(lines);

  dpv::FaultSchedule s = replica0_schedule(test::chaos_seed(72));
  s.replica_stuck_rate = 1.0;
  dpv::FaultInjector inject(s);

  ClusterOptions co = base_options(4);
  co.replica_fault_injectors = {&inject};
  co.hedge.enabled = true;
  co.hedge.initial_delay = std::chrono::microseconds(500);
  serve::Cluster cluster(co);
  cluster.mount(lines, mount_options());
  for (std::size_t shard = 0; shard < co.shards; ++shard) {
    ASSERT_NE(cluster.backup(shard), nullptr) << "shard " << shard;
  }

  const auto batch = mixed_batch(lines, 48);
  const auto responses = cluster.serve(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_exact(batch[i], responses[i], oracle, i, "backup-hedge");
  }
  const ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.ok, batch.size());
  EXPECT_GT(m.hedges_issued, 0u);
  EXPECT_GT(m.hedges_won, 0u);
}

// A crashing replica (fail-fast, no hedging configured) degrades to the
// sequential oracle over its own shard generation, for every request kind
// -- windows, points, a k-nearest whose primary shard is the crashed one,
// a k-nearest that widens into it, range aggregates and joins: still
// exact, counted as degraded, and never memoized -- replaying the same
// batch degrades again instead of hitting the cache.
TEST(ClusterDegrade, CrashDegradesToFallbackOracleAndSkipsCache) {
  const auto lines = data::uniform_segments(300, kWorld, 22.0, 903);
  auto probe = data::uniform_segments(150, kWorld, 30.0, 913);
  for (geom::Segment& seg : probe) seg.id += 20000;
  Oracle oracle(lines);
  oracle.mount_probe(probe);

  dpv::FaultSchedule s = replica0_schedule(test::chaos_seed(73));
  s.replica_crash_rate = 1.0;
  dpv::FaultInjector inject(s);

  ClusterOptions co = base_options(4);
  co.replica_fault_injectors = {&inject};
  co.cache.enabled = true;
  serve::Cluster cluster(co);
  cluster.mount(lines, mount_options());
  cluster.mount_probe(probe);

  // Every request consults replica 0, so every one of them loses a shard
  // answer to the crash.
  const geom::Rect f0 = cluster.plan().footprints[0];
  const geom::Point c = f0.center();
  std::vector<Request> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(Request::window_query(
        IndexKind::kQuadTree,
        {c.x - 10.0 - i, c.y - 10.0, c.x + 10.0, c.y + 10.0 + i}));
  }
  // Points on lines inside replica 0's footprint.
  std::size_t points = 0;
  for (std::size_t j = 0; j < lines.size() && points < 4; ++j) {
    if (!f0.contains(lines[j].mid())) continue;
    batch.push_back(Request::point_query(
        points % 2 == 0 ? IndexKind::kQuadTree : IndexKind::kRTree,
        lines[j].mid()));
    ++points;
  }
  ASSERT_EQ(points, 4u);
  // k-nearest whose primary (nearest-footprint) shard is replica 0.
  batch.push_back(Request::nearest_query(IndexKind::kRTree, c, 5));
  batch.push_back(Request::nearest_query(IndexKind::kQuadTree, c, 3));
  // k-nearest whose primary is a neighbouring shard, one unit inside it
  // at the point nearest replica 0: the kth-best bound reaches replica 0,
  // so the widening round consults it.
  geom::Point near0{};
  double near0_d2 = std::numeric_limits<double>::infinity();
  for (std::size_t sh = 1; sh < cluster.shards(); ++sh) {
    const geom::Rect& f = cluster.plan().footprints[sh];
    const geom::Point q{std::clamp(c.x, f.xmin + 1.0, f.xmax - 1.0),
                        std::clamp(c.y, f.ymin + 1.0, f.ymax - 1.0)};
    if (f0.distance2(q) < near0_d2) {
      near0_d2 = f0.distance2(q);
      near0 = q;
    }
  }
  ASSERT_GT(near0_d2, 0.0) << "the widening query's primary is not replica 0";
  batch.push_back(Request::nearest_query(IndexKind::kRTree, near0, 8));
  batch.push_back(Request::nearest_query(IndexKind::kQuadTree, near0, 8));
  // And the mirror image: primary replica 0, one unit inside it next to
  // that neighbour, so the refilled primary's bound must still widen.
  const geom::Point in0{std::clamp(near0.x, f0.xmin + 1.0, f0.xmax - 1.0),
                        std::clamp(near0.y, f0.ymin + 1.0, f0.ymax - 1.0)};
  batch.push_back(Request::nearest_query(IndexKind::kRTree, in0, 8));
  // Range aggregates (inside replica 0, and over the whole map) and joins.
  const geom::Rect inner{c.x - 40.0, c.y - 40.0, c.x + 40.0, c.y + 40.0};
  const geom::Rect all{0.0, 0.0, kWorld, kWorld};
  batch.push_back(Request::aggregate_query(IndexKind::kQuadTree, inner));
  batch.push_back(Request::aggregate_query(IndexKind::kRTree, all));
  batch.push_back(Request::aggregate_query(IndexKind::kRTree, inner));
  batch.push_back(Request::join_query(IndexKind::kQuadTree));
  batch.push_back(Request::join_query(IndexKind::kRTree));

  for (int pass = 0; pass < 2; ++pass) {
    const auto responses = cluster.serve(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expect_exact(batch[i], responses[i], oracle, i, "crash-degrade");
    }
  }
  const ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.ok, 2 * batch.size());
  EXPECT_EQ(m.degraded_fallback, 2 * batch.size())
      << "degraded answers must not have been served from the cache";
  EXPECT_EQ(m.cache_hits, 0u);
  EXPECT_EQ(m.cache.entries, 0u) << "degraded answers are never memoized";
  EXPECT_GT(m.replica_crashes, 0u);
  EXPECT_GT(m.missing_shard_answers, 0u);
  EXPECT_GT(m.knn_widened_shards, 0u);
  EXPECT_EQ(m.replicas.at(0).crashes, m.replica_crashes)
      << "all crashes belong to replica 0";
}

// allow_partial: when the shard answer is gone and the request opted in,
// it settles as kPartial -- surviving shards' exactly-merged hits, the
// missing domains counted -- inside the deadline budget, and the entry
// never reaches the cache.
TEST(ClusterDegrade, AllowPartialSettlesInBudgetAndIsNeverCached) {
  const auto lines = data::uniform_segments(300, kWorld, 22.0, 904);
  const Oracle oracle(lines);

  dpv::FaultSchedule s = replica0_schedule(test::chaos_seed(74));
  s.replica_stuck_rate = 1.0;
  dpv::FaultInjector inject(s);

  ClusterOptions co = base_options(4);
  co.replica_fault_injectors = {&inject};
  co.cache.enabled = true;
  serve::Cluster cluster(co);
  cluster.mount(lines, mount_options());

  // One whole-map window (touches every footprint, so replica 0's wedge
  // always bites) with a real deadline; opted in to partial answers.
  auto rq = Request::window_query(IndexKind::kQuadTree,
                                  {1.0, 1.0, kWorld - 1.0, kWorld - 1.0})
                .with_allow_partial();
  const auto whole = core::window_query(oracle.quad, rq.window);

  for (int pass = 0; pass < 2; ++pass) {
    rq.with_deadline(Clock::now() + std::chrono::milliseconds(60));
    const auto responses = cluster.serve({rq});
    ASSERT_EQ(responses.size(), 1u);
    const Response& rsp = responses[0];
    ASSERT_EQ(rsp.status, Status::kPartial) << "pass " << pass;
    EXPECT_EQ(rsp.missing_shards, 1u) << "only replica 0 was wedged";
    // The surviving hits are an exactly-merged subset of the whole-map
    // answer (sorted unique ids, each present in the oracle's).
    EXPECT_TRUE(std::is_sorted(rsp.ids.begin(), rsp.ids.end()));
    for (const geom::LineId id : rsp.ids) {
      EXPECT_TRUE(std::binary_search(whole.begin(), whole.end(), id));
    }
    EXPECT_LT(rsp.ids.size(), whole.size())
        << "replica 0's hits should be missing from the partial answer";
  }
  const ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.partial, 2u);
  EXPECT_EQ(m.cache_hits, 0u);
  EXPECT_EQ(m.cache.entries, 0u) << "kPartial is never admitted to the cache";
  EXPECT_GT(m.subrequest_timeouts, 0u)
      << "the wedged subrequest was abandoned at its budget";

  // Same configuration, no opt-in: the wedged shard's answer is refilled
  // from its own generation's sequential oracle, so the request settles
  // exactly -- and, degraded, still never reaches the cache.
  auto strict = Request::window_query(IndexKind::kQuadTree,
                                      {1.0, 1.0, kWorld - 1.0, kWorld - 1.0})
                    .with_deadline(Clock::now() + std::chrono::milliseconds(60));
  const auto strict_rsp = cluster.serve({strict});
  expect_exact(strict, strict_rsp[0], oracle, 0, "strict");
  EXPECT_EQ(cluster.metrics().degraded_fallback, 1u);
  EXPECT_EQ(cluster.metrics().cache.entries, 0u);
}

// The acceptance bar from the issue: a seeded stuck-forever replica under
// deadlines -- every affected request settles within its budget as kOk
// (backup hedge / shard oracle), bit-identically across replays and across the
// serial and thread-pool engine backends, and the chaos decision set
// itself replays exactly.
TEST(ClusterChaosAcceptance, StuckReplicaReplaysBitIdentically) {
  const auto lines = data::uniform_segments(300, kWorld, 22.0, 905);
  const Oracle oracle(lines);
  const auto batch = mixed_batch(lines, 40);

  struct Run {
    std::vector<Response> responses;
    std::uint64_t stucks = 0;
  };
  auto run_once = [&](std::size_t threads) {
    dpv::FaultSchedule s = replica0_schedule(test::chaos_seed(75));
    s.replica_stuck_rate = 1.0;
    dpv::FaultInjector inject(s);
    ClusterOptions co = base_options(4);
    co.engine.threads = threads;
    co.replica_fault_injectors = {&inject};
    co.hedge.enabled = true;
    co.hedge.initial_delay = std::chrono::microseconds(500);
    serve::Cluster cluster(co);
    cluster.mount(lines, mount_options());

    auto timed = batch;
    for (auto& rq : timed) {
      rq.with_deadline(Clock::now() + std::chrono::milliseconds(250));
    }
    Run run;
    run.responses = cluster.serve(timed);
    run.stucks = inject.replica_stuck_count();
    return run;
  };

  const Run first = run_once(1);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_exact(batch[i], first.responses[i], oracle, i, "acceptance");
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    const Run replay = run_once(threads);
    ASSERT_EQ(replay.responses.size(), first.responses.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Response& a = first.responses[i];
      const Response& b = replay.responses[i];
      EXPECT_EQ(a.status, b.status) << "threads " << threads;
      EXPECT_EQ(a.ids, b.ids) << "threads " << threads << " request " << i;
      ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
      for (std::size_t j = 0; j < a.neighbors.size(); ++j) {
        EXPECT_EQ(a.neighbors[j].id, b.neighbors[j].id);
        EXPECT_EQ(a.neighbors[j].distance2, b.neighbors[j].distance2);
      }
    }
    EXPECT_EQ(replay.stucks, first.stucks)
        << "the set of faulted subrequests must replay exactly";
  }
}

// Hedging can be on for a healthy cluster without changing anything: no
// hedges fire ahead of the (warmup) delay on a fast replica, and every
// answer stays exact.
TEST(ClusterHedge, HealthyClusterHedgesRarelyAndStaysExact) {
  const auto lines = data::uniform_segments(300, kWorld, 22.0, 906);
  const Oracle oracle(lines);

  ClusterOptions co = base_options(2);
  co.hedge.enabled = true;
  co.hedge.initial_delay = std::chrono::milliseconds(250);  // generous
  serve::Cluster cluster(co);
  cluster.mount(lines, mount_options());

  const auto batch = mixed_batch(lines, 48);
  const auto responses = cluster.serve(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_exact(batch[i], responses[i], oracle, i, "healthy");
  }
  const ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.ok, batch.size());
  EXPECT_EQ(m.subrequest_timeouts, 0u);
  EXPECT_EQ(m.degraded_fallback, 0u);
  EXPECT_EQ(m.partial, 0u);
}

// Every settled response carries its own latency stamp, and the cluster
// histogram records one sample per request -- cache hits and invalid
// requests included.
TEST(ClusterLatency, EveryResponseStampedAtSettleTime) {
  const auto lines = data::uniform_segments(250, kWorld, 22.0, 907);
  ClusterOptions co = base_options(2);
  co.cache.enabled = true;
  serve::Cluster cluster(co);
  cluster.mount(lines, mount_options());

  std::vector<Request> batch = mixed_batch(lines, 16);
  batch.push_back(Request::nearest_query(IndexKind::kQuadTree, {1, 1}, 0));
  cluster.serve(batch);                          // cold pass fills the cache
  const auto responses = cluster.serve(batch);   // warm pass hits it
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_GT(responses[i].latency_us, 0.0) << "request " << i;
  }
  const ClusterMetrics m = cluster.metrics();
  EXPECT_GT(m.cache_hits, 0u);
  EXPECT_EQ(m.latency.count(), m.requests)
      << "one latency sample per request, stamped when it settles";
}

using test::DispatchForceScope;
using test::kUnforced;
constexpr int kInline = static_cast<int>(dpv::CostPath::kSeq);
constexpr int kFanOut = static_cast<int>(dpv::CostPath::kDp);

/// One batch over every request kind the rounds carry: windows, points,
/// k-nearest (the last few next to the map centre, where four footprints
/// meet, so the widening round has work), range aggregates and joins.
std::vector<Request> rounds_batch(const std::vector<geom::Segment>& lines) {
  std::vector<Request> batch = mixed_batch(lines, 40);
  for (const geom::Point p : {geom::Point{kWorld / 2 - 3.0, kWorld / 2 - 2.0},
                              geom::Point{kWorld / 2 + 2.0, kWorld / 2 - 4.0},
                              geom::Point{kWorld / 2 - 1.0, kWorld / 2 + 3.0}}) {
    batch.push_back(Request::nearest_query(IndexKind::kRTree, p, 8));
    batch.push_back(Request::nearest_query(IndexKind::kQuadTree, p, 6));
  }
  batch.push_back(Request::aggregate_query(IndexKind::kQuadTree,
                                           {100.0, 200.0, 700.0, 650.0}));
  batch.push_back(
      Request::aggregate_query(IndexKind::kRTree, {0.0, 0.0, kWorld, kWorld}));
  batch.push_back(Request::aggregate_query(IndexKind::kQuadTree,
                                           {480.0, 480.0, 560.0, 540.0}));
  batch.push_back(Request::join_query(IndexKind::kQuadTree));
  batch.push_back(Request::join_query(IndexKind::kRTree));
  return batch;
}

struct RoundsRun {
  std::vector<Response> responses;
  ClusterMetrics metrics;
};

/// Mounts a fresh cluster (and the probe map) and serves `batch` once.
RoundsRun serve_rounds(const ClusterOptions& co,
                       const std::vector<geom::Segment>& lines,
                       const std::vector<geom::Segment>& probe,
                       std::vector<Request> batch) {
  serve::Cluster cluster(co);
  cluster.mount(lines, mount_options());
  cluster.mount_probe(probe);
  RoundsRun run;
  run.responses = cluster.serve(batch);
  run.metrics = cluster.metrics();
  return run;
}

std::vector<geom::Segment> rounds_probe() {
  auto probe = data::uniform_segments(150, kWorld, 30.0, 918);
  for (geom::Segment& seg : probe) seg.id += 20000;
  return probe;
}

// The same seeded batch served with every round inline, every round
// forked, and as the fork rule decides: identical answers, each
// exact against the whole-map oracle, and the round counters show which
// path ran.
TEST(ClusterRounds, InlineAndFanOutAnswersAgree) {
  const auto lines = data::uniform_segments(300, kWorld, 22.0, 908);
  const auto probe = rounds_probe();
  Oracle oracle(lines);
  oracle.mount_probe(probe);
  const auto batch = rounds_batch(lines);
  const ClusterOptions co = base_options(4);

  std::vector<RoundsRun> runs;
  for (const int path : {kInline, kFanOut, kUnforced}) {
    const DispatchForceScope force(path);
    runs.push_back(serve_rounds(co, lines, probe, batch));
  }
  const char* labels[] = {"inline", "fan-out", "model"};
  for (std::size_t r = 0; r < runs.size(); ++r) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expect_exact(batch[i], runs[r].responses[i], oracle, i, labels[r]);
    }
    EXPECT_GT(runs[r].metrics.knn_widened_shards, 0u) << labels[r];
    EXPECT_EQ(runs[r].metrics.inline_rounds + runs[r].metrics.fanout_rounds,
              2u)
        << labels[r] << ": one primary round and one widening round";
  }
  EXPECT_EQ(runs[0].metrics.fanout_rounds, 0u);
  EXPECT_EQ(runs[1].metrics.inline_rounds, 0u);

  for (std::size_t r = 1; r < runs.size(); ++r) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Response& a = runs[0].responses[i];
      const Response& b = runs[r].responses[i];
      EXPECT_EQ(a.status, b.status) << labels[r] << " request " << i;
      EXPECT_EQ(a.ids, b.ids) << labels[r] << " request " << i;
      EXPECT_EQ(a.pairs, b.pairs) << labels[r] << " request " << i;
      ASSERT_EQ(a.neighbors.size(), b.neighbors.size()) << labels[r];
      for (std::size_t j = 0; j < a.neighbors.size(); ++j) {
        EXPECT_EQ(a.neighbors[j].id, b.neighbors[j].id) << labels[r];
        EXPECT_EQ(a.neighbors[j].distance2, b.neighbors[j].distance2)
            << labels[r];
      }
      // Shard answers fold in shard order on both paths: bitwise equal.
      EXPECT_EQ(a.aggregate.count, b.aggregate.count) << labels[r];
      EXPECT_EQ(a.aggregate.bbox, b.aggregate.bbox) << labels[r];
      EXPECT_EQ(a.aggregate.length, b.aggregate.length) << labels[r];
      EXPECT_EQ(a.aggregate.wx, b.aggregate.wx) << labels[r];
      EXPECT_EQ(a.aggregate.wy, b.aggregate.wy) << labels[r];
    }
  }
}

// Hedging, a replica fault injector, a request deadline and a subrequest
// timeout each arm machinery that lives in the fan-out wait loop, so even
// with every round forced inline those rounds fan out -- and every answer
// stays exact.
TEST(ClusterRounds, FailureDomainRoundsAlwaysFanOut) {
  const auto lines = data::uniform_segments(300, kWorld, 22.0, 909);
  const auto probe = rounds_probe();
  Oracle oracle(lines);
  oracle.mount_probe(probe);
  const auto batch = rounds_batch(lines);
  const DispatchForceScope force(kInline);

  // A replica that stalls briefly on every subrequest: slow, still exact.
  dpv::FaultSchedule s = replica0_schedule(test::chaos_seed(76));
  s.replica_stall_rate = 1.0;
  s.replica_stall_us = std::chrono::microseconds(300);
  dpv::FaultInjector inject(s);

  struct Case {
    const char* label;
    ClusterOptions co;
    bool deadline;
  };
  std::vector<Case> cases;
  cases.push_back({"hedge", base_options(4), false});
  cases.back().co.hedge.enabled = true;
  cases.back().co.hedge.initial_delay = std::chrono::milliseconds(250);
  cases.push_back({"replica-injector", base_options(4), false});
  cases.back().co.replica_fault_injectors = {&inject};
  cases.push_back({"deadline", base_options(4), true});
  cases.push_back({"subrequest-timeout", base_options(4), false});
  cases.back().co.subrequest_timeout = std::chrono::seconds(30);

  for (const Case& c : cases) {
    auto timed = batch;
    if (c.deadline) {
      for (Request& rq : timed) {
        rq.with_deadline(Clock::now() + std::chrono::seconds(30));
      }
    }
    const RoundsRun run = serve_rounds(c.co, lines, probe, timed);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expect_exact(batch[i], run.responses[i], oracle, i, c.label);
    }
    EXPECT_EQ(run.metrics.inline_rounds, 0u) << c.label;
    EXPECT_EQ(run.metrics.fanout_rounds, 2u) << c.label;
    EXPECT_EQ(run.metrics.ok, batch.size()) << c.label;
  }
  EXPECT_GT(inject.replica_stall_count(), 0u)
      << "the injector must actually have stalled subrequests";
}

/// About 2000 small windows on a 45 x 45 grid over the whole map, both
/// trees: every shard routes roughly a quarter of them.
std::vector<Request> grid_windows() {
  std::vector<Request> batch;
  for (int i = 0; i < 45; ++i) {
    for (int j = 0; j < 45; ++j) {
      const double x = 22.0 * i, y = 22.0 * j;
      batch.push_back(Request::window_query(
          (i + j) % 2 == 0 ? IndexKind::kQuadTree : IndexKind::kRTree,
          {x, y, x + 30.0, y + 30.0}));
    }
  }
  return batch;
}

// Unforced, a cold cluster has learned no per-subrequest cost, so its
// first round stays on the calling thread.  Once one batch has trained
// it, a round of ~2000 windows over all four shards moves enough work off
// the calling thread to fork -- and the shard the calling thread serves
// itself completes on its replica's ledger like the pool-served ones.
TEST(ClusterRounds, SmallRoundsStayInlineLargeRoundsFork) {
  const auto lines = data::uniform_segments(300, kWorld, 22.0, 910);
  Oracle oracle(lines);
  const DispatchForceScope force(kUnforced);
  serve::Cluster cluster(base_options(4));
  cluster.mount(lines, mount_options());

  const std::vector<Request> one = {Request::window_query(
      IndexKind::kQuadTree, {100.0, 100.0, 180.0, 160.0})};
  const auto small = cluster.serve(one);
  expect_exact(one[0], small[0], oracle, 0, "one-request");
  ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.inline_rounds, 1u);
  EXPECT_EQ(m.fanout_rounds, 0u);

  const auto windows = grid_windows();
  const auto trained = cluster.serve(windows);
  cluster.reset_metrics();
  const auto large = cluster.serve(windows);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    expect_exact(windows[i], trained[i], oracle, i, "training");
    expect_exact(windows[i], large[i], oracle, i, "large");
  }
  m = cluster.metrics();
  EXPECT_GE(m.fanout_rounds, 1u);
  ASSERT_EQ(m.replicas.size(), 4u);
  for (const ReplicaHealth& h : m.replicas) {
    EXPECT_GE(h.subrequests, 2u) << "both grid batches route to every shard";
    EXPECT_EQ(h.completed, h.subrequests) << "replica " << h.replica;
  }
}

// Two clients serve through one cluster with every round forked.  Their
// batches lean towards opposite corners of the map, so each client's
// calling thread keeps a different shard while the other client's pool
// job serves that same shard's engine: concurrent serves of one replica
// from both paths, every answer exact.
TEST(ClusterRounds, TwoClientsShareForkedRounds) {
  const auto lines = data::uniform_segments(300, kWorld, 22.0, 911);
  Oracle oracle(lines);
  const DispatchForceScope force(kFanOut);
  serve::Cluster cluster(base_options(4));
  cluster.mount(lines, mount_options());

  const auto leaning = [&](double cx, double cy) {
    std::vector<Request> batch = mixed_batch(lines, 24);
    for (int i = 0; i < 40; ++i) {
      const double x = cx + 20.0 * (i % 8), y = cy + 20.0 * (i / 8);
      batch.push_back(Request::window_query(
          i % 2 == 0 ? IndexKind::kQuadTree : IndexKind::kRTree,
          {x, y, x + 25.0, y + 25.0}));
    }
    return batch;
  };
  const std::vector<Request> batches[2] = {leaning(40.0, 40.0),
                                           leaning(700.0, 700.0)};
  constexpr std::size_t kIters = 12;
  std::vector<std::vector<Response>> got[2];
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t it = 0; it < kIters; ++it) {
        got[c].push_back(cluster.serve(batches[c]));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (std::size_t c = 0; c < 2; ++c) {
    ASSERT_EQ(got[c].size(), kIters);
    for (const auto& rsps : got[c]) {
      for (std::size_t i = 0; i < batches[c].size(); ++i) {
        expect_exact(batches[c][i], rsps[i], oracle, i,
                     c == 0 ? "client 0" : "client 1");
      }
    }
  }
  const ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.inline_rounds, 0u);
  EXPECT_GE(m.fanout_rounds, 2 * kIters);
  for (const ReplicaHealth& h : m.replicas) {
    EXPECT_EQ(h.completed, h.subrequests) << "replica " << h.replica;
  }
}

}  // namespace
}  // namespace dps::serve
