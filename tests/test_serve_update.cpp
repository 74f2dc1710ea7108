// Live-update differential layer: batched insert/delete deltas applied
// through QueryEngine::apply_update / Cluster::apply_update must leave the
// serving stack *exactly* where a from-scratch rebuild of the surviving
// lines would -- same quadtree fingerprints (history-independence at serve
// scope), same answers (ids, distances^2, tie order) -- across generators,
// shard counts, backends, and compaction schedules.  On top of that:
//
//   * snapshot consistency: concurrent readers racing a sustained update
//     stream never observe a torn generation -- every response is
//     attributable to exactly one pre- or post-update snapshot, and the
//     observed update version is monotonic per reader;
//   * chaos: a fault-aborted shadow build (the "mid-swap crash" schedule)
//     publishes nothing -- fingerprint, epoch, and answers all stay at the
//     pre-update state; seeded random fault schedules (remixed through
//     DPS_CHAOS_SEED) keep the applied-updates-only equivalence;
//   * delta-scoped cache invalidation: warm entries outside the dirty
//     region survive an update and still hit, intersecting entries drop,
//     unbounded k-nearest entries always drop, stale fills are
//     version-rejected, and the full-flush A/B baseline drops everything;
//   * the pmr_insert id-collision contract is enforced at the serve
//     boundary (kInvalidArgument, nothing published), while delete +
//     reinsert of an id inside one batch stays legal.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/core.hpp"
#include "data/data.hpp"
#include "serve/cache.hpp"
#include "serve/cluster.hpp"
#include "serve/engine.hpp"
#include "test_util.hpp"

namespace dps {
namespace {

constexpr double kWorld = 1024.0;
/// Insert ids start far above anything the map generators hand out.
constexpr geom::LineId kInsertBase = 1u << 20;

std::vector<geom::Segment> make_map(const char* generator, std::size_t n,
                                    std::uint64_t seed) {
  const std::string g = generator;
  if (g == "roads") return data::hierarchical_roads(n, kWorld, seed);
  if (g == "clustered") {
    return data::clustered_segments(n, 5, kWorld / 30.0, kWorld, 12.0, seed);
  }
  return data::uniform_segments(n, kWorld, 18.0, seed);
}

core::PmrBuildOptions quad_options() {
  core::PmrBuildOptions po;
  po.world = kWorld;
  po.max_depth = 12;
  po.bucket_capacity = 6;
  return po;
}

core::RtreeBuildOptions rtree_options() {
  core::RtreeBuildOptions ro;
  ro.m = 2;
  ro.M = 8;
  return ro;
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

serve::UpdateOptions update_options(std::size_t compact_after) {
  serve::UpdateOptions uo;
  uo.build = quad_options();
  uo.rtree = rtree_options();
  uo.compact_after = compact_after;
  return uo;
}

geom::Segment random_segment(std::mt19937_64& rng, geom::LineId id) {
  std::uniform_real_distribution<double> pos(1.0, kWorld - 25.0);
  std::uniform_real_distribution<double> delta(-20.0, 20.0);
  const double x = pos(rng), y = pos(rng);
  double dx = delta(rng), dy = delta(rng);
  if (std::abs(dx) < 1.0 && std::abs(dy) < 1.0) dx = 6.0;
  return {{x, y},
          {std::clamp(x + dx, 0.0, kWorld), std::clamp(y + dy, 0.0, kWorld)},
          id};
}

/// One random delta batch: `dels` existing lines (by index into `live`),
/// `unknown` never-live ids, `ins` fresh segments.  Mutates `live` into
/// the expected surviving set *in the same order the update path keeps*:
/// survivors in prior order, inserts appended in batch order.
serve::UpdateBatch make_delta(std::vector<geom::Segment>& live,
                              std::mt19937_64& rng, std::size_t dels,
                              std::size_t ins, std::size_t unknown,
                              geom::LineId& next_id) {
  serve::UpdateBatch batch;
  dels = std::min(dels, live.size());
  std::vector<std::size_t> order(live.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  order.resize(dels);
  std::sort(order.begin(), order.end());
  for (const std::size_t i : order) batch.deletes.push_back(live[i].id);
  for (std::size_t u = 0; u < unknown; ++u) {
    batch.deletes.push_back(0x7F000000u + static_cast<geom::LineId>(u));
  }
  for (std::size_t i = dels; i-- > 0;) {
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(order[i]));
  }
  for (std::size_t i = 0; i < ins; ++i) {
    batch.inserts.push_back(random_segment(rng, next_id++));
    live.push_back(batch.inserts.back());
  }
  return batch;
}

/// Mixed request workload over every kind and index (k-nearest skips the
/// linear quadtree), like the engine/cluster differential suites.
std::vector<serve::Request> random_requests(
    const std::vector<geom::Segment>& lines, std::size_t n,
    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> pos(0.0, kWorld - 1.0);
  std::uniform_real_distribution<double> extent(2.0, kWorld / 6.0);
  std::uniform_int_distribution<std::size_t> kdist(1, 8);
  std::uniform_int_distribution<int> kind(0, 9);
  std::uniform_int_distribution<int> index(0, 2);
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
          idx == serve::IndexKind::kLinearQuadTree ? serve::IndexKind::kRTree
                                                   : idx,
          {pos(rng), pos(rng)}, kdist(rng)));
    }
  }
  return batch;
}

/// From-scratch rebuild oracle: fresh indexes over the surviving lines,
/// queried one request at a time with the sequential core operations.
struct RebuildOracle {
  core::QuadTree quad;
  core::RTree rtree;
  core::LinearQuadTree linear;

  explicit RebuildOracle(const std::vector<geom::Segment>& lines) {
    dpv::Context ctx;
    quad = core::pmr_build(ctx, lines, quad_options()).tree;
    rtree = core::rtree_build(ctx, lines, rtree_options()).tree;
    linear = core::LinearQuadTree::from(quad);
  }

  std::vector<geom::LineId> ids(const serve::Request& rq) const {
    if (rq.kind == serve::RequestKind::kWindow) {
      switch (rq.index) {
        case serve::IndexKind::kQuadTree:
          return core::window_query(quad, rq.window);
        case serve::IndexKind::kRTree:
          return core::window_query(rtree, rq.window);
        case serve::IndexKind::kLinearQuadTree:
          return linear.window_query(rq.window);
      }
    }
    switch (rq.index) {
      case serve::IndexKind::kQuadTree:
        return core::point_query(quad, rq.point);
      case serve::IndexKind::kRTree:
        return core::point_query(rtree, rq.point);
      case serve::IndexKind::kLinearQuadTree:
        return linear.point_query(rq.point);
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
                  const RebuildOracle& oracle, std::size_t i,
                  std::size_t step) {
  ASSERT_EQ(got.status, serve::Status::kOk)
      << "step " << step << " request " << i;
  if (rq.kind == serve::RequestKind::kNearest) {
    const auto want = oracle.nearest(rq);
    ASSERT_EQ(got.neighbors.size(), want.size())
        << "step " << step << " request " << i;
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(got.neighbors[j].id, want[j].id)
          << "step " << step << " request " << i << " neighbor " << j;
      EXPECT_DOUBLE_EQ(got.neighbors[j].distance2, want[j].distance2)
          << "step " << step << " request " << i << " neighbor " << j;
    }
  } else {
    EXPECT_EQ(got.ids, oracle.ids(rq))
        << "step " << step << " request " << i;
  }
}

std::string rebuild_fingerprint(const std::vector<geom::Segment>& lines,
                                const core::PmrBuildOptions& po) {
  dpv::Context ctx;
  return core::pmr_build(ctx, lines, po).tree.fingerprint();
}

// ---------------------------------------------------------------------------
// Engine-level differential: apply_update == rebuild, stream after stream.
// ---------------------------------------------------------------------------

struct EngineUpdateCase {
  const char* generator;
  std::size_t n_lines;
  std::uint64_t seed;
  std::size_t threads;  // 1 = serial-ish backend, >1 = thread pool
  std::size_t compact_after;
};

class EngineUpdateDifferential
    : public ::testing::TestWithParam<EngineUpdateCase> {};

TEST_P(EngineUpdateDifferential, UpdateMatchesRebuildExactly) {
  const EngineUpdateCase& c = GetParam();
  const auto initial = make_map(c.generator, c.n_lines, c.seed);
  std::vector<geom::Segment> live = initial;

  dpv::Context build_ctx;
  const core::QuadTree quad =
      core::pmr_build(build_ctx, initial, quad_options()).tree;
  const core::RTree rtree =
      core::rtree_build(build_ctx, initial, rtree_options()).tree;
  const core::LinearQuadTree linear = core::LinearQuadTree::from(quad);

  serve::EngineOptions eo;
  eo.shards = 2;
  eo.threads = c.threads;
  serve::QueryEngine engine(eo);
  engine.mount(&quad);
  engine.mount(&rtree);
  engine.mount(&linear);
  const std::uint64_t epoch0 = engine.mount_epoch();

  const serve::UpdateOptions uo = update_options(c.compact_after);
  std::mt19937_64 rng(c.seed * 7919 + 101);
  geom::LineId next_id = kInsertBase;

  for (std::size_t step = 0; step < 6; ++step) {
    const std::size_t unknown = step == 3 ? 2 : 0;
    const std::size_t before = live.size();
    const serve::UpdateBatch batch =
        make_delta(live, rng, /*dels=*/8, /*ins=*/10, unknown, next_id);
    const serve::UpdateResult res = engine.apply_update(batch, uo);
    ASSERT_EQ(res.status, serve::Status::kOk) << "step " << step;
    EXPECT_EQ(res.inserted, 10u);
    EXPECT_EQ(res.deleted, before - (live.size() - 10));
    EXPECT_EQ(res.unknown_deletes, unknown);
    EXPECT_EQ(res.epoch, epoch0 + step + 1)
        << "every published update advances the epoch by one";

    // History-independence at serve scope: the updated tree is exactly the
    // from-scratch rebuild of the surviving lines.
    EXPECT_EQ(engine.quad_fingerprint(),
              rebuild_fingerprint(live, quad_options()))
        << "step " << step;

    // Byte-identical answers vs the rebuild oracle, on all three indexes
    // (the stale R-tree / linear quadtree rebuild lazily on first use).
    const RebuildOracle oracle(live);
    const auto reqs = random_requests(live, 60, c.seed * 31 + step);
    const auto responses = engine.serve(reqs);
    ASSERT_EQ(responses.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      expect_exact(reqs[i], responses[i], oracle, i, step);
    }
  }

  const serve::ServeMetrics m = engine.metrics();
  EXPECT_EQ(m.updates, 6u);
  EXPECT_EQ(m.update_inserts, 60u);
  EXPECT_EQ(m.update_failures, 0u);
  EXPECT_GT(m.lazy_rtree_rebuilds, 0u);
  EXPECT_GT(m.lazy_linear_rebuilds, 0u);
  if (c.compact_after < 18) {
    // Every step carries 18+ deltas, so a small threshold must compact.
    EXPECT_GT(m.compactions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, EngineUpdateDifferential,
    ::testing::Values(
        // generator, lines, seed, threads, compact_after
        EngineUpdateCase{"uniform", 350, 1, 1, 64},
        EngineUpdateCase{"uniform", 350, 2, 4, 64},
        EngineUpdateCase{"clustered", 350, 3, 1, 64},
        EngineUpdateCase{"clustered", 350, 4, 4, 16},
        EngineUpdateCase{"roads", 350, 5, 1, 16},
        EngineUpdateCase{"roads", 350, 6, 4, 64}),
    [](const ::testing::TestParamInfo<EngineUpdateCase>& info) {
      const EngineUpdateCase& c = info.param;
      return std::string(c.generator) + "_s" + std::to_string(c.seed) + "_t" +
             std::to_string(c.threads) + "_c" +
             std::to_string(c.compact_after);
    });

// Deterministic compaction schedule: the delta debt accumulates across
// incremental updates, a crossing batch triggers the full rebuild, and the
// debt resets -- with rebuild equivalence holding at every point.
TEST(EngineUpdate, CompactionResetsDebtAndMatchesRebuild) {
  std::vector<geom::Segment> live = make_map("uniform", 200, 42);
  dpv::Context ctx;
  const core::QuadTree quad = core::pmr_build(ctx, live, quad_options()).tree;
  serve::QueryEngine engine;
  engine.mount(&quad);

  const serve::UpdateOptions uo = update_options(/*compact_after=*/10);
  std::mt19937_64 rng(43);
  geom::LineId next_id = kInsertBase;

  // 6 deltas: under the threshold -> incremental.
  auto b1 = make_delta(live, rng, 3, 3, 0, next_id);
  auto r1 = engine.apply_update(b1, uo);
  ASSERT_EQ(r1.status, serve::Status::kOk);
  EXPECT_FALSE(r1.compacted);
  // 6 + 6 > 10 -> full rebuild, debt resets.
  auto b2 = make_delta(live, rng, 3, 3, 0, next_id);
  auto r2 = engine.apply_update(b2, uo);
  ASSERT_EQ(r2.status, serve::Status::kOk);
  EXPECT_TRUE(r2.compacted);
  // Fresh debt: 6 <= 10 -> incremental again.
  auto b3 = make_delta(live, rng, 3, 3, 0, next_id);
  auto r3 = engine.apply_update(b3, uo);
  ASSERT_EQ(r3.status, serve::Status::kOk);
  EXPECT_FALSE(r3.compacted);

  EXPECT_EQ(engine.quad_fingerprint(),
            rebuild_fingerprint(live, quad_options()));
  EXPECT_EQ(engine.metrics().compactions, 1u);
}

// An engine grown from empty via apply_update serves the full index
// matrix: the quadtree directly, the siblings through the lazy per-epoch
// rebuild.
TEST(EngineUpdate, GrowFromEmptyServesFullMatrix) {
  serve::QueryEngine engine;
  EXPECT_FALSE(engine.mounted_index(serve::IndexKind::kQuadTree));

  std::vector<geom::Segment> live;
  std::mt19937_64 rng(7);
  geom::LineId next_id = kInsertBase;
  serve::UpdateBatch batch;
  for (std::size_t i = 0; i < 40; ++i) {
    batch.inserts.push_back(random_segment(rng, next_id++));
    live.push_back(batch.inserts.back());
  }
  const auto res = engine.apply_update(batch, update_options(64));
  ASSERT_EQ(res.status, serve::Status::kOk);
  EXPECT_TRUE(engine.mounted_index(serve::IndexKind::kQuadTree));
  EXPECT_TRUE(engine.mounted_index(serve::IndexKind::kRTree));
  EXPECT_TRUE(engine.mounted_index(serve::IndexKind::kLinearQuadTree));

  const RebuildOracle oracle(live);
  const auto reqs = random_requests(live, 45, 99);
  const auto responses = engine.serve(reqs);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    expect_exact(reqs[i], responses[i], oracle, i, 0);
  }
  const serve::ServeMetrics m = engine.metrics();
  EXPECT_EQ(m.lazy_rtree_rebuilds, 1u);
  EXPECT_EQ(m.lazy_linear_rebuilds, 1u);
}

// ---------------------------------------------------------------------------
// Cluster-level differential: sharded live updates == whole-map rebuild.
// ---------------------------------------------------------------------------

struct ClusterUpdateCase {
  const char* generator;
  std::size_t n_lines;
  std::uint64_t seed;
  std::size_t shards;
  std::size_t threads;
  bool cache_on;
  std::size_t compact_after;
};

serve::ClusterOptions cluster_options(const ClusterUpdateCase& c) {
  serve::ClusterOptions co;
  co.shards = c.shards;
  co.cache.enabled = c.cache_on;
  co.engine.shards = 2;
  co.engine.threads = c.threads;
  co.update_compact_after = c.compact_after;
  return co;
}

class ClusterUpdateDifferential
    : public ::testing::TestWithParam<ClusterUpdateCase> {};

TEST_P(ClusterUpdateDifferential, UpdateMatchesRebuildExactly) {
  const ClusterUpdateCase& c = GetParam();
  std::vector<geom::Segment> live = make_map(c.generator, c.n_lines, c.seed);

  serve::Cluster cluster(cluster_options(c));
  cluster.mount(live, mount_options());

  std::mt19937_64 rng(c.seed * 6151 + 5);
  geom::LineId next_id = kInsertBase;
  core::PmrBuildOptions po = mount_options().quad;
  po.world = mount_options().world;

  for (std::size_t step = 0; step < 5; ++step) {
    const std::size_t unknown = step == 2 ? 2 : 0;
    const std::size_t before = live.size();
    const serve::UpdateBatch batch =
        make_delta(live, rng, /*dels=*/8, /*ins=*/10, unknown, next_id);
    const serve::UpdateResult res = cluster.apply_update(batch);
    ASSERT_EQ(res.status, serve::Status::kOk) << "step " << step;
    EXPECT_EQ(res.inserted, 10u);
    EXPECT_EQ(res.deleted, before - (live.size() - 10));
    EXPECT_EQ(res.unknown_deletes, unknown);

    // Per-shard history-independence: every replica's updated quadtree is
    // byte-identical to rebuilding that shard from the surviving lines
    // through the same cloning rule `mount` shards with.
    const core::ShardedSegments resharded =
        core::shard_segments(live, cluster.plan().extent, c.shards);
    for (std::size_t s = 0; s < c.shards; ++s) {
      const std::string got = cluster.engine(s).quad_fingerprint();
      if (got.empty() && resharded.shards[s].empty()) continue;
      EXPECT_EQ(got, rebuild_fingerprint(resharded.shards[s], po))
          << "step " << step << " shard " << s;
    }

    // Byte-identical answers vs the whole-map rebuild oracle; the second
    // pass replays through the cache when it is on.
    const RebuildOracle oracle(live);
    const auto reqs = random_requests(live, 80, c.seed * 131 + step);
    for (int pass = 0; pass < 2; ++pass) {
      const auto responses = cluster.serve(reqs);
      ASSERT_EQ(responses.size(), reqs.size());
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        expect_exact(reqs[i], responses[i], oracle, i, step);
      }
    }
  }

  const serve::ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.updates, 5u);
  EXPECT_EQ(m.update_inserts, 50u);
  EXPECT_EQ(m.update_failures, 0u);
  if (c.compact_after < 18) {
    EXPECT_GT(m.compactions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, ClusterUpdateDifferential,
    ::testing::Values(
        // generator, lines, seed, shards, threads, cache_on, compact_after
        ClusterUpdateCase{"uniform", 400, 11, 1, 1, true, 64},
        ClusterUpdateCase{"uniform", 400, 12, 2, 4, true, 64},
        ClusterUpdateCase{"uniform", 400, 13, 4, 1, false, 64},
        ClusterUpdateCase{"clustered", 400, 14, 1, 4, false, 16},
        ClusterUpdateCase{"clustered", 400, 15, 2, 1, true, 16},
        ClusterUpdateCase{"clustered", 400, 16, 4, 4, true, 64},
        ClusterUpdateCase{"roads", 400, 17, 1, 1, false, 64},
        ClusterUpdateCase{"roads", 400, 18, 2, 4, false, 8},
        ClusterUpdateCase{"roads", 400, 19, 4, 1, true, 64}),
    [](const ::testing::TestParamInfo<ClusterUpdateCase>& info) {
      const ClusterUpdateCase& c = info.param;
      return std::string(c.generator) + "_s" + std::to_string(c.seed) +
             "_sh" + std::to_string(c.shards) + "_t" +
             std::to_string(c.threads) + (c.cache_on ? "_cache" : "_nocache") +
             "_c" + std::to_string(c.compact_after);
    });

// Backup replicas (mounted when hedging is on) adopt their primary's
// generation on every update, so a hedge target answers from the same
// snapshot as the primary.
TEST(ClusterUpdate, BackupReplicasAdoptUpdatedGenerations) {
  std::vector<geom::Segment> live = make_map("uniform", 300, 77);
  serve::ClusterOptions co;
  co.shards = 2;
  co.hedge.enabled = true;
  co.engine.threads = 2;
  serve::Cluster cluster(co);
  cluster.mount(live, mount_options());

  std::mt19937_64 rng(78);
  geom::LineId next_id = kInsertBase;
  const auto batch = make_delta(live, rng, 6, 8, 0, next_id);
  ASSERT_EQ(cluster.apply_update(batch).status, serve::Status::kOk);

  for (std::size_t s = 0; s < 2; ++s) {
    ASSERT_NE(cluster.backup(s), nullptr);
    EXPECT_EQ(cluster.backup(s)->quad_fingerprint(),
              cluster.engine(s).quad_fingerprint())
        << "shard " << s;
  }
}

// ---------------------------------------------------------------------------
// Snapshot consistency: readers vs a sustained update stream.
// ---------------------------------------------------------------------------

// Each update atomically replaces sentinel line (kSentinelBase + k) with
// (kSentinelBase + k + 1) inside one fixed cell.  A reader's window query
// over the cell must therefore always see *exactly one* sentinel id -- a
// torn snapshot would show zero (delete visible, insert not) or two -- and
// the sentinel version must be monotonic per reader (generations publish
// in order; a pinned snapshot never rolls back).
constexpr geom::LineId kSentinelBase = 2u << 20;
constexpr geom::Rect kSentinelCell{500.0, 500.0, 512.0, 512.0};

geom::Segment sentinel_segment(std::uint64_t version) {
  const double off = static_cast<double>(version % 8);
  return {{501.0 + off, 502.0},
          {510.0, 503.0 + off},
          kSentinelBase + static_cast<geom::LineId>(version)};
}

TEST(SnapshotConsistency, EngineReadersNeverSeeTornUpdate) {
  auto lines = make_map("uniform", 300, 2024);
  lines.push_back(sentinel_segment(0));
  dpv::Context ctx;
  const core::QuadTree quad = core::pmr_build(ctx, lines, quad_options()).tree;
  const core::RTree rtree =
      core::rtree_build(ctx, lines, rtree_options()).tree;
  const core::LinearQuadTree linear = core::LinearQuadTree::from(quad);

  serve::EngineOptions eo;
  eo.shards = 2;
  eo.threads = 4;
  serve::QueryEngine engine(eo);
  engine.mount(&quad);
  engine.mount(&rtree);
  engine.mount(&linear);

  constexpr std::uint64_t kUpdates = 40;
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};

  auto reader = [&](serve::IndexKind idx) {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::vector<serve::Request> one{
          serve::Request::window_query(idx, kSentinelCell)};
      const auto rsp = engine.serve(one);
      if (rsp.size() != 1 || rsp[0].status != serve::Status::kOk) {
        violations.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      std::vector<std::uint64_t> versions;
      for (const geom::LineId id : rsp[0].ids) {
        if (id >= kSentinelBase) versions.push_back(id - kSentinelBase);
      }
      // Exactly one sentinel generation visible, never rolling back.
      if (versions.size() != 1 || versions[0] < last ||
          versions[0] > kUpdates) {
        violations.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      last = versions[0];
    }
  };

  std::vector<std::thread> readers;
  readers.emplace_back(reader, serve::IndexKind::kQuadTree);
  readers.emplace_back(reader, serve::IndexKind::kRTree);
  readers.emplace_back(reader, serve::IndexKind::kLinearQuadTree);

  const serve::UpdateOptions uo = update_options(/*compact_after=*/24);
  for (std::uint64_t k = 0; k < kUpdates; ++k) {
    serve::UpdateBatch batch;
    batch.deletes.push_back(kSentinelBase + static_cast<geom::LineId>(k));
    batch.inserts.push_back(sentinel_segment(k + 1));
    ASSERT_EQ(engine.apply_update(batch, uo).status, serve::Status::kOk)
        << "update " << k;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0);
  // The final snapshot serves the last sentinel generation.
  serve::Response final_rsp;
  ASSERT_EQ(engine.run_oracle(serve::Request::window_query(
                serve::IndexKind::kQuadTree, kSentinelCell),
            final_rsp),
            serve::Status::kOk);
  EXPECT_NE(std::find(final_rsp.ids.begin(), final_rsp.ids.end(),
                      kSentinelBase + kUpdates),
            final_rsp.ids.end());
}

TEST(SnapshotConsistency, ClusterReadersNeverSeeTornUpdate) {
  auto lines = make_map("uniform", 300, 2025);
  lines.push_back(sentinel_segment(0));
  serve::ClusterOptions co;
  co.shards = 2;
  co.cache.enabled = true;  // exercises sweep + version-guarded fills too
  co.engine.threads = 2;
  serve::Cluster cluster(co);
  cluster.mount(lines, mount_options());

  constexpr std::uint64_t kUpdates = 30;
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};

  auto reader = [&] {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::vector<serve::Request> one{serve::Request::window_query(
          serve::IndexKind::kQuadTree, kSentinelCell)};
      const auto rsp = cluster.serve(one);
      if (rsp.size() != 1 || rsp[0].status != serve::Status::kOk) {
        violations.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      std::vector<std::uint64_t> versions;
      for (const geom::LineId id : rsp[0].ids) {
        if (id >= kSentinelBase) versions.push_back(id - kSentinelBase);
      }
      if (versions.size() != 1 || versions[0] < last ||
          versions[0] > kUpdates) {
        violations.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      last = versions[0];
    }
  };

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) readers.emplace_back(reader);

  for (std::uint64_t k = 0; k < kUpdates; ++k) {
    serve::UpdateBatch batch;
    batch.deletes.push_back(kSentinelBase + static_cast<geom::LineId>(k));
    batch.inserts.push_back(sentinel_segment(k + 1));
    ASSERT_EQ(cluster.apply_update(batch).status, serve::Status::kOk)
        << "update " << k;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0);
}

// ---------------------------------------------------------------------------
// Chaos: fault schedules against the update shadow build.
// ---------------------------------------------------------------------------

// The mid-swap crash schedule: the shadow build faults before publication,
// so nothing publishes -- fingerprint, epoch, and answers all stay at the
// pre-update snapshot.  Healing the injector replays the identical batch
// to the identical post-state a fault-free run reaches.
TEST(UpdateChaos, FaultAbortedShadowPublishesNothing) {
  std::vector<geom::Segment> live = make_map("clustered", 250, 91);
  dpv::Context ctx;
  const core::QuadTree quad = core::pmr_build(ctx, live, quad_options()).tree;

  dpv::FaultSchedule crash;
  crash.seed = test::chaos_seed(0xDEAD);
  crash.fail_nth = 1;  // first primitive of every scope faults
  dpv::FaultInjector injector(crash);

  serve::EngineOptions eo;
  eo.fault_injector = &injector;
  serve::QueryEngine engine(eo);
  engine.mount(&quad);

  const std::string fp_before = engine.quad_fingerprint();
  const std::uint64_t epoch_before = engine.mount_epoch();

  std::mt19937_64 rng(92);
  geom::LineId next_id = kInsertBase;
  std::vector<geom::Segment> want = live;
  const auto batch = make_delta(want, rng, 6, 8, 0, next_id);

  const auto faulted = engine.apply_update(batch, update_options(64));
  EXPECT_EQ(faulted.status, serve::Status::kRejected);
  EXPECT_EQ(engine.quad_fingerprint(), fp_before);
  EXPECT_EQ(engine.mount_epoch(), epoch_before);
  EXPECT_EQ(engine.metrics().updates, 0u);
  EXPECT_EQ(engine.metrics().update_failures, 1u);

  injector.set_schedule({});  // heal
  const auto healed = engine.apply_update(batch, update_options(64));
  ASSERT_EQ(healed.status, serve::Status::kOk);
  EXPECT_EQ(engine.mount_epoch(), epoch_before + 1);
  EXPECT_EQ(engine.quad_fingerprint(),
            rebuild_fingerprint(want, quad_options()));
}

// Random seeded schedule (remixed through DPS_CHAOS_SEED): whatever subset
// of updates survives the faults, the engine state is always exactly the
// rebuild of the *applied* deltas -- a fault never leaves a partial batch.
TEST(UpdateChaos, RandomFaultScheduleNeverTearsState) {
  std::vector<geom::Segment> applied = make_map("uniform", 250, 93);
  dpv::Context ctx;
  const core::QuadTree quad =
      core::pmr_build(ctx, applied, quad_options()).tree;

  dpv::FaultSchedule sched;
  sched.seed = test::chaos_seed(0xF00D);
  sched.primitive_fail_rate = 0.25;
  dpv::FaultInjector injector(sched);

  serve::EngineOptions eo;
  eo.fault_injector = &injector;
  serve::QueryEngine engine(eo);
  engine.mount(&quad);

  std::mt19937_64 rng(94);
  geom::LineId next_id = kInsertBase;
  std::size_t ok = 0, rejected = 0;
  for (std::size_t step = 0; step < 12; ++step) {
    std::vector<geom::Segment> attempt = applied;
    const auto batch = make_delta(attempt, rng, 5, 6, 0, next_id);
    const auto res = engine.apply_update(batch, update_options(48));
    if (res.status == serve::Status::kOk) {
      applied = std::move(attempt);  // the whole batch landed
      ++ok;
    } else {
      ASSERT_EQ(res.status, serve::Status::kRejected) << "step " << step;
      ++rejected;
    }
    EXPECT_EQ(engine.quad_fingerprint(),
              rebuild_fingerprint(applied, quad_options()))
        << "step " << step;
  }
  const serve::ServeMetrics m = engine.metrics();
  EXPECT_EQ(m.updates, ok);
  EXPECT_EQ(m.update_failures, rejected);
}

// ---------------------------------------------------------------------------
// Delta-scoped cache invalidation.
// ---------------------------------------------------------------------------

// The dirty corner every scoping test updates into; warm windows stay in
// x < 700 so their footprints never meet it.
constexpr geom::Rect kDirtyCorner{900.0, 900.0, 1000.0, 1000.0};

geom::Segment dirty_corner_segment(geom::LineId id) {
  return {{905.0, 910.0}, {960.0, 955.0}, id};
}

std::vector<serve::Request> disjoint_warm_windows(std::size_t n) {
  std::vector<serve::Request> reqs;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = 10.0 + 32.0 * static_cast<double>(i % 20);
    const double y = 10.0 + 40.0 * static_cast<double>(i / 20);
    reqs.push_back(serve::Request::window_query(serve::IndexKind::kQuadTree,
                                                {x, y, x + 28.0, y + 34.0}));
  }
  return reqs;
}

TEST(UpdateCacheScoping, WarmEntriesOutsideDirtyRegionKeepHitting) {
  const auto lines = make_map("uniform", 400, 55);
  serve::ClusterOptions co;
  co.shards = 2;
  co.engine.threads = 2;
  ASSERT_TRUE(co.delta_cache_invalidation) << "delta scoping is the default";
  serve::Cluster cluster(co);
  cluster.mount(lines, mount_options());

  // 20 disjoint windows far from the dirty corner + 1 window over it.
  auto reqs = disjoint_warm_windows(20);
  reqs.push_back(serve::Request::window_query(serve::IndexKind::kQuadTree,
                                              kDirtyCorner));
  cluster.serve(reqs);  // fill
  cluster.serve(reqs);  // all 21 hit
  const serve::ClusterMetrics warm = cluster.metrics();
  EXPECT_EQ(warm.cache_hits, 21u);

  // Update strictly inside the corner.
  serve::UpdateBatch batch;
  batch.inserts.push_back(dirty_corner_segment(kInsertBase));
  ASSERT_EQ(cluster.apply_update(batch).status, serve::Status::kOk);

  const auto responses = cluster.serve(reqs);
  const serve::ClusterMetrics after = cluster.metrics();
  // The 20 untouched windows still hit -- 95% kept, far above the >= 50%
  // the acceptance criterion demands -- and only the dirty window refills.
  EXPECT_EQ(after.cache_hits, warm.cache_hits + 20);
  EXPECT_EQ(after.cache_misses, warm.cache_misses + 1);
  EXPECT_GE(after.cache.delta_scoped, 1u);
  EXPECT_EQ(after.cache.epoch_flush, 0u);
  // And the refilled answer sees the inserted line.
  const auto& corner = responses.back();
  ASSERT_EQ(corner.status, serve::Status::kOk);
  EXPECT_NE(std::find(corner.ids.begin(), corner.ids.end(), kInsertBase),
            corner.ids.end());
}

TEST(UpdateCacheScoping, FullFlushBaselineDropsEverything) {
  const auto lines = make_map("uniform", 400, 56);
  serve::ClusterOptions co;
  co.shards = 2;
  co.engine.threads = 2;
  co.delta_cache_invalidation = false;  // the A/B baseline
  serve::Cluster cluster(co);
  cluster.mount(lines, mount_options());

  auto reqs = disjoint_warm_windows(20);
  cluster.serve(reqs);
  cluster.serve(reqs);
  const serve::ClusterMetrics warm = cluster.metrics();
  EXPECT_EQ(warm.cache_hits, 20u);

  serve::UpdateBatch batch;
  batch.inserts.push_back(dirty_corner_segment(kInsertBase));
  ASSERT_EQ(cluster.apply_update(batch).status, serve::Status::kOk);

  cluster.serve(reqs);
  const serve::ClusterMetrics after = cluster.metrics();
  EXPECT_EQ(after.cache_hits, warm.cache_hits) << "full flush keeps nothing";
  EXPECT_EQ(after.cache_misses, warm.cache_misses + 20);
  EXPECT_GE(after.cache.epoch_flush, 20u);
  EXPECT_EQ(after.cache.delta_scoped, 0u);
}

TEST(UpdateCacheScoping, UnboundedNearestEntriesAlwaysDrop) {
  // 3 lines in the far corner: a k=8 query caches fewer than k neighbors,
  // so its footprint is unbounded and *any* update must drop it; the k=2
  // query's disk stays far from the dirty corner and survives.
  std::vector<geom::Segment> lines;
  lines.push_back({{40.0, 40.0}, {60.0, 52.0}, 1});
  lines.push_back({{52.0, 60.0}, {70.0, 64.0}, 2});
  lines.push_back({{30.0, 58.0}, {44.0, 72.0}, 3});
  serve::ClusterOptions co;
  co.shards = 2;
  co.engine.threads = 2;
  serve::Cluster cluster(co);
  cluster.mount(lines, mount_options());

  const auto unbounded = serve::Request::nearest_query(
      serve::IndexKind::kQuadTree, {50.0, 55.0}, 8);
  const auto bounded = serve::Request::nearest_query(
      serve::IndexKind::kQuadTree, {50.0, 55.0}, 2);
  const std::vector<serve::Request> reqs{unbounded, bounded};
  cluster.serve(reqs);
  cluster.serve(reqs);
  const serve::ClusterMetrics warm = cluster.metrics();
  EXPECT_EQ(warm.cache_hits, 2u);

  serve::UpdateBatch batch;
  batch.inserts.push_back(dirty_corner_segment(kInsertBase));
  ASSERT_EQ(cluster.apply_update(batch).status, serve::Status::kOk);

  const auto responses = cluster.serve(reqs);
  const serve::ClusterMetrics after = cluster.metrics();
  EXPECT_EQ(after.cache_hits, warm.cache_hits + 1) << "bounded entry survives";
  EXPECT_EQ(after.cache_misses, warm.cache_misses + 1) << "unbounded dropped";
  // The refilled k=8 answer now includes the inserted far-corner line.
  ASSERT_EQ(responses[0].status, serve::Status::kOk);
  EXPECT_EQ(responses[0].neighbors.size(), 4u);
}

TEST(UpdateCacheScoping, BypassAndRemountRulesStillHold) {
  const auto map_a = make_map("uniform", 300, 57);
  const auto map_b = make_map("clustered", 300, 58);
  serve::ClusterOptions co;
  co.shards = 2;
  co.engine.threads = 2;
  serve::Cluster cluster(co);
  cluster.mount(map_a, mount_options());

  auto reqs = disjoint_warm_windows(10);
  cluster.serve(reqs);
  cluster.serve(reqs);
  EXPECT_EQ(cluster.metrics().cache_hits, 10u);

  // bypass_cache skips lookup and fill even with delta scoping active.
  auto bypass = disjoint_warm_windows(10);
  for (auto& rq : bypass) rq.bypass_cache = true;
  cluster.serve(bypass);
  const serve::ClusterMetrics b = cluster.metrics();
  EXPECT_EQ(b.cache_hits, 10u);
  EXPECT_EQ(b.cache_bypasses, 10u);

  // A remount still flushes wholesale (epoch_flush, not delta_scoped).
  cluster.mount(map_b, mount_options());
  cluster.serve(reqs);
  const serve::ClusterMetrics after = cluster.metrics();
  EXPECT_EQ(after.cache_hits, 10u) << "no stale hit across the remount";
  EXPECT_GE(after.cache.epoch_flush, 10u);
  EXPECT_EQ(after.cache.delta_scoped, 0u);

  // Post-remount answers match map_b's oracle exactly.
  const RebuildOracle oracle(map_b);
  const auto responses = cluster.serve(reqs);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    expect_exact(reqs[i], responses[i], oracle, i, 0);
  }
}

// Version-guarded fill at the cache layer: an answer computed before an
// invalidation event must not be memoized after it (the stale-fill race).
TEST(UpdateCacheScoping, StaleFillIsVersionRejected) {
  serve::ResultCache cache(serve::CacheOptions{});
  const auto rq = serve::Request::window_query(serve::IndexKind::kQuadTree,
                                               {1.0, 2.0, 3.0, 4.0});
  const auto key = serve::ResultCache::canonical_key(rq);
  serve::Response rsp;
  rsp.status = serve::Status::kOk;
  rsp.ids = {7, 9};

  const std::uint64_t stale_version = cache.version();
  cache.bump_epoch();  // any invalidation event moves the version
  cache.insert(key, rsp, stale_version);
  serve::Response out;
  EXPECT_FALSE(cache.lookup(key, out)) << "stale fill must be rejected";

  cache.insert(key, rsp, cache.version());
  EXPECT_TRUE(cache.lookup(key, out));
  EXPECT_EQ(out.ids, rsp.ids);

  const std::uint64_t pre_delta = cache.version();
  EXPECT_GT(cache.invalidate_delta({geom::Rect{0.0, 0.0, 10.0, 10.0}}), 0u);
  EXPECT_GT(cache.version(), pre_delta)
      << "delta sweeps advance the version like epoch bumps";
}

// ---------------------------------------------------------------------------
// Id-collision contract at the serve boundary.
// ---------------------------------------------------------------------------

TEST(UpdateValidation, InsertIdCollidingWithLiveLineRejected) {
  std::vector<geom::Segment> live = make_map("uniform", 200, 60);
  dpv::Context ctx;
  const core::QuadTree quad = core::pmr_build(ctx, live, quad_options()).tree;
  serve::QueryEngine engine;
  engine.mount(&quad);
  const std::string fp = engine.quad_fingerprint();
  const std::uint64_t epoch = engine.mount_epoch();

  std::mt19937_64 rng(61);
  serve::UpdateBatch batch;
  batch.inserts.push_back(random_segment(rng, live[3].id));
  const auto res = engine.apply_update(batch, update_options(64));
  EXPECT_EQ(res.status, serve::Status::kInvalidArgument);
  EXPECT_EQ(engine.quad_fingerprint(), fp) << "nothing published";
  EXPECT_EQ(engine.mount_epoch(), epoch);
  EXPECT_EQ(engine.metrics().update_failures, 1u);
}

TEST(UpdateValidation, IntraBatchDuplicateInsertIdsRejected) {
  serve::QueryEngine engine;
  std::mt19937_64 rng(62);
  serve::UpdateBatch batch;
  batch.inserts.push_back(random_segment(rng, kInsertBase));
  batch.inserts.push_back(random_segment(rng, kInsertBase));
  EXPECT_EQ(engine.apply_update(batch, update_options(64)).status,
            serve::Status::kInvalidArgument);
}

TEST(UpdateValidation, DeleteThenReinsertSameIdInOneBatchIsLegal) {
  std::vector<geom::Segment> live = make_map("uniform", 200, 63);
  dpv::Context ctx;
  const core::QuadTree quad = core::pmr_build(ctx, live, quad_options()).tree;
  serve::QueryEngine engine;
  engine.mount(&quad);

  std::mt19937_64 rng(64);
  const geom::LineId replaced = live[5].id;
  serve::UpdateBatch batch;
  batch.deletes.push_back(replaced);
  batch.inserts.push_back(random_segment(rng, replaced));
  const auto res = engine.apply_update(batch, update_options(64));
  ASSERT_EQ(res.status, serve::Status::kOk);
  EXPECT_EQ(res.deleted, 1u);
  EXPECT_EQ(res.inserted, 1u);

  live[5] = batch.inserts[0];
  // Engine line order after a replace: survivors in order (the slot moved
  // to the end is the reinsert), so rebuild from the exact same multiset.
  std::vector<geom::Segment> expected;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (i != 5) expected.push_back(live[i]);
  }
  expected.push_back(batch.inserts[0]);
  EXPECT_EQ(engine.quad_fingerprint(),
            rebuild_fingerprint(expected, quad_options()));
}

TEST(UpdateValidation, MalformedInsertGeometryRejected) {
  serve::QueryEngine engine;
  serve::UpdateBatch batch;
  batch.inserts.push_back(
      {{std::nan(""), 1.0}, {2.0, 3.0}, kInsertBase});
  EXPECT_EQ(engine.apply_update(batch, update_options(64)).status,
            serve::Status::kInvalidArgument);
}

TEST(UpdateValidation, ClusterRejectsCollisionsAndPublishesNothing) {
  std::vector<geom::Segment> live = make_map("uniform", 300, 65);
  serve::ClusterOptions co;
  co.shards = 2;
  co.engine.threads = 2;
  serve::Cluster cluster(co);
  cluster.mount(live, mount_options());
  const std::uint64_t epoch = cluster.mount_epoch();
  const std::string fp0 = cluster.engine(0).quad_fingerprint();
  const std::string fp1 = cluster.engine(1).quad_fingerprint();

  std::mt19937_64 rng(66);
  serve::UpdateBatch batch;
  batch.inserts.push_back(random_segment(rng, live[7].id));  // collision
  batch.inserts.push_back(random_segment(rng, kInsertBase));  // fine alone
  const auto res = cluster.apply_update(batch);
  EXPECT_EQ(res.status, serve::Status::kInvalidArgument);
  EXPECT_EQ(cluster.mount_epoch(), epoch);
  EXPECT_EQ(cluster.engine(0).quad_fingerprint(), fp0);
  EXPECT_EQ(cluster.engine(1).quad_fingerprint(), fp1);
  EXPECT_EQ(cluster.metrics().update_failures, 1u);
  EXPECT_EQ(cluster.metrics().updates, 0u);
}

TEST(UpdateValidation, ClusterRequiresMountAndToleratesUnknownDeletes) {
  serve::Cluster unmounted(serve::ClusterOptions{});
  serve::UpdateBatch batch;
  batch.deletes.push_back(1);
  EXPECT_EQ(unmounted.apply_update(batch).status, serve::Status::kRejected);

  std::vector<geom::Segment> live = make_map("uniform", 300, 67);
  serve::ClusterOptions co;
  co.shards = 2;
  co.engine.threads = 2;
  serve::Cluster cluster(co);
  cluster.mount(live, mount_options());

  serve::UpdateBatch deltas;
  deltas.deletes.push_back(live[0].id);
  deltas.deletes.push_back(0x7FFFFF00u);  // never lived
  const auto res = cluster.apply_update(deltas);
  ASSERT_EQ(res.status, serve::Status::kOk);
  EXPECT_EQ(res.deleted, 1u);
  EXPECT_EQ(res.unknown_deletes, 1u);
}

}  // namespace
}  // namespace dps
