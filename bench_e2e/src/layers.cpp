#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <string_view>
#include <unordered_map>

#include "core/batch_aggregate.hpp"
#include "core/batch_nearest.hpp"
#include "core/batch_query.hpp"
#include "core/linear_quadtree.hpp"
#include "core/nearest.hpp"
#include "core/pmr_build.hpp"
#include "core/pmr_update.hpp"
#include "core/query.hpp"
#include "core/rtree_build.hpp"
#include "core/shard_segments.hpp"
#include "dpv/machine_model.hpp"
#include "geom/predicates.hpp"
#include "report.hpp"
#include "serve/cache.hpp"

namespace e2e {

namespace serve = dps::serve;
namespace core = dps::core;
namespace dpv = dps::dpv;
namespace geom = dps::geom;
using serve::Clock;
using serve::IndexKind;
using serve::RequestKind;

namespace {

// Replay sizes: enough samples for a stable mean, small enough that a
// traced run stays well inside its time budget.
constexpr std::size_t kQueriesPerGroup = 1024;
constexpr std::size_t kCacheReplay = 20'000;
constexpr std::size_t kUpdateReplay = 10;

double ms_since(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

/// Times `f` (milliseconds) and logs it as a named interval.
class Replayer {
 public:
  explicit Replayer(std::vector<Interval>& log) : log_(log) {}

  template <typename F>
  double time(std::string_view name, F&& f) {
    const Clock::time_point t0 = Clock::now();
    f();
    const Clock::time_point t1 = Clock::now();
    log_.push_back({std::string(name), t0, t1});
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  }

 private:
  std::vector<Interval>& log_;
};

core::PmrBuildOptions pmr_options() {
  const serve::ClusterMountOptions mo = mount_options();
  core::PmrBuildOptions po = mo.quad;
  po.world = mo.world;
  return po;
}

// ---- core.update: each update's shadow builds, replayed. ----------------

struct UpdateReplay {
  std::vector<double> pmr_ms, rtree_ms;  // per touched shard
  std::vector<double> fallback_ms;       // per update
  std::vector<double> touched;           // shards per update
  std::size_t compactions = 0;           // shard-level
};

// The PMR delta QueryEngine::prepare_update builds: pmr_delete + pmr_insert,
// or a full pmr_build once the deltas since the last build pass the
// cluster's compaction trigger.  Returns whether it compacted.
bool pmr_delta(dpv::Context& ctx, core::QuadTree& tree, std::size_t& deltas,
               const std::vector<Segment>& survivors,
               const std::vector<Segment>& ins, const std::vector<LineId>& del) {
  const core::PmrBuildOptions po = pmr_options();
  const std::size_t size = ins.size() + del.size();
  if (deltas + size > cluster_options().update_compact_after) {
    tree = core::pmr_build(ctx, survivors, po).tree;
    deltas = 0;
    return true;
  }
  if (!del.empty()) tree = core::pmr_delete(ctx, tree, del, po).tree;
  if (!ins.empty()) tree = core::pmr_insert(ctx, tree, ins, po).tree;
  deltas += size;
  return false;
}

// Routes each update to shards by the mount's cloning rule and rebuilds
// what the touched replicas rebuild -- the PMR delta and the R-tree over
// the shard's surviving lines -- then the fallback engine's whole-map PMR
// delta (its siblings stay lazy).
UpdateReplay replay_updates(const std::vector<Segment>& lines, BuildReplay& b,
                            const std::vector<serve::UpdateBatch>& updates,
                            Replayer& rp) {
  UpdateReplay u;
  const serve::ClusterMountOptions mo = mount_options();
  const std::size_t shards = b.sharded.shards.size();
  std::unordered_map<LineId, Segment> live;
  for (const Segment& s : lines) live.emplace(s.id, s);
  std::vector<std::size_t> deltas(shards, 0);
  std::size_t whole_deltas = 0;
  dpv::Context ctx;
  const std::size_t n = std::min(updates.size(), kUpdateReplay);
  for (std::size_t k = 0; k < n; ++k) {
    const serve::UpdateBatch& up = updates[k];
    std::vector<LineId> known;
    for (const LineId id : up.deletes) {
      if (live.count(id) != 0) known.push_back(id);
    }
    std::size_t touched = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const geom::Rect& fp = b.sharded.plan.footprints[s];
      std::vector<Segment> ins;
      std::vector<LineId> del;
      for (const LineId id : known) {
        if (geom::segment_intersects_rect(live.at(id), fp)) del.push_back(id);
      }
      for (const Segment& seg : up.inserts) {
        if (geom::segment_intersects_rect(seg, fp)) ins.push_back(seg);
      }
      if (ins.empty() && del.empty()) continue;
      ++touched;
      std::vector<Segment>& part = b.sharded.shards[s];
      std::erase_if(part, [&](const Segment& seg) {
        return std::find(del.begin(), del.end(), seg.id) != del.end();
      });
      part.insert(part.end(), ins.begin(), ins.end());
      bool compacted = false;
      u.pmr_ms.push_back(rp.time("replay.update.pmr", [&] {
        compacted = pmr_delta(ctx, b.quads[s], deltas[s], part, ins, del);
      }));
      u.compactions += compacted;
      u.rtree_ms.push_back(rp.time("replay.update.rtree", [&] {
        core::RTree t = core::rtree_build(ctx, part, mo.rtree).tree;
      }));
    }
    u.touched.push_back(static_cast<double>(touched));
    for (const LineId id : known) live.erase(id);
    for (const Segment& seg : up.inserts) live.emplace(seg.id, seg);
    std::vector<Segment> survivors;
    survivors.reserve(live.size());
    for (const auto& [id, seg] : live) survivors.push_back(seg);
    u.fallback_ms.push_back(rp.time("replay.update.fallback", [&] {
      pmr_delta(ctx, b.whole, whole_deltas, survivors, up.inserts, known);
    }));
  }
  return u;
}

// The update probe goes round robin over the shards, whose update costs
// differ by up to 3x on bulk's clustered map.  The median of all updates
// falls between two shards' costs and jumps with either, so this is the
// mean over shards of each shard's median.
double update_ms(const std::vector<double>& ms, std::size_t shards) {
  double sum = 0.0;
  for (std::size_t s = 0; s < shards; ++s) {
    std::vector<double> one;
    for (std::size_t k = s; k < ms.size(); k += shards) one.push_back(ms[k]);
    sum += median(one);
  }
  return per(sum, static_cast<double>(shards));
}

// ---- core.query: the batch pipelines and the sequential queries. --------

struct QueryCell {
  double dp_us_per_q = 0.0, seq_us_per_q = 0.0, candidates_per_q = 0.0;
};

// Groups of `chunk` requests of one (kind, index) -- the workload's batch
// size -- through the dp pipeline, then each request through the
// sequential query, on a whole-map index.
template <typename Tree, typename Ann>
QueryCell replay_group(const std::vector<serve::Request>& reqs,
                       RequestKind kind, const Tree& tree, const Ann& ann,
                       std::size_t chunk, Replayer& rp) {
  QueryCell c;
  if (reqs.empty()) return c;
  dpv::Context ctx;
  ctx.enable_arena();  // as the engine's per-shard contexts run
  double dp_ms = 0.0;
  std::size_t candidates = 0;
  for (std::size_t lo = 0; lo < reqs.size(); lo += chunk) {
    const std::size_t hi = std::min(reqs.size(), lo + chunk);
    std::vector<geom::Rect> windows;
    std::vector<geom::Point> points;
    std::vector<std::size_t> ks;
    for (std::size_t i = lo; i < hi; ++i) {
      windows.push_back(reqs[i].window);
      points.push_back(reqs[i].point);
      ks.push_back(reqs[i].k);
    }
    dp_ms += rp.time("replay.query.dp", [&] {
      switch (kind) {
        case RequestKind::kWindow:
          candidates += core::batch_window_query(ctx, tree, windows).candidates;
          break;
        case RequestKind::kPoint:
          candidates += core::batch_point_query(ctx, tree, points).candidates;
          break;
        case RequestKind::kNearest:
          candidates += core::batch_k_nearest(ctx, tree, points, ks).candidates;
          break;
        default:
          candidates +=
              core::batch_window_aggregate(ctx, tree, ann, windows).candidates;
          break;
      }
    });
  }
  const double seq_ms = rp.time("replay.query.seq", [&] {
    for (const serve::Request& rq : reqs) {
      switch (kind) {
        case RequestKind::kWindow:
          core::window_query(tree, rq.window);
          break;
        case RequestKind::kPoint:
          core::point_query(tree, rq.point);
          break;
        case RequestKind::kNearest:
          core::k_nearest(tree, rq.point, rq.k);
          break;
        default:
          core::window_aggregate_seq(tree, ann, rq.window);
          break;
      }
    }
  });
  const double n = static_cast<double>(reqs.size());
  c.dp_us_per_q = dp_ms * 1000.0 / n;
  c.seq_us_per_q = seq_ms * 1000.0 / n;
  c.candidates_per_q = static_cast<double>(candidates) / n;
  return c;
}

// ---- serve.cache: the timed key stream through a fresh ResultCache. ------
//
// Each operation is clocked alone, so the figures include one
// steady_clock read (tens of ns).

struct CacheReplay {
  double lookup_ns = 0.0, insert_ns = 0.0;
};

CacheReplay replay_cache(const Workload& wl, const PhaseResult& phase,
                         const Oracle& o, Replayer& rp) {
  serve::ResultCache cache(cluster_options().cache);
  double lookup_ms = 0.0, insert_ms = 0.0;
  std::size_t lookups = 0, inserts = 0;
  const std::size_t batch = wl.spec().batch;
  const std::size_t n = std::min<std::size_t>(phase.requests, kCacheReplay);
  rp.time("replay.cache", [&] {
    for (std::size_t b = 0; b * batch < n; ++b) {
      for (const serve::Request& rq : wl.batch(Stream::kTimed, b)) {
        const serve::ResultCache::Key key =
            serve::ResultCache::canonical_key(rq);
        serve::Response rsp;
        Clock::time_point t = Clock::now();
        const bool hit = cache.lookup(key, rsp);
        lookup_ms += ms_since(t);
        ++lookups;
        if (hit) continue;
        o.answer(rq, rsp);  // the payload a miss would fill
        t = Clock::now();
        cache.insert(key, rsp);
        insert_ms += ms_since(t);
        ++inserts;
      }
    }
  });
  return {per(lookup_ms * 1e6, static_cast<double>(lookups)),
          per(insert_ms * 1e6, static_cast<double>(inserts))};
}

}  // namespace

BuildReplay replay_mount(const std::vector<Segment>& lines,
                         std::vector<Interval>& log) {
  Replayer rp(log);
  const serve::ClusterMountOptions mo = mount_options();
  const std::size_t shards = cluster_options().shards;
  const core::PmrBuildOptions po = pmr_options();
  BuildReplay b;
  b.shard_segments_ms = rp.time("replay.build.shard_segments", [&] {
    b.sharded = core::shard_segments(lines, {0.0, 0.0, mo.world, mo.world},
                                     shards);
  });
  dpv::Context ctx;
  b.quads.resize(shards);
  std::vector<core::RTree> rtrees(shards);
  std::vector<core::LinearQuadTree> linears(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    const std::vector<Segment>& part = b.sharded.shards[s];
    if (part.empty()) continue;
    b.pmr_ms += rp.time("replay.build.pmr",
                        [&] { b.quads[s] = core::pmr_build(ctx, part, po).tree; });
    b.rtree_ms += rp.time("replay.build.rtree", [&] {
      rtrees[s] = core::rtree_build(ctx, part, mo.rtree).tree;
    });
    if (mo.build_linear) {
      b.linear_ms += rp.time("replay.build.linear", [&] {
        linears[s] = core::LinearQuadTree::from(b.quads[s]);
      });
    }
  }
  // The whole-map fallback indexes (a multi-shard cluster builds its own).
  core::RTree fr;
  core::LinearQuadTree fl;
  b.fallback_ms = rp.time("replay.build.fallback", [&] {
    b.whole = core::pmr_build(ctx, lines, po).tree;
    fr = core::rtree_build(ctx, lines, mo.rtree).tree;
    if (mo.build_linear) fl = core::LinearQuadTree::from(b.whole);
  });
  return b;
}

Snapshot snapshot(const serve::Cluster& cluster) {
  Snapshot s;
  s.cluster = cluster.metrics();
  for (std::size_t i = 0; i < cluster.shards(); ++i) {
    const serve::QueryEngine& e = cluster.engine(i);
    s.engines.push_back(e.metrics());
    const dpv::ArenaStats a = e.arena_stats();
    s.arena.mallocs += a.mallocs;
    s.arena.bytes_reserved += a.bytes_reserved;
  }
  return s;
}

Metrics layer_metrics(const TraceInputs& in, std::vector<Interval>& log) {
  const Workload& wl = *in.wl;
  const WorkloadSpec& spec = wl.spec();
  const PhaseResult& ph = *in.phase;
  const serve::ClusterMetrics& c0 = in.before->cluster;
  const serve::ClusterMetrics& c1 = in.after->cluster;
  const serve::ClusterMetrics& c2 = in.after_updates->cluster;
  const double kreq = static_cast<double>(ph.requests) / 1000.0;
  const double updates = static_cast<double>(c2.updates - c0.updates);
  Metrics m;
  Replayer rp(log);

  // loadgen
  const double p50 = quantile(ph.latency_us, 0.5);
  const double lag50 = quantile(ph.lag_us, 0.5);
  const double interval_us =
      spec.loop == Loop::kOpen ? spec.batch / spec.rate_rps * 1e6 : 0.0;
  m.push_back({"loadgen.requests", static_cast<double>(ph.requests), "count"});
  m.push_back({"loadgen.lag_p50_us", lag50, "us"});
  m.push_back({"loadgen.lag_p99_us", quantile(ph.lag_us, 0.99), "us"});
  m.push_back({"loadgen.latency_p99_us", quantile(ph.latency_us, 0.99), "us"});
  m.push_back({"loadgen.latency_p999_us", quantile(ph.latency_us, 0.999), "us"});
  m.push_back({"loadgen.overloaded",
               interval_us > 0.0 && lag50 > interval_us ? 1.0 : 0.0, "count"});
  m.push_back({"loadgen.trace_overhead_pct",
               100.0 * (per(p50, in.reference_p50_us) - 1.0), "%"});

  // serve.cluster
  std::vector<double> self_us;
  for (const Span& sp : ph.spans) {
    if (sp.kind != Span::kServe) continue;
    const double slowest =
        sp.replica_ms.empty()
            ? 0.0
            : *std::max_element(sp.replica_ms.begin(), sp.replica_ms.end());
    self_us.push_back(sp.end_us - sp.start_us - slowest * 1000.0);
  }
  const double misses = static_cast<double>(c1.cache_misses - c0.cache_misses);
  const double hits = static_cast<double>(c1.cache_hits - c0.cache_hits);
  const double knn = static_cast<double>(
      ph.by_kind[static_cast<std::size_t>(RequestKind::kNearest)]);
  m.push_back({"serve.cluster.serve_us_p50", quantile(ph.serve_us, 0.5), "us"});
  m.push_back({"serve.cluster.serve_us_p90", quantile(ph.serve_us, 0.9), "us"});
  m.push_back({"serve.cluster.self_us_p50", quantile(self_us, 0.5), "us"});
  m.push_back({"serve.cluster.fanout",
               per(static_cast<double>(c1.routed_subrequests - c0.routed_subrequests),
                   misses),
               "count"});
  m.push_back({"serve.cluster.knn_widened_per_knn",
               per(static_cast<double>(c1.knn_widened_shards - c0.knn_widened_shards),
                   knn),
               "count"});
  m.push_back({"serve.cluster.dup_removed_per_kreq",
               per(static_cast<double>(c1.duplicate_hits_removed -
                                       c0.duplicate_hits_removed),
                   kreq),
               "count"});
  m.push_back({"serve.cluster.mount_s", median(in.mount_s), "s"});
  m.push_back({"serve.cluster.update_ms",
               update_ms(ph.update_ms, in.after->engines.size()), "ms"});
  m.push_back({"serve.cluster.degraded_settles",
               static_cast<double>((c1.degraded_fallback - c0.degraded_fallback) +
                                   (c1.partial - c0.partial)),
               "count"});

  // serve.cache
  const CacheReplay cr = replay_cache(wl, ph, *in.oracle, rp);
  m.push_back({"serve.cache.hit_rate", per(hits, hits + misses), "ratio"});
  m.push_back({"serve.cache.evictions_per_kreq",
               per(static_cast<double>(c1.cache.evictions - c0.cache.evictions),
                   kreq),
               "count"});
  m.push_back({"serve.cache.invalidations_per_update",
               per(static_cast<double>(c2.cache.invalidations -
                                       c0.cache.invalidations),
                   updates),
               "count"});
  m.push_back({"serve.cache.lookup_ns", cr.lookup_ns, "ns"});
  m.push_back({"serve.cache.insert_ns", cr.insert_ns, "ns"});

  // serve.engine: the primaries' ServeMetrics, differenced.
  serve::StageTimes st;
  std::vector<double> busy;
  std::uint64_t dp = 0, seq = 0, hybrid = 0, retries = 0, fallbacks = 0;
  std::uint64_t lazy_rtree = 0, lazy_linear = 0, agg_builds = 0, compactions = 0;
  dpv::PrimCounters prims;
  for (std::size_t s = 0; s < in.after->engines.size(); ++s) {
    const serve::ServeMetrics& a = in.before->engines[s];
    const serve::ServeMetrics& b = in.after->engines[s];
    const serve::ServeMetrics& u = in.after_updates->engines[s];
    serve::StageTimes d;
    d.shard_ms = b.stages.shard_ms - a.stages.shard_ms;
    d.window_ms = b.stages.window_ms - a.stages.window_ms;
    d.point_ms = b.stages.point_ms - a.stages.point_ms;
    d.nearest_ms = b.stages.nearest_ms - a.stages.nearest_ms;
    d.aggregate_ms = b.stages.aggregate_ms - a.stages.aggregate_ms;
    d.join_ms = b.stages.join_ms - a.stages.join_ms;
    d.merge_ms = b.stages.merge_ms - a.stages.merge_ms;
    st += d;
    busy.push_back(stage_sum(d));
    dp += b.dp_groups - a.dp_groups;
    seq += b.seq_groups - a.seq_groups;
    hybrid += b.hybrid_groups - a.hybrid_groups;
    retries += b.retries - a.retries;
    fallbacks += b.seq_fallbacks - a.seq_fallbacks;
    lazy_rtree += u.lazy_rtree_rebuilds - a.lazy_rtree_rebuilds;
    lazy_linear += u.lazy_linear_rebuilds - a.lazy_linear_rebuilds;
    agg_builds += u.agg_annotation_builds - a.agg_annotation_builds;
    compactions += u.compactions - a.compactions;
    prims += b.prims - a.prims;
  }
  const double mean_busy =
      busy.empty() ? 0.0
                   : std::accumulate(busy.begin(), busy.end(), 0.0) / busy.size();
  m.push_back({"serve.engine.window_ms_per_kreq", per(st.window_ms, kreq), "ms"});
  m.push_back({"serve.engine.point_ms_per_kreq", per(st.point_ms, kreq), "ms"});
  m.push_back({"serve.engine.nearest_ms_per_kreq", per(st.nearest_ms, kreq), "ms"});
  m.push_back(
      {"serve.engine.aggregate_ms_per_kreq", per(st.aggregate_ms, kreq), "ms"});
  m.push_back({"serve.engine.shard_ms_per_kreq", per(st.shard_ms, kreq), "ms"});
  m.push_back({"serve.engine.merge_ms_per_kreq", per(st.merge_ms, kreq), "ms"});
  m.push_back({"serve.engine.dp_group_share",
               per(static_cast<double>(dp), static_cast<double>(dp + seq)),
               "ratio"});
  m.push_back({"serve.engine.hybrid_groups", static_cast<double>(hybrid), "count"});
  m.push_back({"serve.engine.replica_busy_imbalance",
               busy.empty() ? 0.0
                            : per(*std::max_element(busy.begin(), busy.end()),
                                  mean_busy),
               "ratio"});
  m.push_back(
      {"serve.engine.lazy_rtree_rebuilds", static_cast<double>(lazy_rtree), "count"});
  m.push_back({"serve.engine.lazy_linear_rebuilds", static_cast<double>(lazy_linear),
               "count"});
  m.push_back({"serve.engine.agg_annotation_builds", static_cast<double>(agg_builds),
               "count"});
  m.push_back({"serve.engine.compactions", static_cast<double>(compactions), "count"});
  m.push_back({"serve.engine.retries", static_cast<double>(retries), "count"});
  m.push_back({"serve.engine.seq_fallbacks", static_cast<double>(fallbacks), "count"});

  // core.query: requests of the timed stream, grouped by (kind, index).
  {
    constexpr RequestKind kKinds[] = {RequestKind::kWindow, RequestKind::kPoint,
                                      RequestKind::kNearest,
                                      RequestKind::kAggregate};
    constexpr const char* kKindNames[] = {"window", "point", "knn", "aggregate"};
    std::vector<serve::Request> groups[4][2];
    for (std::uint64_t b = 0; b < ph.batches; ++b) {
      bool full = true;
      for (const serve::Request& rq : wl.batch(Stream::kTimed, b)) {
        const auto k = static_cast<std::size_t>(rq.kind);
        const std::size_t i = rq.index == IndexKind::kQuadTree ? 0 : 1;
        if (k < 4 && groups[k][i].size() < kQueriesPerGroup) {
          groups[k][i].push_back(rq);
        }
      }
      for (auto& g : groups) {
        full = full && g[0].size() >= kQueriesPerGroup &&
               g[1].size() >= kQueriesPerGroup;
      }
      if (full) break;
    }
    const core::QuadAggAnnotations qa = core::build_agg_annotations(in.oracle->quad());
    const core::RTreeAggAnnotations ra =
        core::build_agg_annotations(in.oracle->rtree());
    for (std::size_t k = 0; k < 4; ++k) {
      for (std::size_t i = 0; i < 2; ++i) {
        const QueryCell c =
            i == 0 ? replay_group(groups[k][i], kKinds[k], in.oracle->quad(), qa,
                                  spec.batch, rp)
                   : replay_group(groups[k][i], kKinds[k], in.oracle->rtree(), ra,
                                  spec.batch, rp);
        const std::string base = std::string("core.query.") + kKindNames[k] +
                                 (i == 0 ? "_quad" : "_rtree");
        m.push_back({base + ".dp_us_per_q", c.dp_us_per_q, "us"});
        m.push_back({base + ".seq_us_per_q", c.seq_us_per_q, "us"});
        m.push_back({base + ".candidates_per_q", c.candidates_per_q, "count"});
      }
    }
  }

  // core.build (replayed right after set-up)
  std::vector<BuildReplay>& builds = *in.builds;
  std::sort(builds.begin(), builds.end(),
            [](const BuildReplay& x, const BuildReplay& y) {
              return x.total_ms() < y.total_ms();
            });
  BuildReplay& build = builds[builds.size() / 2];  // every pass builds alike
  std::size_t shard_lines = 0;
  for (const auto& part : build.sharded.shards) shard_lines += part.size();
  m.push_back({"core.build.shard_segments_ms", build.shard_segments_ms, "ms"});
  m.push_back({"core.build.pmr_ms", build.pmr_ms, "ms"});
  m.push_back({"core.build.rtree_ms", build.rtree_ms, "ms"});
  m.push_back({"core.build.linear_ms", build.linear_ms, "ms"});
  m.push_back({"core.build.fallback_ms", build.fallback_ms, "ms"});
  m.push_back({"core.build.clone_factor",
               per(static_cast<double>(shard_lines),
                   static_cast<double>(wl.lines().size())),
               "ratio"});
  m.push_back(
      {"core.build.sum_over_mount", in.sum_over_mount, "ratio"});

  // core.update
  const UpdateReplay ur = replay_updates(wl.lines(), build, ph.updates, rp);
  m.push_back({"core.update.pmr_delta_ms_p50", quantile(ur.pmr_ms, 0.5), "ms"});
  m.push_back(
      {"core.update.rtree_rebuild_ms_p50", quantile(ur.rtree_ms, 0.5), "ms"});
  m.push_back(
      {"core.update.fallback_ms_p50", quantile(ur.fallback_ms, 0.5), "ms"});
  m.push_back({"core.update.shards_touched_per_update",
               ur.touched.empty()
                   ? 0.0
                   : std::accumulate(ur.touched.begin(), ur.touched.end(), 0.0) /
                         static_cast<double>(ur.touched.size()),
               "count"});
  m.push_back({"core.update.compaction_share",
               per(static_cast<double>(ur.compactions),
                   static_cast<double>(ur.pmr_ms.size())),
               "ratio"});

  // dpv: the primaries' scan-model ledger over the timed phase.
  for (std::size_t p = 0; p < dpv::kNumPrims; ++p) {
    std::string name(dpv::prim_name(static_cast<dpv::Prim>(p)));
    std::erase(name, '-');
    m.push_back({"dpv." + name + ".inv_per_kreq",
                 per(static_cast<double>(prims.invocations[p]), kreq), "count"});
    m.push_back({"dpv." + name + ".elems_per_kreq",
                 per(static_cast<double>(prims.elements[p]), kreq), "count"});
  }
  m.push_back({"dpv.arena.mallocs_per_kreq",
               per(static_cast<double>(in.after->arena.mallocs -
                                       in.before->arena.mallocs),
                   kreq),
               "count"});
  m.push_back({"dpv.arena.mb_reserved",
               static_cast<double>(in.after->arena.bytes_reserved) / (1 << 20),
               "MB"});
  m.push_back({"dpv.machine_model_ms_per_kreq",
               per(dpv::MachineModel{}.estimate_ms(prims), kreq), "ms"});

  return m;
}

bool write_chrome_trace(const std::string& path, Clock::time_point origin,
                        const std::vector<Interval>& intervals,
                        const PhaseResult& phase) {
  const auto us = [origin](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  const double phase_offset_us = us(phase.epoch);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  const char* sep = "";
  for (const Interval& iv : intervals) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 0, "
                 "\"ts\": %.3f, \"dur\": %.3f}",
                 sep, iv.name.c_str(), us(iv.start), us(iv.end) - us(iv.start));
    sep = ",\n";
  }
  for (const Span& sp : phase.spans) {
    const bool serve_span = sp.kind == Span::kServe;
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"due_us\": %.3f",
                 sep, serve_span ? "serve" : "apply_update", serve_span ? 1 : 2,
                 phase_offset_us + sp.start_us, sp.end_us - sp.start_us,
                 static_cast<unsigned long long>(sp.id),
                 phase_offset_us + sp.due_us);
    if (serve_span) {
      std::fprintf(f, ", \"replica_ms\": [");
      for (std::size_t s = 0; s < sp.replica_ms.size(); ++s) {
        std::fprintf(f, "%s%.4f", s == 0 ? "" : ", ", sp.replica_ms[s]);
      }
      std::fprintf(f, "]");
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2e
