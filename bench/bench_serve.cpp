// S1: concurrent batch-query serving throughput.
//
// Serves one 10k-request mixed workload (window / point / k-nearest over
// the quadtree and the R-tree) through the QueryEngine at increasing shard
// counts, against the per-request sequential baseline.  Answers are
// checksummed: every configuration must produce byte-identical results.
// Also reports the merged scan-model ledger and its MachineModel replay --
// the serving layer charges the same unit-cost model as the builds.

#ifdef __linux__
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/core.hpp"
#include "geom/predicates.hpp"
#include "data/mapgen.hpp"
#include "dpv/fault.hpp"
#include "serve/cluster.hpp"
#include "serve/engine.hpp"

namespace {

using namespace dps;

constexpr double kWorld = 4096.0;
constexpr std::size_t kLines = 20000;
constexpr std::size_t kRequests = 10000;

std::vector<serve::Request> make_workload(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> pos(0.0, kWorld - 1.0);
  std::uniform_real_distribution<double> extent(4.0, kWorld / 16.0);
  std::uniform_int_distribution<std::size_t> kdist(1, 8);
  std::uniform_int_distribution<int> roll(0, 9);
  std::uniform_int_distribution<int> which(0, 1);
  std::vector<serve::Request> batch;
  batch.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    const auto idx = which(rng) == 0 ? serve::IndexKind::kQuadTree
                                     : serve::IndexKind::kRTree;
    const int r = roll(rng);
    if (r < 6) {
      const double x = pos(rng), y = pos(rng);
      batch.push_back(serve::Request::window_query(
          idx, {x, y, std::min(kWorld, x + extent(rng)),
                std::min(kWorld, y + extent(rng))}));
    } else if (r < 9) {
      batch.push_back(serve::Request::point_query(idx, {pos(rng), pos(rng)}));
    } else {
      batch.push_back(
          serve::Request::nearest_query(idx, {pos(rng), pos(rng)}, kdist(rng)));
    }
  }
  return batch;
}

// S3 workload: k-nearest-heavy traffic (the request kind that had no batch
// pipeline before) with a thin window/point background.
std::vector<serve::Request> make_knn_workload(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> pos(0.0, kWorld - 1.0);
  std::uniform_int_distribution<std::size_t> kdist(1, 16);
  std::uniform_int_distribution<int> roll(0, 9);
  std::uniform_int_distribution<int> which(0, 1);
  std::vector<serve::Request> batch;
  batch.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    const auto idx = which(rng) == 0 ? serve::IndexKind::kQuadTree
                                     : serve::IndexKind::kRTree;
    const int r = roll(rng);
    if (r < 8) {
      batch.push_back(
          serve::Request::nearest_query(idx, {pos(rng), pos(rng)}, kdist(rng)));
    } else if (r == 8) {
      const double x = pos(rng), y = pos(rng);
      batch.push_back(serve::Request::window_query(
          idx, {x, y, std::min(kWorld, x + 40.0), std::min(kWorld, y + 30.0)}));
    } else {
      batch.push_back(serve::Request::point_query(idx, {pos(rng), pos(rng)}));
    }
  }
  return batch;
}

std::uint64_t checksum(const std::vector<serve::Response>& responses) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const serve::Response& r : responses) {
    mix(static_cast<std::uint64_t>(r.status));
    for (const geom::LineId id : r.ids) mix(id);
    for (const core::Neighbor& nb : r.neighbors) mix(nb.id);
  }
  return h;
}

struct EngineRow {
  std::size_t shards = 0;
  double ms = 0.0;
  double req_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  bool identical = false;
  dpv::ArenaStats arena;
};

void write_rows(std::FILE* f, const char* indent,
                const std::vector<EngineRow>& rows) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const EngineRow& r = rows[i];
    std::fprintf(f,
                 "%s{\"shards\": %zu, \"ms\": %.2f, \"req_per_s\": %.0f, "
                 "\"p50_us\": %.1f, \"p99_us\": %.1f, \"identical\": %s, "
                 "\"arena_rounds\": %llu, \"arena_mallocs_per_round\": %llu, "
                 "\"arena_live_blocks\": %llu}%s\n",
                 indent, r.shards, r.ms, r.req_per_s, r.p50_us, r.p99_us,
                 r.identical ? "true" : "false",
                 static_cast<unsigned long long>(r.arena.rounds),
                 static_cast<unsigned long long>(r.arena.round_mallocs),
                 static_cast<unsigned long long>(r.arena.live_blocks),
                 i + 1 < rows.size() ? "," : "");
  }
}

// S4 rows: the sharded-cluster sweep and the hot-window cache A/B.
struct ClusterRow {
  std::size_t shards = 0;
  double ms = 0.0;
  double req_per_s = 0.0;
  bool identical = false;
  std::uint64_t routed = 0;       // shard-local sub-requests dispatched
  std::uint64_t dup_removed = 0;  // cloned hits merged away
  std::uint64_t knn_widened = 0;  // phase-2 shards consulted
  std::vector<std::uint64_t> shard_load;  // jobs dispatched per replica
  std::uint64_t hedges = 0;               // hedge jobs fired (healthy: 0)
  std::uint64_t breaker_skips = 0;        // skipped while open (healthy: 0)
};

// S5 rows: open-loop trace replay against one degraded replica, hedging
// off vs on.
struct TraceRow {
  bool hedging = false;
  double wall_ms = 0.0;
  double ok_p50_us = 0.0;
  double ok_p99_us = 0.0;
  std::uint64_t ok = 0;
  std::uint64_t partial = 0;
  std::uint64_t hedges_issued = 0;
  std::uint64_t hedges_won = 0;
  std::uint64_t subrequest_timeouts = 0;
  std::uint64_t degraded_fallback = 0;
  bool identical = false;
};

// S6 rows: dispatch-policy A/B on one workload mix.  `model_ok` in the
// JSON asserts the acceptance bar: warmed model-driven dispatch must not
// lose to the better of static-threshold dp and forced-sequential.
struct DispatchRow {
  const char* mode = "";
  double ms = 0.0;
  double req_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t dp_groups = 0;
  std::uint64_t seq_groups = 0;
  std::uint64_t hybrid_groups = 0;
  bool identical = false;
};

struct HotWindowResult {
  std::size_t requests = 0;
  std::size_t distinct_windows = 0;
  std::size_t batch = 0;
  double off_ms = 0.0;
  double on_ms = 0.0;
  double hit_rate = 0.0;
  bool identical = false;
};

// S7: mixed read/update serving.  The open-loop read trace replays twice
// -- read-only, then against a sustained apply_update stream -- and the
// acceptance bar is that reads never block on updates: with-updates ok-p99
// within 2x of the read-only baseline.  The cache A/B replays a warm
// window set across repeated updates under delta-scoped invalidation vs
// the full-flush baseline; delta scoping must keep >= 50% of the
// unaffected warm hits (full flush keeps none).
struct MixedUpdateResult {
  std::size_t trace_batches = 0;
  std::size_t batch_size = 0;
  std::uint64_t interval_us = 0;
  std::uint64_t update_interval_us = 0;
  std::size_t update_batch = 0;
  double read_only_p99_us = 0.0;
  double with_updates_p99_us = 0.0;
  double p99_ratio = 0.0;
  bool p99_ok = false;
  std::uint64_t updates = 0;
  std::uint64_t compactions = 0;
  std::size_t ab_windows = 0;
  std::size_t ab_rounds = 0;
  double delta_hit_rate = 0.0;
  double full_flush_hit_rate = 0.0;
  bool hit_rate_kept_ok = false;
};

// S8: aggregate-vs-materialize A/B.  The same window set is answered two
// ways through the same engine: RequestKind::kAggregate (annotation-
// augmented descent, no id list ever materialized) versus window_query
// materialization followed by a host clip-and-reduce over the returned
// ids.  `identical` asserts field-wise agreement (count/bbox exact, the
// FP sums to accumulation-order rounding); `agg_ok` is the acceptance
// bar: the aggregate path must not lose to materialize-then-reduce.
struct AggregateAbResult {
  std::size_t requests = 0;
  double agg_ms = 0.0;
  double materialize_ms = 0.0;
  double speedup = 0.0;
  std::uint64_t annotation_builds = 0;
  bool identical = false;
  bool agg_ok = false;
};

// BENCH_serve.json: the S1 sweep, the S3 knn-mix sweep, the S4 cluster
// shard sweep + hot-window cache A/B, the S5 degraded-replica trace
// replay, and the per-shard arena/load counters -- the machine-readable
// record CI uploads to track the serving trajectory.
void write_json(const char* path, const std::vector<EngineRow>& rows,
                double seq_ms, const std::vector<EngineRow>& knn_rows,
                double knn_seq_ms, const std::vector<ClusterRow>& cluster_rows,
                const HotWindowResult& hot,
                const std::vector<TraceRow>& trace_rows,
                std::size_t trace_batches, std::size_t trace_batch_size,
                std::uint64_t trace_interval_us, std::uint64_t trace_stall_us,
                const std::vector<DispatchRow>& dispatch_mixed,
                const std::vector<DispatchRow>& dispatch_knn,
                const MixedUpdateResult& s7, const AggregateAbResult& s8) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"serve\",\n  \"requests\": %zu,\n"
               "  \"lines\": %zu,\n  \"sequential_ms\": %.2f,\n"
               "  \"series\": [\n",
               kRequests, kLines, seq_ms);
  write_rows(f, "    ", rows);
  std::fprintf(f,
               "  ],\n  \"knn_mix\": {\n    \"sequential_ms\": %.2f,\n"
               "    \"series\": [\n",
               knn_seq_ms);
  write_rows(f, "      ", knn_rows);
  std::fprintf(f, "    ]\n  },\n  \"cluster\": {\n    \"series\": [\n");
  for (std::size_t i = 0; i < cluster_rows.size(); ++i) {
    const ClusterRow& r = cluster_rows[i];
    std::fprintf(f,
                 "      {\"shards\": %zu, \"ms\": %.2f, \"req_per_s\": %.0f, "
                 "\"identical\": %s, \"routed_subrequests\": %llu, "
                 "\"duplicate_hits_removed\": %llu, "
                 "\"knn_widened_shards\": %llu, "
                 "\"hedges_issued\": %llu, \"breaker_skips\": %llu, "
                 "\"shard_load\": [",
                 r.shards, r.ms, r.req_per_s, r.identical ? "true" : "false",
                 static_cast<unsigned long long>(r.routed),
                 static_cast<unsigned long long>(r.dup_removed),
                 static_cast<unsigned long long>(r.knn_widened),
                 static_cast<unsigned long long>(r.hedges),
                 static_cast<unsigned long long>(r.breaker_skips));
    for (std::size_t s = 0; s < r.shard_load.size(); ++s) {
      std::fprintf(f, "%llu%s",
                   static_cast<unsigned long long>(r.shard_load[s]),
                   s + 1 < r.shard_load.size() ? ", " : "");
    }
    std::fprintf(f, "]}%s\n", i + 1 < cluster_rows.size() ? "," : "");
  }
  std::fprintf(f,
               "    ],\n    \"hot_window\": {\"requests\": %zu, "
               "\"distinct_windows\": %zu, \"batch\": %zu, "
               "\"cache_off_ms\": %.2f, \"cache_on_ms\": %.2f, "
               "\"hit_rate\": %.4f, \"identical\": %s}\n  },\n",
               hot.requests, hot.distinct_windows, hot.batch, hot.off_ms,
               hot.on_ms, hot.hit_rate, hot.identical ? "true" : "false");
  std::fprintf(f,
               "  \"s5\": {\n    \"trace_batches\": %zu, "
               "\"batch_size\": %zu, \"interval_us\": %llu, "
               "\"stalled_replica\": 0, \"stall_us\": %llu,\n"
               "    \"series\": [\n",
               trace_batches, trace_batch_size,
               static_cast<unsigned long long>(trace_interval_us),
               static_cast<unsigned long long>(trace_stall_us));
  for (std::size_t i = 0; i < trace_rows.size(); ++i) {
    const TraceRow& r = trace_rows[i];
    std::fprintf(f,
                 "      {\"hedging\": %s, \"wall_ms\": %.2f, "
                 "\"ok_p50_us\": %.0f, \"ok_p99_us\": %.0f, \"ok\": %llu, "
                 "\"partial\": %llu, \"hedges_issued\": %llu, "
                 "\"hedges_won\": %llu, \"subrequest_timeouts\": %llu, "
                 "\"degraded_fallback\": %llu, \"identical\": %s}%s\n",
                 r.hedging ? "true" : "false", r.wall_ms, r.ok_p50_us,
                 r.ok_p99_us, static_cast<unsigned long long>(r.ok),
                 static_cast<unsigned long long>(r.partial),
                 static_cast<unsigned long long>(r.hedges_issued),
                 static_cast<unsigned long long>(r.hedges_won),
                 static_cast<unsigned long long>(r.subrequest_timeouts),
                 static_cast<unsigned long long>(r.degraded_fallback),
                 r.identical ? "true" : "false",
                 i + 1 < trace_rows.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n");
  auto write_dispatch = [f](const char* mix,
                            const std::vector<DispatchRow>& rows,
                            const char* tail) {
    double model_ms = 0.0, best_other = 0.0;
    for (const DispatchRow& r : rows) {
      if (std::strcmp(r.mode, "model") == 0) {
        model_ms = r.ms;
      } else if (best_other == 0.0 || r.ms < best_other) {
        best_other = r.ms;
      }
    }
    std::fprintf(f, "    \"%s\": {\n      \"series\": [\n", mix);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const DispatchRow& r = rows[i];
      std::fprintf(f,
                   "        {\"mode\": \"%s\", \"ms\": %.2f, "
                   "\"req_per_s\": %.0f, \"p50_us\": %.1f, \"p99_us\": %.1f, "
                   "\"dp_groups\": %llu, \"seq_groups\": %llu, "
                   "\"hybrid_groups\": %llu, \"identical\": %s}%s\n",
                   r.mode, r.ms, r.req_per_s, r.p50_us, r.p99_us,
                   static_cast<unsigned long long>(r.dp_groups),
                   static_cast<unsigned long long>(r.seq_groups),
                   static_cast<unsigned long long>(r.hybrid_groups),
                   r.identical ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
    }
    // 10% tolerance: the arms share cores with the rest of the run.
    std::fprintf(f, "      ],\n      \"model_ok\": %s\n    }%s\n",
                 model_ms > 0.0 && best_other > 0.0 &&
                         model_ms <= best_other * 1.10
                     ? "true"
                     : "false",
                 tail);
  };
  std::fprintf(f, "  \"s6\": {\n");
  write_dispatch("mixed", dispatch_mixed, ",");
  write_dispatch("knn", dispatch_knn, "");
  std::fprintf(f, "  },\n");
  std::fprintf(
      f,
      "  \"s7\": {\n    \"trace_batches\": %zu, \"batch_size\": %zu, "
      "\"interval_us\": %llu, \"update_interval_us\": %llu, "
      "\"update_batch\": %zu,\n"
      "    \"read_only_p99_us\": %.0f, \"with_updates_p99_us\": %.0f, "
      "\"p99_ratio\": %.3f, \"p99_ok\": %s,\n"
      "    \"updates_published\": %llu, \"compactions\": %llu,\n"
      "    \"cache_ab\": {\"windows\": %zu, \"rounds\": %zu, "
      "\"delta_hit_rate\": %.4f, \"full_flush_hit_rate\": %.4f, "
      "\"hit_rate_kept_ok\": %s}\n  },\n",
      s7.trace_batches, s7.batch_size,
      static_cast<unsigned long long>(s7.interval_us),
      static_cast<unsigned long long>(s7.update_interval_us), s7.update_batch,
      s7.read_only_p99_us, s7.with_updates_p99_us, s7.p99_ratio,
      s7.p99_ok ? "true" : "false",
      static_cast<unsigned long long>(s7.updates),
      static_cast<unsigned long long>(s7.compactions), s7.ab_windows,
      s7.ab_rounds, s7.delta_hit_rate, s7.full_flush_hit_rate,
      s7.hit_rate_kept_ok ? "true" : "false");
  std::fprintf(f,
               "  \"s8\": {\"requests\": %zu, \"agg_ms\": %.2f, "
               "\"materialize_ms\": %.2f, \"speedup\": %.2f, "
               "\"annotation_builds\": %llu, \"identical\": %s, "
               "\"agg_ok\": %s}\n",
               s8.requests, s8.agg_ms, s8.materialize_ms, s8.speedup,
               static_cast<unsigned long long>(s8.annotation_builds),
               s8.identical ? "true" : "false", s8.agg_ok ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }
  dpv::Context build_ctx;
  const auto lines = data::uniform_segments(kLines, kWorld, kWorld / 200.0, 42);

  core::PmrBuildOptions po;
  po.world = kWorld;
  po.max_depth = 14;
  po.bucket_capacity = 8;
  const core::QuadTree quad = core::pmr_build(build_ctx, lines, po).tree;
  core::RtreeBuildOptions ro;
  ro.m = 2;
  ro.M = 8;
  const core::RTree rtree = core::rtree_build(build_ctx, lines, ro).tree;

  const auto batch = make_workload(7);

  // Sequential baseline: one request at a time, host traversal only.
  auto sequential_baseline = [&](const std::vector<serve::Request>& b,
                                 std::vector<serve::Response>& out) {
    return bench::best_of(2, [&] {
      for (std::size_t i = 0; i < b.size(); ++i) {
        serve::Response& rsp = out[i];
        rsp.ids.clear();
        rsp.neighbors.clear();
        switch (b[i].kind) {
          case serve::RequestKind::kWindow:
            rsp.ids = b[i].index == serve::IndexKind::kQuadTree
                          ? core::window_query(quad, b[i].window)
                          : core::window_query(rtree, b[i].window);
            break;
          case serve::RequestKind::kPoint:
            rsp.ids = b[i].index == serve::IndexKind::kQuadTree
                          ? core::point_query(quad, b[i].point)
                          : core::point_query(rtree, b[i].point);
            break;
          case serve::RequestKind::kNearest:
            rsp.neighbors = b[i].index == serve::IndexKind::kQuadTree
                                ? core::k_nearest(quad, b[i].point, b[i].k)
                                : core::k_nearest(rtree, b[i].point, b[i].k);
            break;
        }
      }
    });
  };

  // Engine shard sweep against a checksum; prints one row per shard count.
  auto sweep = [&](const std::vector<serve::Request>& b, std::uint64_t want) {
    double single_shard_ms = 0.0;
    std::vector<EngineRow> rows;
    for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
      serve::EngineOptions opts;
      opts.shards = shards;
      opts.threads = shards;
      opts.min_dp_batch = 8;
      serve::QueryEngine engine(opts);
      engine.mount(&quad);
      engine.mount(&rtree);

      std::vector<serve::Response> responses;
      const double ms =
          bench::best_of(2, [&] { responses = engine.serve(b); });
      if (shards == 1) single_shard_ms = ms;
      const serve::ServeMetrics m = engine.metrics();
      char config[64];
      std::snprintf(config, sizeof config, "engine/%zu-shard", shards);
      std::printf("%-22s %10.2f %12.0f %9.2f %10.0f %10.0f  %s\n", config, ms,
                  1000.0 * static_cast<double>(b.size()) / ms,
                  single_shard_ms / ms, m.latency.quantile_upper_us(0.50),
                  m.latency.quantile_upper_us(0.99),
                  checksum(responses) == want ? "identical" : "MISMATCH");
      EngineRow row;
      row.shards = shards;
      row.ms = ms;
      row.req_per_s = 1000.0 * static_cast<double>(b.size()) / ms;
      row.p50_us = m.latency.quantile_upper_us(0.50);
      row.p99_us = m.latency.quantile_upper_us(0.99);
      row.identical = checksum(responses) == want;
      row.arena = engine.arena_stats();
      rows.push_back(row);
    }
    return rows;
  };

  std::vector<serve::Response> seq(batch.size());
  const double seq_ms = sequential_baseline(batch, seq);
  const std::uint64_t want = checksum(seq);

  std::printf("S1: QueryEngine serving, %zu mixed requests, %zu lines "
              "(hardware lanes: %u)\n",
              batch.size(), lines.size(),
              std::thread::hardware_concurrency());
  std::printf("%-22s %10s %12s %9s %10s %10s  %s\n", "config", "ms", "req/s",
              "speedup", "p50(us)", "p99(us)", "results");
  std::printf("%-22s %10.2f %12.0f %9s %10s %10s  %s\n", "sequential-loop",
              seq_ms, 1000.0 * static_cast<double>(batch.size()) / seq_ms,
              "1.00", "-", "-", "baseline");
  const std::vector<EngineRow> rows = sweep(batch, want);

  // S3: k-nearest-heavy mix -- the request kind that was per-request until
  // the frontier-with-kth-best-bound pipeline landed.
  const auto knn_batch = make_knn_workload(11);
  std::vector<serve::Response> knn_seq(knn_batch.size());
  const double knn_seq_ms = sequential_baseline(knn_batch, knn_seq);
  const std::uint64_t knn_want = checksum(knn_seq);
  std::printf("\nS3: knn-mix (80%% k-nearest, k in [1,16]), %zu requests\n",
              knn_batch.size());
  std::printf("%-22s %10.2f %12.0f %9s %10s %10s  %s\n", "sequential-loop",
              knn_seq_ms,
              1000.0 * static_cast<double>(knn_batch.size()) / knn_seq_ms,
              "1.00", "-", "-", "baseline");
  const std::vector<EngineRow> knn_rows = sweep(knn_batch, knn_want);

  // S4: spatially-sharded cluster.  The same S1 workload fans out over N
  // QueryEngine replicas, each mounted with the indexes of one spatial
  // shard; routed sub-answers merge back to the exact single-engine
  // result (checksummed against the sequential baseline).
  serve::ClusterMountOptions cluster_mo;
  cluster_mo.world = kWorld;
  cluster_mo.quad = po;
  cluster_mo.rtree = ro;
  cluster_mo.build_linear = false;  // the workload never asks for it
  // S4 hygiene: the earlier flat shard sweep came from oversubscription --
  // N replicas x 2 worker lanes each on a box with
  // hardware_concurrency() cores means every added shard just time-sliced
  // the same cores.  One lane per replica makes the dispatcher fan-out the
  // only concurrency, so the sweep now measures routing + merge overhead
  // honestly instead of scheduler noise.
  auto make_cluster = [&](std::size_t shards, bool cache_on) {
    serve::ClusterOptions co;
    co.shards = shards;
    co.cache.enabled = cache_on;
    co.engine.shards = 2;
    co.engine.threads = 1;
    co.engine.min_dp_batch = 8;
    return co;
  };

  std::vector<ClusterRow> cluster_rows;
  std::printf("\nS4: sharded cluster (replicas: 1 lane each, cache off), "
              "same %zu-request mix\n",
              batch.size());
  std::printf("%-22s %10s %12s %9s %12s %10s  %s\n", "config", "ms", "req/s",
              "routed", "dup_removed", "widened", "results");
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    serve::Cluster cluster(make_cluster(shards, false));
    cluster.mount(lines, cluster_mo);
    std::vector<serve::Response> responses;
    const double ms =
        bench::best_of(2, [&] { responses = cluster.serve(batch); });
    serve::ClusterMetrics m = cluster.metrics();
    // best_of served twice; report per-single-pass routing counters.
    ClusterRow row;
    row.shards = shards;
    row.ms = ms;
    row.req_per_s = 1000.0 * static_cast<double>(batch.size()) / ms;
    row.identical = checksum(responses) == want;
    row.routed = m.routed_subrequests / m.batches;
    row.dup_removed = m.duplicate_hits_removed / m.batches;
    row.knn_widened = m.knn_widened_shards / m.batches;
    for (const serve::ReplicaHealth& rh : m.replicas) {
      row.shard_load.push_back(rh.subrequests);
      row.hedges += rh.hedges;
      row.breaker_skips += rh.breaker_skips;
    }
    cluster_rows.push_back(row);
    char config[64];
    std::snprintf(config, sizeof config, "cluster/%zu-shard", shards);
    std::printf("%-22s %10.2f %12.0f %9llu %12llu %10llu  %s\n", config, ms,
                row.req_per_s, static_cast<unsigned long long>(row.routed),
                static_cast<unsigned long long>(row.dup_removed),
                static_cast<unsigned long long>(row.knn_widened),
                row.identical ? "identical" : "MISMATCH");
  }

  // Hot-window cache A/B: 64 distinct windows cycled over the full request
  // budget in small batches -- the repetitive traffic shape the ResultCache
  // targets.  Cache off and cache on must produce identical answers; on
  // the hot workload the hit rate should be well above 90%.
  HotWindowResult hot;
  {
    constexpr std::size_t kDistinct = 64;
    constexpr std::size_t kChunk = 100;
    std::mt19937_64 rng(23);
    std::uniform_real_distribution<double> pos(0.0, kWorld * 0.75);
    std::uniform_real_distribution<double> extent(kWorld / 64.0, kWorld / 16.0);
    std::vector<serve::Request> hot_windows;
    for (std::size_t w = 0; w < kDistinct; ++w) {
      const double x = pos(rng), y = pos(rng);
      hot_windows.push_back(serve::Request::window_query(
          w % 2 == 0 ? serve::IndexKind::kQuadTree : serve::IndexKind::kRTree,
          {x, y, std::min(kWorld, x + extent(rng)),
           std::min(kWorld, y + extent(rng))}));
    }
    std::vector<std::vector<serve::Request>> hot_chunks;
    for (std::size_t lo = 0; lo < kRequests; lo += kChunk) {
      std::vector<serve::Request> chunk;
      for (std::size_t i = lo; i < lo + kChunk && i < kRequests; ++i) {
        chunk.push_back(hot_windows[i % kDistinct]);
      }
      hot_chunks.push_back(std::move(chunk));
    }
    hot.requests = kRequests;
    hot.distinct_windows = kDistinct;
    hot.batch = kChunk;

    std::uint64_t sum_off = 0, sum_on = 0;
    for (const bool cache_on : {false, true}) {
      serve::Cluster cluster(make_cluster(4, cache_on));
      cluster.mount(lines, cluster_mo);
      std::uint64_t h = 1469598103934665603ull;
      const double ms = bench::time_ms([&] {
        for (const auto& chunk : hot_chunks) {
          const auto responses = cluster.serve(chunk);
          h ^= checksum(responses);
        }
      });
      const serve::ClusterMetrics m = cluster.metrics();
      if (cache_on) {
        hot.on_ms = ms;
        sum_on = h;
        const double looked =
            static_cast<double>(m.cache_hits + m.cache_misses);
        hot.hit_rate =
            looked == 0.0 ? 0.0 : static_cast<double>(m.cache_hits) / looked;
      } else {
        hot.off_ms = ms;
        sum_off = h;
      }
    }
    hot.identical = sum_off == sum_on;
    std::printf("\nS4b: hot-window cache A/B (4 shards, %zu distinct windows "
                "cycled over %zu requests in %zu-request batches)\n",
                kDistinct, kRequests, kChunk);
    std::printf("cache off %8.2f ms   cache on %8.2f ms   speedup %.2fx   "
                "hit rate %.1f%%   results %s\n",
                hot.off_ms, hot.on_ms,
                hot.on_ms == 0.0 ? 0.0 : hot.off_ms / hot.on_ms,
                100.0 * hot.hit_rate,
                hot.identical ? "identical" : "MISMATCH");
  }

  // S5: open-loop trace replay with one degraded replica.  A fixed
  // arrival schedule of small batches, skewed toward shard 0's footprint,
  // replays against a 4-shard cluster whose replica 0 stalls 15 ms on
  // every subrequest.  Client latency is measured from the *scheduled*
  // arrival, so queueing delay counts (open-loop, not closed-loop).  With
  // hedging off, the stall rides every affected batch and the backlog
  // compounds; with hedging on, the hedge to replica 0's backup (mounted
  // because hedging is on) fires at the clamped delay and bounds ok-p99.  Both arms must stay byte-identical: hedge
  // answers are exact, never approximate.
  constexpr std::size_t kTraceBatches = 150;
  constexpr std::size_t kTraceBatch = 8;
  constexpr std::uint64_t kTraceIntervalUs = 6'000;
  constexpr std::uint64_t kTraceStallUs = 15'000;
  std::vector<TraceRow> trace_rows;
  {
    std::printf("\nS5: open-loop trace replay (4 shards, replica 0 stalls "
                "%llu us, %zu batches of %zu every %llu us)\n",
                static_cast<unsigned long long>(kTraceStallUs), kTraceBatches,
                kTraceBatch,
                static_cast<unsigned long long>(kTraceIntervalUs));
    std::printf("%-22s %10s %11s %11s %8s %8s %9s\n", "config", "wall_ms",
                "ok_p50(us)", "ok_p99(us)", "hedged", "won", "results");

    std::uint64_t sum_off = 0, sum_on = 0;
    for (const bool hedging : {false, true}) {
      dpv::FaultInjector inject;
      dpv::FaultSchedule fs;
      fs.seed = 5;
      fs.replica_fault_mask = 1u;  // only replica 0 is sick
      fs.replica_stall_rate = 1.0;
      fs.replica_stall_us = std::chrono::microseconds(kTraceStallUs);
      inject.set_schedule(fs);

      serve::ClusterOptions co = make_cluster(4, /*cache_on=*/false);
      co.replica_fault_injectors = {&inject};
      co.hedge.enabled = hedging;
      co.hedge.initial_delay = std::chrono::microseconds(3'000);
      // The sick replica's own ledger reads ~15 ms; the clamp keeps the
      // hedge from learning to wait out the stall.
      co.hedge.max_delay = std::chrono::microseconds(5'000);
      serve::Cluster cluster(co);
      cluster.mount(lines, cluster_mo);

      // Skewed trace: ~60% of requests land in shard 0's footprint.
      const geom::Rect fp0 = cluster.plan().footprints[0];
      const geom::Point hot_center = fp0.center();
      std::mt19937_64 rng(99);
      std::uniform_real_distribution<double> pos(0.0, kWorld - 1.0);
      std::uniform_real_distribution<double> jitter(-60.0, 60.0);
      std::uniform_real_distribution<double> extent(8.0, 80.0);
      std::uniform_int_distribution<int> roll(0, 9);
      std::vector<std::vector<serve::Request>> trace(kTraceBatches);
      for (auto& b : trace) {
        for (std::size_t i = 0; i < kTraceBatch; ++i) {
          const auto idx = roll(rng) % 2 == 0 ? serve::IndexKind::kQuadTree
                                              : serve::IndexKind::kRTree;
          const int r = roll(rng);
          if (r < 6) {
            const double x = hot_center.x + jitter(rng);
            const double y = hot_center.y + jitter(rng);
            b.push_back(serve::Request::window_query(
                idx, {x, y, x + extent(rng), y + extent(rng)}));
          } else if (r < 8) {
            const double x = pos(rng), y = pos(rng);
            b.push_back(serve::Request::window_query(
                idx, {x, y, std::min(kWorld, x + extent(rng)),
                      std::min(kWorld, y + extent(rng))}));
          } else {
            b.push_back(
                serve::Request::point_query(idx, {pos(rng), pos(rng)}));
          }
        }
      }

      std::uint64_t h = 1469598103934665603ull;
      std::vector<double> ok_lat;
      ok_lat.reserve(kTraceBatches * kTraceBatch);
      const auto start = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(5);
      for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto scheduled =
            start + std::chrono::microseconds(i * kTraceIntervalUs);
        std::this_thread::sleep_until(scheduled);
        std::vector<serve::Request> b = trace[i];
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
        for (serve::Request& rq : b) rq.with_deadline(deadline);
        const auto responses = cluster.serve(b);
        const double late_us = std::chrono::duration<double, std::micro>(
                                   std::chrono::steady_clock::now() -
                                   scheduled)
                                   .count();
        h ^= checksum(responses);
        for (const serve::Response& r : responses) {
          if (r.status == serve::Status::kOk) ok_lat.push_back(late_us);
        }
      }
      const double wall_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();

      std::sort(ok_lat.begin(), ok_lat.end());
      auto quantile = [&ok_lat](double q) {
        if (ok_lat.empty()) return 0.0;
        return ok_lat[static_cast<std::size_t>(
            q * static_cast<double>(ok_lat.size() - 1))];
      };
      const serve::ClusterMetrics m = cluster.metrics();
      TraceRow row;
      row.hedging = hedging;
      row.wall_ms = wall_ms;
      row.ok_p50_us = quantile(0.50);
      row.ok_p99_us = quantile(0.99);
      row.ok = m.ok;
      row.partial = m.partial;
      row.hedges_issued = m.hedges_issued;
      row.hedges_won = m.hedges_won;
      row.subrequest_timeouts = m.subrequest_timeouts;
      row.degraded_fallback = m.degraded_fallback;
      (hedging ? sum_on : sum_off) = h;
      trace_rows.push_back(row);
    }
    trace_rows[0].identical = trace_rows[1].identical = sum_off == sum_on;
    for (const TraceRow& r : trace_rows) {
      std::printf("%-22s %10.2f %11.0f %11.0f %8llu %8llu  %s\n",
                  r.hedging ? "trace/hedging-on" : "trace/hedging-off",
                  r.wall_ms, r.ok_p50_us, r.ok_p99_us,
                  static_cast<unsigned long long>(r.hedges_issued),
                  static_cast<unsigned long long>(r.hedges_won),
                  r.identical ? "identical" : "MISMATCH");
    }
  }

  // S6: dispatch-policy A/B.  The same workload serves through three
  // engines differing only in EngineOptions::dispatch -- warmed cost-model,
  // the legacy static min_dp_batch threshold, and forced-sequential.  Every
  // arm gets the same warm-up passes (the model arm explores and
  // learns from its own wall-clocks; the others just warm caches), then
  // the timed best-of-2.  Exploration is quickened from the production
  // cadence so both paths are measured within the warm-up budget.  The
  // acceptance bar: model p50 wall-clock must not lose to the better of
  // the two static policies on either mix.
  auto dispatch_ab = [&](const std::vector<serve::Request>& b,
                         std::uint64_t want_sum) {
    std::vector<DispatchRow> out;
    const struct {
      const char* name;
      serve::DispatchMode mode;
    } arms[] = {{"model", serve::DispatchMode::kModel},
                {"static", serve::DispatchMode::kStatic},
                {"force_seq", serve::DispatchMode::kForceSeq}};
    for (const auto& arm : arms) {
      serve::EngineOptions eo;
      eo.shards = 4;
      eo.threads = 4;
      eo.min_dp_batch = 8;
      eo.dispatch = arm.mode;
      eo.cost_model.explore_period = 2;
      serve::QueryEngine engine(eo);
      engine.mount(&quad);
      engine.mount(&rtree);
      for (int w = 0; w < 24; ++w) engine.serve(b);
      engine.reset_metrics();  // rows report the converged timed region only
      std::vector<serve::Response> responses;
      const double ms =
          bench::best_of(2, [&] { responses = engine.serve(b); });
      if (std::getenv("DPS_DUMP_MODEL") != nullptr &&
          arm.mode == serve::DispatchMode::kModel) {
        std::printf("MODEL-DUMP batch=%zu\n", b.size());
        for (const auto& e : engine.cost_model_snapshot().entries) {
          std::printf("cell kind=%llu idx=%llu dens=%llu k=%llu size=%llu "
                      "path=%s upq=%.2f mean_n=%.1f samples=%llu\n",
                      (unsigned long long)(e.key & 0xF),
                      (unsigned long long)((e.key >> 4) & 0xF),
                      (unsigned long long)((e.key >> 8) & 0x3F),
                      (unsigned long long)((e.key >> 14) & 0x3F),
                      (unsigned long long)((e.key >> 20) & 0x3F),
                      ((e.key >> 26) & 1) ? "dp" : "seq", e.us_per_query,
                      e.mean_n, (unsigned long long)e.samples);
        }
      }
      const serve::ServeMetrics m = engine.metrics();
      DispatchRow row;
      row.mode = arm.name;
      row.ms = ms;
      row.req_per_s = 1000.0 * static_cast<double>(b.size()) / ms;
      row.p50_us = m.latency.quantile_upper_us(0.50);
      row.p99_us = m.latency.quantile_upper_us(0.99);
      row.dp_groups = m.dp_groups;
      row.seq_groups = m.seq_groups;
      row.hybrid_groups = m.hybrid_groups;
      row.identical = checksum(responses) == want_sum;
      out.push_back(row);
    }
    return out;
  };
  std::printf("\nS6: dispatch-policy A/B (4 shards, warmed model vs static "
              "threshold vs forced-sequential)\n");
  std::printf("%-22s %10s %12s %10s %8s %8s %8s  %s\n", "config", "ms",
              "req/s", "p50(us)", "dp", "seq", "hybrid", "results");
  const std::vector<DispatchRow> dispatch_mixed = dispatch_ab(batch, want);
  const std::vector<DispatchRow> dispatch_knn =
      dispatch_ab(knn_batch, knn_want);
  for (const auto* rows_p : {&dispatch_mixed, &dispatch_knn}) {
    const char* mix = rows_p == &dispatch_mixed ? "mixed" : "knn";
    for (const DispatchRow& r : *rows_p) {
      char config[64];
      std::snprintf(config, sizeof config, "%s/%s", mix, r.mode);
      std::printf("%-22s %10.2f %12.0f %10.0f %8llu %8llu %8llu  %s\n",
                  config, r.ms, r.req_per_s, r.p50_us,
                  static_cast<unsigned long long>(r.dp_groups),
                  static_cast<unsigned long long>(r.seq_groups),
                  static_cast<unsigned long long>(r.hybrid_groups),
                  r.identical ? "identical" : "MISMATCH");
    }
  }

  // S7: mixed read/update serving.  The same open-loop read trace replays
  // read-only and then against a sustained live-update stream (insert a
  // small batch, retire the previous one, every few ms).  Updates build
  // shadow generations and publish RCU pointer swaps, so reads must keep
  // their latency: the acceptance bar is with-updates ok-p99 <= 2x the
  // read-only baseline.  A separate warm-cache A/B replays a fixed window
  // set across repeated updates with delta-scoped invalidation vs the
  // full-flush baseline.
  MixedUpdateResult s7;
  {
    constexpr std::size_t kS7Batches = 300;
    constexpr std::size_t kS7Batch = 8;
    constexpr std::uint64_t kS7IntervalUs = 4'000;
    constexpr std::uint64_t kS7UpdateIntervalUs = 100'000;
    constexpr std::size_t kS7UpdateBatch = 4;
    // A smaller serving map than S1-S6: every update eagerly re-warms the
    // affected shards' sibling R-trees (the data-parallel split-round
    // build), and the scenario sizes that maintenance burst to what a
    // single-core host can absorb between read batches.
    constexpr std::size_t kS7Lines = 1'500;
    // Tail slack for the p99 acceptance: on shared (or single-vCPU) hosts
    // the scheduler charges ~2ms slice-granularity events to whichever
    // thread is up while background CPU burns, in *both* arms.  The
    // regression this bar exists to catch -- readers paying a sibling
    // rebuild or blocking on the swap -- measures 30ms-1s, two orders
    // above the slack, so the gate keeps its teeth.
    constexpr double kS7SlackUs = 5'000.0;
    const std::vector<geom::Segment> s7_lines(lines.begin(),
                                              lines.begin() + kS7Lines);
    s7.trace_batches = kS7Batches;
    s7.batch_size = kS7Batch;
    s7.interval_us = kS7IntervalUs;
    s7.update_interval_us = kS7UpdateIntervalUs;
    s7.update_batch = kS7UpdateBatch;

    std::printf("\nS7: mixed read/update (4 shards, %zu read batches of %zu "
                "every %llu us; %zu-insert updates every %llu us)\n",
                kS7Batches, kS7Batch,
                static_cast<unsigned long long>(kS7IntervalUs), kS7UpdateBatch,
                static_cast<unsigned long long>(kS7UpdateIntervalUs));
    std::printf("%-22s %10s %11s %11s %9s %9s\n", "config", "wall_ms",
                "ok_p50(us)", "ok_p99(us)", "updates", "compacted");

    auto make_trace = [&] {
      std::mt19937_64 rng(77);
      std::uniform_real_distribution<double> pos(0.0, kWorld - 1.0);
      std::uniform_real_distribution<double> extent(8.0, 80.0);
      std::uniform_int_distribution<int> roll(0, 9);
      std::vector<std::vector<serve::Request>> trace(kS7Batches);
      for (auto& b : trace) {
        for (std::size_t i = 0; i < kS7Batch; ++i) {
          const auto idx = roll(rng) % 2 == 0 ? serve::IndexKind::kQuadTree
                                              : serve::IndexKind::kRTree;
          const double x = pos(rng), y = pos(rng);
          if (roll(rng) < 7) {
            b.push_back(serve::Request::window_query(
                idx, {x, y, std::min(kWorld, x + extent(rng)),
                      std::min(kWorld, y + extent(rng))}));
          } else {
            b.push_back(serve::Request::point_query(idx, {x, y}));
          }
        }
      }
      return trace;
    };
    const auto trace = make_trace();

    // One arm of the trace replay; when `updates` is on, a writer thread
    // sustains apply_update batches (insert kS7UpdateBatch fresh segments,
    // retire the previous batch's) for the whole replay.
    auto run_arm = [&](bool updates, double* p50_us, double* p99_us,
                       std::uint64_t* published, std::uint64_t* compacted) {
      serve::Cluster cluster(make_cluster(4, /*cache_on=*/false));
      cluster.mount(s7_lines, cluster_mo);

      std::atomic<bool> done{false};
      std::thread writer;
      if (updates) {
        writer = std::thread([&] {
#ifdef __linux__
          // Background priority for the maintenance stream: shadow builds
          // are CPU-hungry, and on shared (or single-core) hosts the
          // latency-sensitive read path must preempt them.  Prep worker
          // threads inherit the policy.
          sched_param sp{};
          sched_setscheduler(0, SCHED_IDLE, &sp);
#endif
          std::mt19937_64 rng(177);
          std::uniform_real_distribution<double> pos(1.0, kWorld - 60.0);
          std::uniform_real_distribution<double> len(4.0, 50.0);
          geom::LineId next_id = 1u << 20;
          std::vector<geom::LineId> previous;
          while (!done.load(std::memory_order_acquire)) {
            serve::UpdateBatch batch;
            batch.deletes = previous;
            previous.clear();
            for (std::size_t i = 0; i < kS7UpdateBatch; ++i) {
              const double x = pos(rng), y = pos(rng);
              batch.inserts.push_back(
                  {{x, y}, {x + len(rng), y + len(rng)}, next_id});
              previous.push_back(next_id++);
            }
            cluster.apply_update(batch);
            std::this_thread::sleep_for(
                std::chrono::microseconds(kS7UpdateIntervalUs));
          }
        });
      }

      std::vector<double> ok_lat;
      ok_lat.reserve(kS7Batches * kS7Batch);
      const auto start =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
      for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto scheduled =
            start + std::chrono::microseconds(i * kS7IntervalUs);
        std::this_thread::sleep_until(scheduled);
        const auto responses = cluster.serve(trace[i]);
        const double late_us = std::chrono::duration<double, std::micro>(
                                   std::chrono::steady_clock::now() -
                                   scheduled)
                                   .count();
        for (const serve::Response& r : responses) {
          if (r.status == serve::Status::kOk) ok_lat.push_back(late_us);
        }
      }
      const double wall_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      if (updates) {
        done.store(true, std::memory_order_release);
        writer.join();
      }

      std::sort(ok_lat.begin(), ok_lat.end());
      auto quantile = [&ok_lat](double q) {
        if (ok_lat.empty()) return 0.0;
        return ok_lat[static_cast<std::size_t>(
            q * static_cast<double>(ok_lat.size() - 1))];
      };
      *p50_us = quantile(0.50);
      *p99_us = quantile(0.99);
      const serve::ClusterMetrics m = cluster.metrics();
      *published = m.updates;
      *compacted = m.compactions;
      std::printf("%-22s %10.2f %11.0f %11.0f %9llu %9llu\n",
                  updates ? "trace/with-updates" : "trace/read-only", wall_ms,
                  *p50_us, *p99_us,
                  static_cast<unsigned long long>(*published),
                  static_cast<unsigned long long>(*compacted));
      return wall_ms;
    };

    double p50 = 0.0;
    std::uint64_t published = 0, compacted = 0;
    run_arm(false, &p50, &s7.read_only_p99_us, &published, &compacted);
    run_arm(true, &p50, &s7.with_updates_p99_us, &s7.updates,
            &s7.compactions);
    s7.p99_ratio = s7.read_only_p99_us > 0.0
                       ? s7.with_updates_p99_us / s7.read_only_p99_us
                       : 0.0;
    // Pass on the 2x ratio bar, or on absolute slack when both arms sit in
    // the scheduler-noise floor (see kS7SlackUs above).
    s7.p99_ok =
        s7.p99_ratio > 0.0 &&
        (s7.p99_ratio <= 2.0 ||
         (s7.with_updates_p99_us - s7.read_only_p99_us) <= kS7SlackUs);

    // Warm-cache A/B: the same disjoint window set replays across repeated
    // point updates; delta-scoped invalidation keeps every warm entry the
    // dirty region misses, the full-flush baseline keeps none.
    constexpr std::size_t kAbWindows = 64;
    constexpr std::size_t kAbRounds = 8;
    s7.ab_windows = kAbWindows;
    s7.ab_rounds = kAbRounds;
    std::vector<serve::Request> warm;
    for (std::size_t i = 0; i < kAbWindows; ++i) {
      const double x = 8.0 + (kWorld - 120.0) / 8.0 * static_cast<double>(i % 8);
      const double y = 8.0 + (kWorld - 120.0) / 8.0 * static_cast<double>(i / 8);
      warm.push_back(serve::Request::window_query(serve::IndexKind::kQuadTree,
                                                  {x, y, x + 80.0, y + 80.0}));
    }
    for (const bool delta_scoped : {true, false}) {
      serve::ClusterOptions co = make_cluster(4, /*cache_on=*/true);
      co.delta_cache_invalidation = delta_scoped;
      serve::Cluster cluster(co);
      cluster.mount(s7_lines, cluster_mo);
      cluster.serve(warm);  // fill
      const std::uint64_t hits0 = cluster.metrics().cache_hits;
      std::mt19937_64 rng(377);
      std::uniform_real_distribution<double> pos(1.0, kWorld - 40.0);
      geom::LineId next_id = 2u << 20;
      geom::LineId prev_id = 0;
      for (std::size_t round = 0; round < kAbRounds; ++round) {
        serve::UpdateBatch batch;
        if (prev_id != 0) batch.deletes.push_back(prev_id);
        const double x = pos(rng), y = pos(rng);
        batch.inserts.push_back({{x, y}, {x + 20.0, y + 16.0}, next_id});
        prev_id = next_id++;
        cluster.apply_update(batch);
        cluster.serve(warm);
      }
      const double hit_rate =
          static_cast<double>(cluster.metrics().cache_hits - hits0) /
          static_cast<double>(kAbWindows * kAbRounds);
      (delta_scoped ? s7.delta_hit_rate : s7.full_flush_hit_rate) = hit_rate;
      std::printf("%-22s %46s %9.1f%%\n",
                  delta_scoped ? "cache-ab/delta-scoped"
                               : "cache-ab/full-flush",
                  "warm hit rate across updates:", 100.0 * hit_rate);
    }
    s7.hit_rate_kept_ok = s7.delta_hit_rate >= 0.5;
  }

  // S8: aggregate-vs-materialize A/B.  A window mix with real covered mass
  // (extents up to half the world) is answered through the same engine as
  // kAggregate requests -- annotation-augmented descent folds covered
  // subtrees from precomputed per-node annotations and only the partial
  // fringe touches leaf geometry -- and as kWindow requests whose
  // materialized id lists a host loop then clips and reduces.  The arms
  // must agree field-for-field (count/bbox exactly; the length/centroid
  // sums to accumulation-order rounding), and the aggregate path must not
  // lose to materialize-then-reduce (1.10 tolerance, same as model_ok; on
  // this mix it should win well clear of it).
  AggregateAbResult s8;
  {
    constexpr std::size_t kAggRequests = 4000;
    std::mt19937_64 rng(13);
    std::uniform_real_distribution<double> pos(0.0, kWorld - 1.0);
    std::uniform_real_distribution<double> extent(kWorld / 16.0, kWorld / 2.0);
    std::uniform_int_distribution<int> which(0, 1);
    std::vector<serve::Request> agg_batch;
    std::vector<serve::Request> mat_batch;
    agg_batch.reserve(kAggRequests);
    mat_batch.reserve(kAggRequests);
    for (std::size_t i = 0; i < kAggRequests; ++i) {
      const auto idx = which(rng) == 0 ? serve::IndexKind::kQuadTree
                                       : serve::IndexKind::kRTree;
      const double x = pos(rng), y = pos(rng);
      const geom::Rect w{x, y, std::min(kWorld, x + extent(rng)),
                         std::min(kWorld, y + extent(rng))};
      agg_batch.push_back(serve::Request::aggregate_query(idx, w));
      mat_batch.push_back(serve::Request::window_query(idx, w));
    }

    serve::EngineOptions eo;
    eo.shards = 4;
    eo.threads = 4;
    eo.min_dp_batch = 8;
    serve::QueryEngine engine(eo);
    engine.mount(&quad);
    engine.mount(&rtree);
    engine.serve(agg_batch);  // warm: lazy annotation builds + cost model

    std::vector<serve::Response> agg_rsp;
    const double agg_ms =
        bench::best_of(2, [&] { agg_rsp = engine.serve(agg_batch); });

    // Materialize-then-reduce arm: same engine, same windows, but the ids
    // come back to the host and the reduction (clip + accumulate) runs
    // here -- the cost the aggregate path exists to avoid.
    std::vector<core::WindowAggregate> mat_out(mat_batch.size());
    const double mat_ms = bench::best_of(2, [&] {
      const auto responses = engine.serve(mat_batch);
      for (std::size_t i = 0; i < responses.size(); ++i) {
        core::WindowAggregate g;
        for (const geom::LineId id : responses[i].ids) {
          const geom::Segment& seg = lines[id];
          double t0 = 0.0, t1 = 1.0;
          if (geom::clip_segment_to_rect(seg.a, seg.b, mat_batch[i].window,
                                         t0, t1)) {
            core::accumulate_hit(g, seg, t0, t1, core::AggregateScope{});
          }
        }
        mat_out[i] = g;
      }
    });

    auto close = [](double a, double b) {
      return std::fabs(a - b) <=
             1e-7 * (1.0 + std::max(std::fabs(a), std::fabs(b)));
    };
    bool identical = agg_rsp.size() == mat_out.size();
    for (std::size_t i = 0; identical && i < agg_rsp.size(); ++i) {
      const core::WindowAggregate& a = agg_rsp[i].aggregate;
      const core::WindowAggregate& b = mat_out[i];
      identical = agg_rsp[i].status == serve::Status::kOk &&
                  a.count == b.count && a.bbox == b.bbox &&
                  close(a.length, b.length) && close(a.wx, b.wx) &&
                  close(a.wy, b.wy);
    }

    s8.requests = kAggRequests;
    s8.agg_ms = agg_ms;
    s8.materialize_ms = mat_ms;
    s8.speedup = agg_ms > 0.0 ? mat_ms / agg_ms : 0.0;
    s8.annotation_builds = engine.metrics().agg_annotation_builds;
    s8.identical = identical;
    s8.agg_ok = identical && agg_ms <= mat_ms * 1.10;
    std::printf("\nS8: aggregate vs materialize-then-reduce (%zu windows, "
                "extents up to world/2)\n",
                kAggRequests);
    std::printf("aggregate %8.2f ms   materialize+reduce %8.2f ms   "
                "speedup %.2fx   results %s\n",
                s8.agg_ms, s8.materialize_ms, s8.speedup,
                s8.identical ? "identical" : "MISMATCH");
  }

  if (json) {
    write_json("BENCH_serve.json", rows, seq_ms, knn_rows, knn_seq_ms,
               cluster_rows, hot, trace_rows, kTraceBatches, kTraceBatch,
               kTraceIntervalUs, kTraceStallUs, dispatch_mixed, dispatch_knn,
               s7, s8);
  }

  // S2: overload.  Offered load deliberately exceeds capacity: many client
  // threads hammer a small engine.  Without admission everything is
  // admitted and queues on the pool, so tail latency grows with the
  // backlog; with admission the engine sheds the excess (kShedded, never a
  // wrong answer) and keeps the tail of the work it does serve bounded.
  {
    constexpr int kClients = 16;
    constexpr int kBatchesPerClient = 4;
    constexpr std::size_t kOverloadBatch = 500;
    std::vector<std::vector<serve::Request>> chunks;
    for (std::size_t lo = 0; lo + kOverloadBatch <= batch.size();
         lo += kOverloadBatch) {
      chunks.emplace_back(batch.begin() + static_cast<std::ptrdiff_t>(lo),
                          batch.begin() +
                              static_cast<std::ptrdiff_t>(lo + kOverloadBatch));
    }

    std::printf("\nS2: overload, %d clients x %d batches of %zu requests "
                "(engine: 2 lanes; admission: 2 running / 2 queued)\n",
                kClients, kBatchesPerClient, kOverloadBatch);
    std::printf("%-22s %10s %14s %7s %11s %11s\n", "config", "wall_ms",
                "goodput(req/s)", "shed%", "ok_p50(us)", "ok_p99(us)");

    for (const bool admission : {false, true}) {
      serve::EngineOptions eo;
      eo.shards = 2;
      eo.threads = 2;
      eo.min_dp_batch = 8;
      eo.admission.enabled = admission;
      eo.admission.max_concurrent_batches = 2;
      eo.admission.max_queued_batches = 2;
      eo.admission.max_inflight_requests = 4 * kOverloadBatch;
      serve::QueryEngine engine(eo);
      engine.mount(&quad);
      engine.mount(&rtree);

      std::vector<std::vector<double>> ok_lat(kClients);
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          for (int b = 0; b < kBatchesPerClient; ++b) {
            const auto& chunk =
                chunks[static_cast<std::size_t>(c * kBatchesPerClient + b) %
                       chunks.size()];
            for (const serve::Response& r : engine.serve(chunk)) {
              if (r.status == serve::Status::kOk) {
                ok_lat[static_cast<std::size_t>(c)].push_back(r.latency_us);
              }
            }
          }
        });
      }
      for (auto& t : clients) t.join();
      const double wall_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();

      std::vector<double> lat;
      for (const auto& v : ok_lat) lat.insert(lat.end(), v.begin(), v.end());
      std::sort(lat.begin(), lat.end());
      auto quantile = [&lat](double q) {
        if (lat.empty()) return 0.0;
        const auto idx = static_cast<std::size_t>(
            q * static_cast<double>(lat.size() - 1));
        return lat[idx];
      };
      const serve::ServeMetrics m = engine.metrics();
      const double offered = static_cast<double>(m.requests);
      const double shed_pct =
          offered == 0.0 ? 0.0
                         : 100.0 * static_cast<double>(m.shedded) / offered;
      std::printf("%-22s %10.2f %14.0f %6.1f%% %11.0f %11.0f\n",
                  admission ? "admission" : "no-admission", wall_ms,
                  1000.0 * static_cast<double>(m.ok) / wall_ms, shed_pct,
                  quantile(0.50), quantile(0.99));
    }
  }

  // The serving ledger replays through the paper's cost model like any
  // build ledger (one more serve to have a single batch's counters).
  serve::EngineOptions opts;
  opts.shards = 4;
  opts.min_dp_batch = 8;
  serve::QueryEngine engine(opts);
  engine.mount(&quad);
  engine.mount(&rtree);
  engine.serve(batch);
  const serve::ServeMetrics m = engine.metrics();
  std::printf("\nmerged shard ledger (one 4-shard batch): %llu primitive "
              "invocations, dp groups %llu, sequential groups %llu\n",
              static_cast<unsigned long long>(m.prims.total_invocations()),
              static_cast<unsigned long long>(m.dp_groups),
              static_cast<unsigned long long>(m.seq_groups));
  std::printf("stage wall-clock ms: shard %.2f window %.2f point %.2f "
              "nearest %.2f merge %.2f\n",
              m.stages.shard_ms, m.stages.window_ms, m.stages.point_ms,
              m.stages.nearest_ms, m.stages.merge_ms);
  dpv::MachineModel cm5;
  std::printf("MachineModel(32p) replay of the serving ledger: %.2f ms\n",
              cm5.estimate_ms(m.prims));
  return 0;
}
