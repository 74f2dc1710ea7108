#pragma once
// Per-layer metrics of a traced run, measured from outside the program:
//
//   * counters the program already exposes (ClusterMetrics, each primary
//     replica's ServeMetrics / PrimCounters / ArenaStats), differenced
//     across the timed phase;
//   * the spans loadgen keeps around every public call;
//   * replays of what a layer did, each timed around its public core:: or
//     ResultCache call: the mount's build stages (right after set-up), and
//     after the timed phase the core batch pipelines and sequential
//     queries on whole-map indexes, the cache key stream, and the update
//     shadow builds.
//
// Layer names follow the modules: loadgen (this bench), serve.cluster,
// serve.cache, serve.engine, core.query, core.build, core.update, dpv.

#include <cstddef>
#include <string>
#include <vector>

#include "core/quadtree.hpp"
#include "core/shard_segments.hpp"
#include "dpv/arena.hpp"
#include "loadgen.hpp"
#include "oracle.hpp"
#include "report.hpp"
#include "serve/cluster.hpp"
#include "workload.hpp"

namespace e2e {

/// Counter state of a cluster at one instant (primary replicas only).
struct Snapshot {
  dps::serve::ClusterMetrics cluster;
  std::vector<dps::serve::ServeMetrics> engines;
  dps::dpv::ArenaStats arena;
};

Snapshot snapshot(const dps::serve::Cluster& cluster);

/// A named interval of the run (set-up, replays) for the trace file.
struct Interval {
  std::string name;
  dps::serve::Clock::time_point start, end;
};

/// One replay of Cluster::mount's build stages, serially and in its order,
/// through the same core:: calls.  The indexes are the update replay's
/// starting point.
struct BuildReplay {
  double shard_segments_ms = 0, pmr_ms = 0, rtree_ms = 0, linear_ms = 0,
         fallback_ms = 0;
  dps::core::ShardedSegments sharded;
  std::vector<dps::core::QuadTree> quads;  // per shard
  dps::core::QuadTree whole;               // the fallback engine's

  double total_ms() const {
    return shard_segments_ms + pmr_ms + rtree_ms + linear_ms + fallback_ms;
  }
};

BuildReplay replay_mount(const std::vector<Segment>& lines,
                         std::vector<Interval>& log);

struct TraceInputs {
  const Workload* wl = nullptr;
  const PhaseResult* phase = nullptr;  // the traced timed phase (+ probe)
  double reference_p50_us = 0.0;       // untraced phase of the same run
  const Snapshot* before = nullptr;    // timed phase start
  const Snapshot* after = nullptr;     // timed phase end
  const Snapshot* after_updates = nullptr;  // after the update probe
  std::vector<double> mount_s;         // Cluster::mount span per set-up
  /// One replay per set-up, right after its mount; the update replay
  /// consumes the indexes of one of them.
  std::vector<BuildReplay>* builds = nullptr;
  /// core.build.sum_over_mount: replayed build stages over the mount span
  /// (median over set-ups).  Mount is serial, so it should be near 1.
  double sum_over_mount = 0.0;
  const Oracle* oracle = nullptr;      // whole-map indexes for replays
};

/// Every per-layer metric; replays append their intervals to `log`.
Metrics layer_metrics(const TraceInputs& in, std::vector<Interval>& log);

/// Writes Chrome trace-event JSON: the intervals, then one span per serve /
/// apply_update call (with per-replica stage time), on a clock starting
/// at `origin`.
bool write_chrome_trace(const std::string& path,
                        dps::serve::Clock::time_point origin,
                        const std::vector<Interval>& intervals,
                        const PhaseResult& phase);

}  // namespace e2e
