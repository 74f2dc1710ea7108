#pragma once
// Serving-engine metrics: request accounting, per-stage wall clock, an
// HDR-style latency histogram, and the merged scan-model ledger.
//
// Every shard counts into private copies of these structures while it
// runs; the engine folds them into its session-wide ServeMetrics after the
// fork joins (the same snapshot/merge discipline `dpv::Context` uses for
// its PrimCounters).  The merged ledger is an ordinary PrimCounters, so it
// replays through `dpv::MachineModel` like any build or batch-query
// ledger.

#include <array>
#include <cstddef>
#include <cstdint>

#include "dpv/context.hpp"
#include "dpv/cost_model.hpp"

namespace dps::serve {

/// HDR-style histogram over microsecond latencies: 1us-wide buckets below
/// 32us, then every power-of-two octave [2^g, 2^(g+1)) subdivided into 32
/// equal sub-buckets, so the bucket width is always <= 1/32 (~3.2%) of the
/// latency it brackets -- quantiles stay sharp from microseconds to the
/// ~68s cap instead of rounding to octave edges.  Fixed size, mergeable,
/// no allocation.
class LatencyHistogram {
 public:
  static constexpr std::size_t kUnitBuckets = 32;   // [v, v+1) for v < 32
  static constexpr std::size_t kSubBits = 5;        // 32 sub-buckets/octave
  static constexpr std::size_t kFirstOctave = 5;    // first subdivided: 2^5
  static constexpr std::size_t kLastOctave = 36;    // top octave: [2^36, 2^37)
  static constexpr std::size_t kBuckets =
      kUnitBuckets + (kLastOctave - kFirstOctave + 1) * (1u << kSubBits);

  void record(double us) noexcept;
  std::uint64_t count() const noexcept;

  /// Upper bound (us) of the bucket holding the q-quantile sample
  /// (0 < q <= 1); 0 when empty.  Within 1/32 of the true quantile sample.
  double quantile_upper_us(double q) const noexcept;

  /// Bucket index a latency lands in, and the bucket's [lower, upper) us
  /// bounds -- exposed so tests can assert the resolution contract.
  static std::size_t bucket_of(double us) noexcept;
  static double bucket_lower_us(std::size_t b) noexcept;
  static double bucket_upper_us(std::size_t b) noexcept;

  const std::array<std::uint64_t, kBuckets>& buckets() const noexcept {
    return buckets_;
  }

  LatencyHistogram& operator+=(const LatencyHistogram& other) noexcept;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
};

/// Wall-clock milliseconds per engine stage, summed over serve() calls.
struct StageTimes {
  double shard_ms = 0.0;      // partition requests into per-shard groups
  double window_ms = 0.0;     // window groups (batch pipeline or sequential)
  double point_ms = 0.0;      // point groups
  double nearest_ms = 0.0;    // k-nearest groups
  double aggregate_ms = 0.0;  // range-aggregate groups
  double join_ms = 0.0;       // map-vs-map join groups
  double merge_ms = 0.0;      // fold shard ledgers/metrics into the session

  StageTimes& operator+=(const StageTimes& other) noexcept;
};

struct ServeMetrics {
  std::uint64_t batches = 0;   // serve() calls
  std::uint64_t requests = 0;  // individual requests seen

  // Terminal statuses.
  std::uint64_t ok = 0;
  std::uint64_t expired = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shedded = 0;  // load-shed by admission control
  std::uint64_t invalid = 0;  // malformed geometry rejected at the boundary

  // Request mix.
  std::uint64_t window_requests = 0;
  std::uint64_t point_requests = 0;
  std::uint64_t nearest_requests = 0;
  std::uint64_t aggregate_requests = 0;
  std::uint64_t join_requests = 0;

  // Execution-path split: groups that ran the data-parallel pipeline vs
  // groups that walked the per-request sequential path (dispatch decision,
  // exhausted retries, or a deadline / cancel abort).
  // `hybrid_groups` always reads 0: it counted k-nearest groups split
  // between the two paths, and k-nearest is now served sequentially.  The
  // field stays only because the end-to-end benchmark still reads it.
  std::uint64_t dp_groups = 0;
  std::uint64_t seq_groups = 0;
  std::uint64_t hybrid_groups = 0;

  // Fault-tolerance accounting.  `retries` counts data-parallel attempts
  // that aborted (injected fault or poisoned shard attempt) and were
  // re-tried after backoff; `seq_fallbacks` counts groups that exhausted
  // their dp attempts and completed on the always-correct sequential
  // path.  Both are deterministic for a seeded fault schedule.
  std::uint64_t retries = 0;
  std::uint64_t seq_fallbacks = 0;

  // Live-update accounting.  `updates` counts apply_update calls that
  // published a generation; `update_failures` counts calls that published
  // nothing (validation, or a fault-aborted shadow build); `compactions`
  // counts updates that ran the full dp rebuild instead of the
  // incremental insert/delete pass.  `lazy_rtree_rebuilds` records R-tree
  // rebuilds (it has no update path) on first use within an updated
  // generation.  `lazy_linear_rebuilds` always reads 0: it counted linear-
  // quadtree rebuilds, and serving no longer holds a linear quadtree.  The
  // field stays only because the end-to-end benchmark still reads it.
  std::uint64_t updates = 0;
  std::uint64_t update_inserts = 0;
  std::uint64_t update_deletes = 0;
  std::uint64_t update_failures = 0;
  std::uint64_t compactions = 0;
  std::uint64_t lazy_rtree_rebuilds = 0;
  std::uint64_t lazy_linear_rebuilds = 0;
  // Range-aggregate annotation builds (lazy, once per generation x index
  // under a stable scope); adopters reusing a shared build add nothing.
  std::uint64_t agg_annotation_builds = 0;

  dpv::PrimCounters prims;  // merged per-shard scan-model ledger
  StageTimes stages;
  LatencyHistogram latency;

  // Learned dispatch coefficients at snapshot time.  Folding two metrics
  // merges the snapshots (better-trained entry per cell wins), which is how
  // Cluster replicas publish their ledgers to each other.
  dpv::CostModelSnapshot cost_model;

  ServeMetrics& operator+=(const ServeMetrics& other);
};

/// The calling thread's CPU time in microseconds (wall clock where the
/// POSIX thread clock is absent): the clock both dispatch decisions learn
/// from, because it prices the work itself, not preemption by peers.
double thread_cpu_us();

}  // namespace dps::serve
