#pragma once
// serve::Cluster: spatially-sharded multi-engine serving with a
// hot-window result cache and failure-domain-aware dispatch.
//
//                      request batch
//                           |
//            validation + cluster-door admission
//          (kShedded is a refusal, never a wrong answer)
//                           |
//                      ResultCache
//        bounded LRU on canonicalized (kind, index, geometry, k);
//          epoch-invalidated on every mount; per-request bypass
//                           |
//                     spatial router
//      window/point/aggregate -> every shard whose footprint meets the
//                      query region
//      k-nearest    -> two-phase: nearest footprint first, then every
//                      shard whose MINDIST beats the running kth bound
//      join         -> every live shard that also holds probe clones
//                           |
//          round dispatcher (granularity-controlled)
//        one learned constant decides per round: the calling thread serves
//        it inline, or forks every sub-batch but the largest, which it
//        keeps; a round with failure-domain machinery armed (hedging, a
//        replica fault injector, a deadline or subrequest budget) always
//        fans out in full
//                           |
//                async fan-out (deadline budgets)
//        persistent pool, merge-on-arrival; a subrequest that outlives
//        its budget is abandoned (late replies dropped, never joined on)
//           .-----------.-----+-----.------------.
//           engine 0    engine 1    ...          engine N-1
//             |  hedge    |  hedge                 |  hedge
//             v           v                        v
//           backup 0    backup 1    ...          backup N-1
//            (same footprint; p99-delayed re-issue, first kOk wins)
//                           |
//          missing (round, shard) answer: that shard's sequential
//           oracle over its own pinned generation refills the slot
//                           |
//                      exact merge
//        sorted-union duplicate deletion of cloned-segment hits;
//             global (distance^2, id) re-rank for k-nearest
//
// Correctness bar: the merged answer is *exactly* the single-engine
// answer -- same ids, same distances^2, same tie order -- for every
// request kind, any shard count, cache on or off (the augmented-map
// partition-and-merge exactness of Sun & Blelloch, with Hoel & Samet's
// regular decomposition as the partition).  Why it holds:
//
//   * Window/point: a result segment intersects the query region, so some
//     point of that intersection lies in a routed footprint, and the
//     cloning rule guarantees the segment lives in that footprint's
//     shard.  Per-shard answers are sorted unique id lists; the merge is
//     a sorted union that deletes cloned duplicates.
//   * k-nearest: the closest point of any global top-k segment lies in
//     some footprint F, so MINDIST(F, q) <= that distance <= the running
//     kth bound, and the widening phase (<=, so distance ties are never
//     pruned) consults F.  Per-shard top-k lists re-rank globally by
//     (distance^2, id) -- the same canonical order core::k_nearest
//     produces -- then truncate to k after deleting cloned hits.
//   * Range-aggregate: every shard engine carries an AggregateScope over
//     its own footprint, so each clipped hit contributes to exactly one
//     routed shard (the one owning the hit's canonical owner point).  The
//     merged answer folds per-shard partials field-wise in shard order:
//     count and bbox equal the single-engine values bitwise; the length /
//     centroid sums differ from a single engine only by floating-point
//     association (see docs/PRIMITIVES.md, "FP-order contract").
//   * Join: any intersecting (base, probe) pair has an intersection point
//     inside some footprint, and the cloning rule puts *both* lines in
//     that footprint's base and probe shards, so the pair surfaces in at
//     least one shard-local join.  Per-shard pair lists are sorted unique;
//     the merge is a sorted union, identical to the single-engine list.
//
// Failure domains (each shard's replica is one): a replica that stalls,
// wedges, or crashes costs bounded latency, never a wrong answer.
// Hedged answers are exact -- a backup replica is mounted over the same
// shard footprint and shares its generations -- so hedging never changes
// a payload, only when it arrives.  When no answer for a shard exists at
// merge time (breaker open, crash / timeout with no winning hedge), the
// request settles either by refilling that shard's answer from the
// shard's own sequential oracle (still exact: the refilled part merges
// like a healthy one) or, when it opted in through Request::allow_partial,
// as Status::kPartial carrying the surviving shards' exactly-merged hits
// plus a missing_shards count.  A shard oracle that cannot answer the
// request settles it kRejected.  kPartial and oracle-settled responses
// are never inserted into the ResultCache.
// docs/PRIMITIVES.md ("Failure domains and exact-merge degradation")
// walks the ladder, the breaker state machine and the hedge delay.
//
// Each replica keeps QueryEngine's full semantics: per-shard
// retry-with-backoff under injected faults, sequential settle, and
// deterministic chaos replay.  Replica-level faults (stall / stuck /
// crash, ClusterOptions::replica_fault_injectors) are decided purely from
// (seed, replica, dispatch scope), so the *set* of faulted subrequests
// replays bit-identically even though hedge firing times vary; answers
// are timing-independent because every path is exact.  Admission happens
// once at the cluster door, not per replica.  Thread-safety matches
// QueryEngine: serve() from any number of threads; mount() serializes
// against in-flight batches (replicas are remounted *before* the previous
// index generation is destroyed, so even an abandoned straggler can never
// traverse freed trees) and advances the cache epoch before any new
// request can hit.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "core/pmr_build.hpp"
#include "core/quadtree.hpp"
#include "core/rtree.hpp"
#include "core/rtree_build.hpp"
#include "core/shard_segments.hpp"
#include "serve/admission.hpp"
#include "serve/breaker.hpp"
#include "serve/cache.hpp"
#include "serve/engine.hpp"
#include "serve/metrics.hpp"
#include "serve/request.hpp"

namespace dps::serve {

enum class Route : std::uint8_t;  // a request kind's shard route (kinds.hpp)

/// Hedged subrequests: when a replica has not answered within a delay
/// derived from its own observed latency, re-issue the subrequest to that
/// shard's backup replica (mounted exactly when hedging is on).  First kOk
/// answer wins; the loser is cancelled through the engine's per-call
/// BatchControl hook.
struct HedgeOptions {
  bool enabled = false;
  /// Ledger quantile the hedge delay tracks (the sptl-style measured
  /// control: observed behaviour, not a hand-set constant).
  double quantile = 0.99;
  /// Completed subrequests a replica's ledger needs before its quantile
  /// is trusted; until then `initial_delay` is used.
  std::uint64_t min_samples = 16;
  std::chrono::microseconds initial_delay{2'000};
  /// Clamp on the derived delay (a replica that got very fast must not
  /// hedge on noise; a very slow one must still hedge eventually).
  std::chrono::microseconds min_delay{200};
  std::chrono::microseconds max_delay{100'000};
};

struct ClusterOptions {
  /// Spatial shards = QueryEngine replicas (0 is clamped to 1).
  std::size_t shards = 2;
  /// Template for every replica (threads, min_dp_batch, retries, ...).
  /// Replica admission stays whatever the template says -- the cluster
  /// gates at its own door, so leave it disabled unless you want both.
  EngineOptions engine;
  /// Hot-window result cache in front of the router.
  CacheOptions cache;
  /// Cluster-door admission (disabled by default, like the engine's).
  AdmissionOptions admission;
  /// Delta-scoped cache invalidation: apply_update drops only the cached
  /// entries whose canonical footprint intersects the update's dirty
  /// region (union of delta MBRs), so warm entries over untouched areas
  /// keep hitting.  Off = every update flushes the whole cache
  /// (bump_epoch), the conservative A/B baseline.
  bool delta_cache_invalidation = true;
  /// Per-replica compaction trigger forwarded to UpdateOptions: once a
  /// shard's accumulated deltas exceed this, its next update runs a full
  /// data-parallel rebuild of the surviving lines instead of the
  /// incremental pass.
  std::size_t update_compact_after = 64;
  /// Optional per-replica chaos hooks (index = shard); shorter than
  /// `shards` means the tail gets none.  Overrides `engine.fault_injector`
  /// for the primary replicas it names; entries may be null.  Must
  /// outlive the cluster.  Backup replicas are never replica-fault-injected:
  /// they are the recovery path.
  std::vector<dpv::FaultInjector*> replica_fault_injectors;

  // --- failure-domain dispatch ---

  /// Hedged subrequests (off by default).  On, the cluster mounts a
  /// backup QueryEngine per shard over the same footprint as the hedge
  /// target (doubles replica count, not index memory -- backups share the
  /// shard's built indexes).
  HedgeOptions hedge;
  /// Per-replica circuit breakers (off by default).
  BreakerOptions breaker;
  /// Optional hard per-subrequest wait cap (0 = request deadlines only).
  /// With no deadline, no hedge, and no cap, a stuck replica is waited on
  /// indefinitely -- the pre-failure-domain join semantics.
  std::chrono::microseconds subrequest_timeout{0};
};

struct ClusterMountOptions {
  /// Side of the map square [0, world]^2; also the shard-plan extent.
  double world = 1.0;
  /// Per-shard bucket-PMR build (its `world` is overwritten with `world`).
  core::PmrBuildOptions quad;
  /// Per-shard R-tree build.
  core::RtreeBuildOptions rtree;
  /// Always false: the cluster builds no linear quadtree.  Not an option;
  /// its only reader is bench_e2e/src/layers.cpp, and it goes with the
  /// benchmark change that moves layers.cpp off struct fields.
  static constexpr bool build_linear = false;
};

/// Point-in-time health of one primary replica (metrics() snapshot).
struct ReplicaHealth {
  std::size_t replica = 0;
  std::uint64_t subrequests = 0;  // jobs dispatched to this replica
  std::uint64_t completed = 0;    // jobs that answered (crashes excluded)
  std::uint64_t timeouts = 0;     // jobs abandoned at their budget
  std::uint64_t crashes = 0;      // fail-fast replica faults observed
  std::uint64_t hedges = 0;       // hedge jobs fired against this replica
  std::uint64_t breaker_skips = 0;  // subrequests skipped while open
  CircuitBreaker::State breaker_state = CircuitBreaker::State::kClosed;
  std::size_t consecutive_failures = 0;
  double p99_us = 0.0;  // observed subrequest wall-clock p99
};

struct ClusterMetrics {
  std::uint64_t batches = 0;
  std::uint64_t requests = 0;

  // Terminal statuses (same taxonomy as ServeMetrics, plus kPartial).
  std::uint64_t ok = 0;
  std::uint64_t expired = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shedded = 0;
  std::uint64_t invalid = 0;
  std::uint64_t partial = 0;

  // Cache-path split, counted at the cluster door.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_bypasses = 0;  // requests that asked to skip it

  // Routing accounting.
  std::uint64_t routed_subrequests = 0;   // shard-local requests dispatched
  std::uint64_t knn_widened_shards = 0;   // phase-2 shards consulted
  std::uint64_t duplicate_hits_removed = 0;  // cloned hits merged away

  // Round dispatch split (non-empty rounds only).
  std::uint64_t inline_rounds = 0;  // served on the calling thread
  std::uint64_t fanout_rounds = 0;  // forked to the dispatcher pool

  // Failure-domain accounting.
  std::uint64_t hedges_issued = 0;       // hedge jobs fired
  std::uint64_t hedges_won = 0;          // requests settled using a hedge answer
  std::uint64_t subrequest_timeouts = 0;    // jobs abandoned at budget
  std::uint64_t replica_crashes = 0;        // fail-fast jobs observed
  std::uint64_t missing_shard_answers = 0;  // shard answers absent at merge
  std::uint64_t degraded_fallback = 0;   // requests settled by the oracle path
  std::uint64_t breaker_open_transitions = 0;
  std::uint64_t breaker_close_transitions = 0;
  std::uint64_t breaker_half_open_probes = 0;
  std::uint64_t breaker_skipped_subrequests = 0;  // requests skipped while open

  // Live-update accounting (see ServeMetrics for the per-engine view).
  std::uint64_t updates = 0;           // apply_update calls that published
  std::uint64_t update_inserts = 0;
  std::uint64_t update_deletes = 0;    // known ids removed
  std::uint64_t update_failures = 0;   // calls that published nothing
  std::uint64_t compactions = 0;       // shard shadows built by full rebuild

  /// Per-request settle latency (all statuses), stamped when the request
  /// settles -- cache hits and gate rejections record their own (short)
  /// latency, not the batch's.
  LatencyHistogram latency;

  /// Cache-internal snapshot (evictions, invalidations, current epoch);
  /// taken at metrics() time, not reset by reset_metrics().
  CacheStats cache;
  /// Per-replica health snapshot, taken at metrics() time.
  std::vector<ReplicaHealth> replicas;

  ClusterMetrics& operator+=(const ClusterMetrics& other) noexcept;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions opts = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Shards `lines` over the k-way plan of [0, world]^2, builds every
  /// non-empty shard's quadtree and R-tree side by side (dpv::fork_join),
  /// and mounts them on that shard's replica (and its backup when hedging
  /// is on).  A build that throws rethrows here, before anything swaps.
  /// Serializes against in-flight serve() calls (exclusive mount lock)
  /// and advances the cache epoch, so no answer computed against the
  /// previous map survives the remount.
  void mount(const std::vector<geom::Segment>& lines,
             const ClusterMountOptions& opts);

  /// Mounts the "probe" side of map-vs-map join serving: shards `lines`
  /// over the *current* plan with the same cloning rule as the base map,
  /// builds each probe shard's quadtree and R-tree, and mounts them on
  /// every replica.  Requires a mounted cluster (no-op otherwise); a base
  /// remount unmounts the probe (its shards were cut by the old plan), so
  /// re-mount it afterwards.  The probe map is static: apply_update
  /// batches mutate the base map only, and every join answer pairs the
  /// updated base against this probe snapshot.  An empty `lines` unmounts
  /// the probe; kJoin requests then settle kInvalidArgument at the
  /// cluster door.  Serializes like mount() and advances the cache epoch
  /// (join entries are keyed by (kind, index) alone).
  void mount_probe(const std::vector<geom::Segment>& lines);

  /// Applies one whole-map insert/delete delta batch to the mounted
  /// cluster.  Deltas route to owning shards by the same closed-rect
  /// cloning rule `mount` shards with (a boundary-crossing insert is
  /// cloned into every footprint it touches), then every affected
  /// replica's shadow generation builds data-parallel (pmr_delete +
  /// pmr_insert, or a compacting full rebuild) and the results publish
  /// back-to-back as RCU pointer swaps: reads never block, and every
  /// engine answer comes from exactly one generation.  Backups adopt
  /// their primary's generation.  The cache then drops only entries whose footprint
  /// meets the dirty region (`ClusterOptions::delta_cache_invalidation`),
  /// or flushes wholesale when that is off.  Insert ids must not collide
  /// with live lines (net of this batch's deletes) or each other --
  /// kInvalidArgument, nothing published.  A fault-aborted shard shadow
  /// aborts the whole update the same way (kRejected, nothing published
  /// anywhere -- no torn cross-shard state).  Requires a mounted cluster
  /// (kRejected otherwise).  Serializes against concurrent apply_update
  /// and mount calls; concurrent serve() calls proceed untouched.
  UpdateResult apply_update(const UpdateBatch& batch);

  /// Serves one batch; responses[i] answers batch[i] exactly as a single
  /// engine mounted over the whole map would (kPartial excepted, and only
  /// for requests that opted in).  Thread-safe.
  std::vector<Response> serve(const std::vector<Request>& batch);

  std::size_t shards() const noexcept { return shards_; }
  const core::ShardPlan& plan() const noexcept { return sharded_.plan; }
  /// Segments assigned to `shard` (clones included); 0 for empty shards.
  std::size_t shard_segment_count(std::size_t shard) const noexcept {
    return shard < sharded_.shards.size() ? sharded_.shards[shard].size() : 0;
  }
  /// Replica access (per-engine metrics, arena stats, ...).
  QueryEngine& engine(std::size_t shard) { return *engines_[shard]; }
  const QueryEngine& engine(std::size_t shard) const {
    return *engines_[shard];
  }
  /// Backup replica for `shard`; null unless hedging is on.
  QueryEngine* backup(std::size_t shard) {
    return shard < backups_.size() ? backups_[shard].get() : nullptr;
  }

  /// Cluster-wide mount generation (mirrors the cache epoch).
  std::uint64_t mount_epoch() const noexcept {
    return mount_epoch_.load(std::memory_order_acquire);
  }

  void cancel_all() noexcept;
  void reset_cancel() noexcept;

  ClusterMetrics metrics() const;
  void reset_metrics();
  AdmissionStats admission_stats() const { return admission_.stats(); }

  /// Merges every replica's learned dispatch-cost ledger (primaries and
  /// backups) into one snapshot and warms all of them with the union, so
  /// a replica that has not yet served a shape dispatches on a sibling's
  /// measurements instead of the bootstrap prior.  Per-cell more-samples-wins, so repeated calls are idempotent
  /// and never erase a better-warmed cell.  Returns the merged snapshot
  /// (e.g. to warm a freshly provisioned cluster).  Thread-safe.
  dpv::CostModelSnapshot share_cost_models();

 private:
  /// One shard's indexes, of the base map or of the probe map.
  struct ShardIndexes {
    core::QuadTree quad;
    core::RTree rtree;
    bool empty = true;
  };

  /// Per-request routing/merging state for one serve() call.
  struct Pending;
  /// One dispatched subrequest (primary or hedge); shared with its pool
  /// job so an abandoned subrequest can outlive the batch that issued it.
  struct SubJob;
  /// Completion signal shared by a round's jobs and the serving thread.
  struct Waiter;
  /// Per-shard dispatch state for one round: primary job, optional hedge.
  struct RoundSlot;
  /// Long-lived per-replica state: latency ledger, breaker, counters.
  struct ReplicaState;

  /// Builds every non-empty slice of `sharded` concurrently (see mount).
  std::unique_ptr<std::vector<ShardIndexes>> build_slices(
      const core::ShardedSegments& sharded,
      const ClusterMountOptions& mo) const;

  /// Calls `f` on every engine: primaries, then backups.
  template <class F>
  void each_engine(F f) const;

  Status pre_status(const Request& rq) const noexcept;

  /// UpdateOptions derived from the mounted build configuration.
  UpdateOptions update_options() const;
  /// True when shard `s` currently holds at least one live line (clones
  /// included).  Atomic because apply_update flips it while routing reads
  /// it under the shared mount lock.
  bool shard_live(std::size_t s) const noexcept {
    return shard_live_[s].load(std::memory_order_acquire);
  }

  /// Gates every non-empty per-shard sub-batch through its replica's
  /// breaker, then serves the round.  An unarmed round (no hedging, no
  /// replica fault injector, no deadline or subrequest budget) forks iff
  /// c x (routed - largest sub-batch) >= kappa, keeping the largest on the
  /// calling thread, and otherwise runs inline in shard order; an armed
  /// round fans out in full.  `CostModel::force()` overrides the rule (kSeq
  /// inline, kDp fork).  On return every slot is resolved.
  void run_round(std::vector<std::vector<Request>>& sub, std::size_t round,
                 std::uint64_t batch_seq, std::vector<RoundSlot>& slots,
                 ClusterMetrics& delta);
  /// Submits every staged primary not marked `here` to the dispatcher
  /// pool, serves the `here` ones on the calling thread (training c), then
  /// waits -- merge-on-arrival with deadline budgets and hedging.
  void fan_out(std::vector<RoundSlot>& slots, ClusterMetrics& delta);
  void submit_job(const std::shared_ptr<SubJob>& job,
                  const std::shared_ptr<Waiter>& waiter);
  /// Books a primary that answered: ledger sample, completion count,
  /// breaker success.
  void note_answered(std::size_t replica, const SubJob& job,
                     ClusterMetrics& delta);
  /// Hedge delay for `replica`: its ledger's p99 (clamped) once warmed,
  /// `initial_delay` before that.
  std::chrono::microseconds hedge_delay(std::size_t replica) const;
  /// Appends the shards `rq` consults on `route` (kNearest: the primary
  /// only; the widening round is routed from its reply).
  void route(Route route, const Request& rq,
             std::vector<std::size_t>& out) const;
  /// Non-empty shard with the smallest footprint MINDIST to `p` (lowest
  /// index among ties); shards_ when every shard is empty.
  std::size_t primary_knn_shard(const geom::Point& p) const;

  ClusterOptions opts_;
  std::size_t shards_ = 1;
  std::vector<std::unique_ptr<QueryEngine>> engines_;
  std::vector<std::unique_ptr<QueryEngine>> backups_;  // empty unless hedging
  std::vector<std::unique_ptr<ReplicaState>> replica_state_;

  // Async dispatcher: armed rounds and the pool share of forked ones run
  // here.  Destroyed first in ~Cluster (explicitly), so no job can
  // outlive the engines/indexes it references.
  std::unique_ptr<dpv::AsyncPool> dispatch_pool_;
  std::atomic<std::uint64_t> batch_seq_{0};  // replica-fault scope coordinate
  /// kappa: twice AsyncPool::round_trip_us(), measured once per process,
  /// so a fork's handoff costs at most half the work it moves off the
  /// caller.
  double fork_cost_us_ = 0.0;
  /// c: the calling thread's CPU us per subrequest it serves itself (EMA).
  std::atomic<double> cpu_per_sub_us_{0.0};

  // Mounted state, guarded by mount_mutex_ (serve() shared, mount()
  // exclusive -- the same discipline QueryEngine uses).  Heap storage so
  // element addresses are stable: a remount mounts the replicas onto the
  // *new* storage before the old generation is destroyed.
  core::ShardedSegments sharded_;
  std::unique_ptr<std::vector<ShardIndexes>> indexes_;
  bool mounted_ = false;
  // Probe-map state (join serving); written under the exclusive mount
  // lock, read under the shared one, like the base mount state above.
  std::unique_ptr<std::vector<ShardIndexes>> probe_indexes_;
  bool probe_mounted_ = false;
  std::size_t probe_lines_ = 0;
  /// Shards holding at least one probe clone: the only shards a join can
  /// surface pairs from (an intersection point inside a footprint implies
  /// a probe clone there), so routing skips the rest.
  std::vector<char> probe_shard_live_;
  mutable std::shared_mutex mount_mutex_;

  // Live-update state, written only under update_mutex_ (mount() holds
  // the mount lock exclusively, which also excludes updates).
  std::mutex update_mutex_;
  ClusterMountOptions mount_opts_;
  /// Whole-map live lines by id: delete routing needs the doomed
  /// geometry (which shards hold its clones; which cache region dirties).
  std::unordered_map<geom::LineId, geom::Segment> live_map_;
  /// Per-shard live line counts (clones included), maintained by delta.
  std::vector<std::size_t> shard_lines_;
  /// Routing-visible per-shard occupancy (see shard_live()).
  std::vector<std::atomic<bool>> shard_live_;

  ResultCache cache_;
  AdmissionController admission_;
  std::atomic<bool> cancel_{false};
  std::atomic<std::uint64_t> mount_epoch_{0};

  mutable std::mutex metrics_mutex_;
  ClusterMetrics metrics_;
};

}  // namespace dps::serve
