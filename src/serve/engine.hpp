#pragma once
// QueryEngine: a concurrent, overload-safe batch-query serving layer over
// the immutable built indexes (PMR quadtree, R-tree).
//
// The engine models the traffic shape the ROADMAP aims at -- many
// independent query batches in flight at once -- on top of the paper's
// single-batch data-parallel pipelines:
//
//   * Admission control.  Every serve() call passes an AdmissionController
//     first: a bounded batch-concurrency budget, a bounded in-flight
//     request budget, and a priority-aware bounded waiting room.  Under
//     overload the lowest-priority entrant is load-shed with
//     Status::kShedded (never a wrong answer); admitted work keeps
//     bounded latency.  Disabled by default for drop-in compatibility.
//   * Validation.  Malformed geometry (NaN/inf coordinates, inverted or
//     zero-area windows, k-nearest with k = 0) is always rejected per
//     request with Status::kInvalidArgument before admission, via the
//     typed `core::validate_*` boundary checks.
//   * Sharding.  A served batch is split into up to `shards` contiguous
//     slices.  Each shard is one *worker session*: it runs on its own lane
//     of the engine's ThreadPool with its own serial `dpv::Context`
//     (forked via `Context::fork_serial`), so concurrent shards never race
//     on a primitive ledger.  Within a shard, requests regroup by
//     (kind, index) and each group runs its kind's data-parallel kernel
//     (`batch_window_query`, `batch_point_query`,
//     `batch_window_aggregate`, `dp_spatial_join`; see serve/kinds.hpp)
//     in one shot, or its sequential kernel request by request.
//   * Retry with backoff.  When a group's data-parallel attempt aborts on
//     an injected fault (or a poisoned shard attempt), surviving requests
//     retry up to `max_retries` more times behind exponential backoff with
//     deterministic jitter; a group that exhausts its attempts degrades to
//     the per-request sequential path, which is fault-free by
//     construction -- answers stay correct under any fault schedule.
//     Deadline / cancellation aborts skip straight to the sequential
//     settle, as before.
//   * Fault injection.  An optional borrowed `dpv::FaultInjector` is
//     threaded into every shard attempt's context (primitive failures,
//     scope = (shard, attempt)) and into the engine pool (lane stalls),
//     so chaos schedules replay bit-identically: same seed, same
//     responses, same retry metrics, on serial and thread-pool backends.
//   * Oracular dispatch.  One rule per group: a (kind, index) pair with no
//     data-parallel kernel (k-nearest) runs sequentially; every other group
//     takes whichever path an online `dpv::CostModel` picks from measured
//     cost per (kind x index x map-density x batch-size bucket).
//     `min_dp_batch` survives only as the model's bootstrap prior, and
//     `dpv::CostModel::force` is the one override.
//   * Scratch arenas.  Each shard owns a persistent `dpv::Arena`; the
//     batch pipelines open a round scope on it, so a steady-state shard
//     recycles the previous batch's scratch buffers and allocates nothing.
//     A per-arena mutex, held while a batch executes the shard, keeps
//     concurrent serve() calls off each other's scratch.
//   * Deadlines / cancellation.  Every request may carry an absolute
//     deadline, and the engine has a batch-wide kill switch
//     (`cancel_all`).  Both feed the `core::BatchControl` hook polled by
//     the batch pipelines between scan-model rounds.
//   * Metrics.  Per-shard ledgers (`PrimCounters`), stage wall-clocks, the
//     dp-vs-sequential path split, retry/fallback counts, and a
//     per-request latency histogram all merge into one session ledger
//     after each batch; `metrics()` snapshots it.
//
// Thread-safety and index generations: the engine serves from an
// immutable *index generation* (IndexGen) -- the active quadtree /
// R-tree pair -- published through an RCU-style pointer swap.  Every
// serve() pins the current generation (one shared_ptr copy)
// before touching an index and reads only that snapshot for the whole
// batch, so a reader never blocks on a writer and never observes a torn
// index set.  Two kinds of writers publish generations:
//
//   * `mount` -- borrowed, externally built indexes.  Still takes the
//     mount lock exclusively (serve() holds it shared), because a caller
//     that mounts may destroy the *previous* borrowed index immediately
//     after, and every pinned snapshot referencing it must have drained
//     first (asserted in debug builds via an in-flight counter).
//   * `apply_update` -- batched insert/delete deltas applied data-parallel
//     (`pmr_insert` / `pmr_delete`) to a shadow copy of the pinned
//     generation, then published as a pointer swap.  Updated generations
//     own their indexes (shared_ptr), so publication never waits for
//     readers: the old generation is freed when its last pinner drops it.
//     The R-tree has no update path; an updated generation marks it
//     stale and rebuilds it from the new lines beside the PMR delta
//     (dpv::fork_join; counted as a lazy rebuild), keeping the serving
//     matrix complete.  Accumulated deltas past
//     `UpdateOptions::compact_after` trigger a full data-parallel rebuild
//     of the surviving lines -- byte-identical to the incremental result
//     by the bucket PMR's history-independence -- which resets the delta
//     debt.  A fault-aborted shadow build publishes nothing.
//
// Every published generation advances the monotonically increasing
// `mount_epoch()`, which cache layers stacked on top (see serve::Cluster /
// ResultCache) consume to invalidate results produced by older index
// generations.  Mounted (borrowed) indexes must stay alive and unmodified
// while any generation referencing them can be pinned.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/batch_aggregate.hpp"
#include "core/batch_query.hpp"
#include "core/quadtree.hpp"
#include "core/rtree.hpp"
#include "dpv/dpv.hpp"
#include "serve/admission.hpp"
#include "serve/metrics.hpp"
#include "serve/request.hpp"

namespace dps::serve {

/// One immutable index generation (serve/kinds.hpp): the active
/// indexes plus staleness and lazy-rebuild state.
struct IndexGen;
struct GenView;

/// A built-but-unpublished index generation: the outcome of
/// `QueryEngine::prepare_update`.  `publish_update` swaps it in; dropping
/// it abandons the shadow build with no observable effect.  The split
/// exists so a multi-shard caller (serve::Cluster) can build every shard's
/// shadow first and only then publish them back-to-back.
struct PreparedUpdate {
  Status status = Status::kOk;
  bool compacted = false;
  std::size_t inserted = 0;
  std::size_t deleted = 0;          // known ids removed
  std::size_t unknown_deletes = 0;  // delete ids with no live line
  /// The shadow generation; null when nothing needs publishing (a failed
  /// or no-op update).
  std::shared_ptr<IndexGen> gen;

  bool ok() const noexcept { return status == Status::kOk; }
};

struct EngineOptions {
  /// Worker sessions a batch is split across (0 = one per pool lane).
  std::size_t shards = 0;
  /// OS-thread lanes of the engine's pool (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Bootstrap prior of the dispatch cost model: until a family has
  /// measurements, groups at least this large take the data-parallel
  /// pipeline.  An engine with a `fault_injector` never trains its model,
  /// so there this is the exact threshold and chaos replay stays
  /// deterministic.
  std::size_t min_dp_batch = 8;
  /// Cost-model tuning.  `bootstrap_min_dp_batch` is overwritten with
  /// `min_dp_batch` at engine construction (one knob, not two).
  dpv::CostModelOptions cost_model;
  /// dpv grain for the per-shard contexts.
  std::size_t grain = 4096;

  /// Overload protection (disabled by default).
  AdmissionOptions admission;

  /// Extra data-parallel attempts after a fault-aborted one, before a
  /// group degrades to the sequential path.
  std::size_t max_retries = 2;
  /// Backoff before retry r sleeps `backoff_base * 2^r`, scaled by a
  /// deterministic jitter in [1 - backoff_jitter, 1 + backoff_jitter)
  /// derived from (retry_seed, shard, attempt).
  std::chrono::microseconds backoff_base{50};
  double backoff_jitter = 0.5;
  std::uint64_t retry_seed = 0;

  /// Borrowed chaos hook; null = no injection.  Must outlive the engine.
  dpv::FaultInjector* fault_injector = nullptr;
};

class QueryEngine {
 public:
  explicit QueryEngine(EngineOptions opts = {});
  ~QueryEngine();

  // Mounts an index.  Borrowed, immutable, must outlive every generation
  // that references it; remounting replaces the previous index of that
  // type (nullptr unmounts).  Takes the mount lock exclusively: blocks
  // until in-flight serve() calls finish, so the caller may destroy the
  // replaced index as soon as mount() returns (debug builds assert no
  // serve() is in flight once the lock is held).  Mounting a quadtree
  // resets the accumulated update-delta debt; mounting an R-tree clears
  // its staleness (an explicit mount replaces the lazy rebuild).  Each
  // call advances `mount_epoch()`.
  void mount(const core::QuadTree* tree);
  void mount(const core::RTree* tree);

  /// Mounts the *probe* map for kJoin requests: the second operand of the
  /// map-vs-map spatial join (the base map is whatever mount() installed).
  /// Borrowed like any mount, with the same lifetime and serialization
  /// contract; either pointer may be null (a kJoin against a missing or
  /// empty probe settles kInvalidArgument at the serve boundary).  The
  /// quadtree serves (kJoin, kQuadTree), the R-tree (kJoin, kRTree).  Probe
  /// pointers survive live updates of the base map (the shadow generation
  /// carries them), so an updated base keeps joining against the same
  /// probe.
  void mount_probe(const core::QuadTree* quad, const core::RTree* rtree);

  /// Installs the shard-ownership scope every range-aggregate answer is
  /// filtered through (see core::AggregateScope): a hit contributes only
  /// when its owner point falls in the half-open footprint, which is how a
  /// cluster shard counts cloned boundary lines exactly once.  Default:
  /// unscoped (every hit contributes).  Must be called while no serve() is
  /// in flight, before aggregate traffic arrives; engines sharing a
  /// generation (adopt_generation) must share one scope, because the
  /// lazily built per-generation annotations are scope-filtered and
  /// shared.  Changing the scope invalidates them (rebuilt on next use).
  void set_aggregate_scope(const core::AggregateScope& scope);

  const core::AggregateScope& aggregate_scope() const noexcept {
    return agg_scope_;
  }

  /// Applies one insert/delete delta batch to the current generation and
  /// publishes the result as a new generation (see the header comment).
  /// Reads never block: concurrent serve() calls keep answering from
  /// whichever generation they pinned.  Insert ids must not collide with
  /// live lines (net of this batch's deletes) or each other --
  /// `kInvalidArgument` otherwise, like malformed insert geometry.  A
  /// fault-aborted shadow build answers kRejected and publishes nothing.
  /// Concurrent apply_update calls serialize; do not call mount()
  /// concurrently (the cluster serializes the two through its own mount
  /// lock).
  UpdateResult apply_update(const UpdateBatch& batch,
                            const UpdateOptions& opts);

  /// Two-phase form: builds the shadow generation without publishing it.
  /// Between prepare and publish the caller must keep other updates and
  /// mounts off this engine (serve::Cluster's update mutex does).
  PreparedUpdate prepare_update(const UpdateBatch& batch,
                                const UpdateOptions& opts);
  /// Publishes a prepared generation (pointer swap + epoch bump; no-op for
  /// a failed or empty preparation).  Returns the resulting mount epoch.
  std::uint64_t publish_update(PreparedUpdate&& prepared);

  /// Adopts `from`'s current generation as this engine's (shared immutable
  /// storage, including the lazy-rebuild slots) -- how a cluster backup
  /// replica tracks its primary across updates without duplicating the
  /// data-parallel work.  Advances this engine's mount epoch.
  void adopt_generation(const QueryEngine& from);

  /// True when the current generation can answer `index` requests --
  /// mounted, or stale-but-lazily-rebuildable after an update.
  bool mounted_index(IndexKind index) const;

  /// Runs one request sequentially against the current generation (the
  /// exact host-traversal oracle; no admission, validation, or metrics).
  /// The cluster's degraded settle path.  kRejected when the generation
  /// cannot answer the (kind, index) combination.
  Status run_oracle(const Request& rq, Response& rsp) const;

  /// Pins the current generation (one shared_ptr copy under gen_mutex_).
  std::shared_ptr<const IndexGen> snapshot_gen() const;

  /// Leaf-decomposition fingerprint of the current generation's quadtree
  /// ("" when none is mounted) -- how the differential suite asserts
  /// update-vs-rebuild history-independence at serve scope.
  std::string quad_fingerprint() const;

  /// Monotonically increasing mount generation: 0 before the first mount,
  /// +1 per mount()/remount.  A result computed at epoch e is stale once
  /// `mount_epoch() != e`; the cluster's ResultCache keys its
  /// invalidation on exactly this counter.
  std::uint64_t mount_epoch() const noexcept {
    return mount_epoch_.load(std::memory_order_acquire);
  }

  std::size_t shards() const noexcept { return shards_; }
  const EngineOptions& options() const noexcept { return opts_; }

  /// Serves one batch; responses[i] answers batch[i].  Thread-safe.
  std::vector<Response> serve(const std::vector<Request>& batch);

  /// As above, with a per-call cancel hook: once `*cancel` turns true the
  /// batch aborts at its next control poll and still-live requests settle
  /// kCancelled, independently of the engine-wide kill switch.  The
  /// cluster's hedged dispatch cancels the losing subrequest through this.
  /// `cancel` must outlive the call; nullptr behaves like the plain
  /// overload.
  std::vector<Response> serve(const std::vector<Request>& batch,
                              const std::atomic<bool>* cancel);

  /// Fires the engine-wide kill switch: in-flight batch pipelines abort at
  /// their next control poll and subsequent requests answer kCancelled,
  /// until `reset_cancel`.
  void cancel_all() noexcept { cancel_.store(true, std::memory_order_relaxed); }
  void reset_cancel() noexcept {
    cancel_.store(false, std::memory_order_relaxed);
  }

  /// Snapshot of the session metrics (ledger merged up to the last
  /// completed serve() call).
  ServeMetrics metrics() const;
  void reset_metrics();

  /// Admission-gate counters (offered / admitted / shed batches).
  AdmissionStats admission_stats() const { return admission_.stats(); }

  /// Learned dispatch coefficients.  The model persists across mount
  /// epochs: cells are keyed by map-density bucket, so a remount of a
  /// different-sized map reads and trains its own cells while the old
  /// epoch's stay warm for a mount back.
  dpv::CostModelSnapshot cost_model_snapshot() const {
    return cost_model_.snapshot();
  }

  /// Installs coefficients (better-trained entry per cell wins) -- how
  /// Cluster replicas warm from each other's ledgers, and how tests force
  /// exact coefficients.
  void warm_cost_model(const dpv::CostModelSnapshot& snap) {
    cost_model_.warm(snap);
  }

  /// Sum of the per-shard scratch-arena statistics.  Call between batches:
  /// the arenas belong to in-flight shards while a serve() executes.
  dpv::ArenaStats arena_stats() const noexcept {
    dpv::ArenaStats sum;
    for (const auto& a : arenas_) {
      const dpv::ArenaStats& s = a->arena.stats();
      sum.mallocs += s.mallocs;
      sum.hits += s.hits;
      sum.round_mallocs += s.round_mallocs;
      sum.rounds += s.rounds;
      sum.live_blocks += s.live_blocks;
      sum.bytes_reserved += s.bytes_reserved;
    }
    return sum;
  }

 private:
  friend struct GenView;  // lazy builds read opts_, agg_scope_, counters

  // Per-shard scratch the worker session fills; folded into the session
  // ledger after the fork joins.
  struct ShardScratch {
    dpv::PrimCounters prims;
    StageTimes stages;
    std::uint64_t dp_groups = 0;
    std::uint64_t seq_groups = 0;
    std::uint64_t retries = 0;
    std::uint64_t seq_fallbacks = 0;
  };

  void execute_shard(const IndexGen& gen, const std::vector<Request>& batch,
                     const std::vector<Status>& admitted,
                     std::vector<Response>& responses, Clock::time_point t0,
                     std::size_t shard, std::size_t lo, std::size_t hi,
                     const std::atomic<bool>* xcancel, ShardScratch& scratch);

  /// Routes one live (kind, index) group: sequentially when the pair has
  /// no dp kernel, else down the path the cost model picks.  Feeds the
  /// model the measured cost when no fault injector is armed.
  void dispatch_group(const IndexGen& gen, const std::vector<Request>& batch,
                      std::vector<Response>& responses, RequestKind kind,
                      IndexKind index, const std::vector<std::size_t>& live,
                      std::size_t shard, const std::atomic<bool>* xcancel,
                      ShardScratch& scratch);

  /// One (kind, index) group: data-parallel attempts with retry/backoff,
  /// then the sequential settle.  `live` holds batch indexes still
  /// runnable.  Returns counters via `scratch`; when `dp_us` is non-null
  /// and a dp attempt succeeds, writes that attempt's wall-clock
  /// microseconds (marshaling included) for the cost model.
  void run_group(const IndexGen& gen, const std::vector<Request>& batch,
                 std::vector<Response>& responses, RequestKind kind,
                 IndexKind index, const std::vector<std::size_t>& live,
                 std::size_t shard, const std::atomic<bool>* xcancel,
                 ShardScratch& scratch, double* dp_us = nullptr);

  /// Element count (or the best stale-generation estimate) of the index
  /// behind `index` in `gen`; the cost model's map-density input.  Never
  /// forces a lazy rebuild.
  std::size_t index_elements(const IndexGen& gen,
                             IndexKind index) const noexcept;

  /// kCancelled / kDeadlineExpired / kOk ("runnable") for a request now.
  Status pre_status(const Request& rq,
                    const std::atomic<bool>* xcancel) const noexcept;

  /// Runs one request sequentially (host traversal); returns its status.
  Status run_sequential(const IndexGen& gen, const Request& rq,
                        Response& rsp) const;

  /// Deterministic backoff sleep before dp attempt `attempt` of `shard`.
  void backoff(std::size_t shard, std::size_t attempt) const;

  /// Swaps in `next` and advances the mount epoch; returns the new epoch.
  /// When `park` is set the replaced generation is retired on the writer
  /// side (RCU-style reclamation: the reader that unpins a generation
  /// last must never pay its index destruction); adopt-path publishes
  /// pass false because the owning engine already parked it.
  std::uint64_t publish_gen(std::shared_ptr<const IndexGen> next,
                            bool park = true);

  /// Shadow-build phase of apply_update; caller holds `update_mutex_` and
  /// the shared mount lock.
  PreparedUpdate do_prepare(const UpdateBatch& batch,
                            const UpdateOptions& opts);

  EngineOptions opts_;
  std::size_t shards_ = 1;
  std::shared_ptr<dpv::ThreadPool> pool_;
  dpv::Context shard_template_;  // serial; forked per worker session
  // Persistent per-shard scratch arenas, one per shard, each behind the
  // mutex serve() holds while a batch executes its shard.
  // unique_ptr: blocks reference their arena by address, so an arena must
  // never move.
  struct ShardArena {
    std::mutex mutex;
    dpv::Arena arena;
  };
  std::vector<std::unique_ptr<ShardArena>> arenas_;

  // The published index generation, swapped RCU-style: writers build a
  // new IndexGen and swap the pointer; readers pin it with one shared_ptr
  // copy.  gen_mutex_ guards only the pointer (a handful of instructions),
  // so publication never blocks behind an executing batch.
  std::shared_ptr<const IndexGen> gen_;
  mutable std::mutex gen_mutex_;
  // Retired generations parked until every pinned reader drains (swept on
  // each publish; at most the last one lingers until the next publish or
  // engine destruction).
  std::vector<std::shared_ptr<const IndexGen>> retired_;
  std::mutex retired_mutex_;
  // Serializes apply_update callers (two concurrent shadows would race
  // each other's publication and lose one delta).
  std::mutex update_mutex_;
  // Deterministic fault-scope coordinate for update shadow builds.
  std::atomic<std::uint64_t> update_seq_{0};
  // Lazy R-tree rebuilds happen on the (const) read path; counted here
  // and surfaced through metrics().
  mutable std::atomic<std::uint64_t> lazy_rtree_builds_{0};
  // Aggregate-annotation builds (lazy, per generation x index); the reuse
  // counterpart of the R-tree counter above.  Both count in GenView, the
  // one place lazy state materializes.
  mutable std::atomic<std::uint64_t> agg_annotation_builds_{0};

  // Scope every aggregate answer is filtered through (set_aggregate_scope;
  // default unscoped).  Written only while serving is quiesced.
  core::AggregateScope agg_scope_;

  std::atomic<bool> cancel_{false};
  std::atomic<std::uint64_t> mount_epoch_{0};
  // Counts serve() calls holding the shared mount lock; mount() asserts it
  // is zero once it holds the lock exclusively (the serialization
  // contract, made checkable).  Declared unconditionally -- only the
  // updates are NDEBUG-gated -- so the class layout does not depend on the
  // build type: a consumer compiled without NDEBUG against a Release
  // library (or vice versa) must see the same member offsets.
  mutable std::atomic<std::int64_t> debug_in_flight_{0};

  AdmissionController admission_;
  // Online dispatch estimator (internally synchronized; shards decide and
  // observe concurrently).  Outlives every mount epoch.
  dpv::CostModel cost_model_;
  // serve() holds this shared for a batch's execution; mount() holds it
  // exclusive, so index swaps serialize against in-flight batches.
  mutable std::shared_mutex mount_mutex_;

  mutable std::mutex metrics_mutex_;
  dpv::Context session_;  // serial; its counters are the session ledger
  ServeMetrics metrics_;
};

}  // namespace dps::serve
