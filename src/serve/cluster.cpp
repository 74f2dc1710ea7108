#include "serve/cluster.hpp"

#include <algorithm>
#include <condition_variable>
#include <limits>
#include <list>
#include <numeric>
#include <thread>
#include <unordered_set>
#include <utility>

#include "core/validate.hpp"
#include "serve/kinds.hpp"

namespace dps::serve {

namespace {

double us_since(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t).count();
}

/// Budget slack reserved ahead of a request's deadline: a subrequest is
/// abandoned this early so the sequential oracle settle of the missing
/// shard still fits inside the deadline.
constexpr std::chrono::microseconds kFallbackReserve{5'000};

/// Absolute wait budget for a subrequest job: the earliest request
/// deadline minus kFallbackReserve (when the deadline is nearer than the
/// reserve the full window is used), further capped by `cap` when set.
/// The epoch means "no budget: wait for the reply".
Clock::time_point job_budget(const std::vector<Request>& reqs,
                             Clock::time_point now,
                             std::chrono::microseconds cap) {
  Clock::time_point budget{};
  for (const Request& rq : reqs) {
    if (!rq.has_deadline()) continue;
    Clock::time_point t = *rq.deadline - kFallbackReserve;
    if (t <= now) t = *rq.deadline;
    if (budget.time_since_epoch().count() == 0 || t < budget) budget = t;
  }
  if (cap.count() > 0) {
    const Clock::time_point capped = now + cap;
    if (budget.time_since_epoch().count() == 0 || capped < budget) {
      budget = capped;
    }
  }
  return budget;
}

}  // namespace

ClusterMetrics& ClusterMetrics::operator+=(
    const ClusterMetrics& other) noexcept {
  batches += other.batches;
  requests += other.requests;
  ok += other.ok;
  expired += other.expired;
  cancelled += other.cancelled;
  rejected += other.rejected;
  shedded += other.shedded;
  invalid += other.invalid;
  partial += other.partial;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  cache_bypasses += other.cache_bypasses;
  routed_subrequests += other.routed_subrequests;
  knn_widened_shards += other.knn_widened_shards;
  duplicate_hits_removed += other.duplicate_hits_removed;
  inline_rounds += other.inline_rounds;
  fanout_rounds += other.fanout_rounds;
  hedges_issued += other.hedges_issued;
  hedges_won += other.hedges_won;
  subrequest_timeouts += other.subrequest_timeouts;
  replica_crashes += other.replica_crashes;
  missing_shard_answers += other.missing_shard_answers;
  degraded_fallback += other.degraded_fallback;
  breaker_open_transitions += other.breaker_open_transitions;
  breaker_close_transitions += other.breaker_close_transitions;
  breaker_half_open_probes += other.breaker_half_open_probes;
  breaker_skipped_subrequests += other.breaker_skipped_subrequests;
  updates += other.updates;
  update_inserts += other.update_inserts;
  update_deletes += other.update_deletes;
  update_failures += other.update_failures;
  compactions += other.compactions;
  latency += other.latency;
  // `cache` and `replicas` are point-in-time snapshots attached by
  // metrics(), not foldable counter sets.
  return *this;
}

/// Long-lived per-replica failure-domain state.
struct Cluster::ReplicaState {
  explicit ReplicaState(const BreakerOptions& bo) : breaker(bo) {}

  CircuitBreaker breaker;
  dpv::FaultInjector* injector = nullptr;  // replica-level chaos hook

  mutable std::mutex mutex;  // guards the ledger and counters below
  LatencyHistogram ledger;   // completed subrequest wall time (the hedge
                             // delay derives from its observed quantile)
  std::uint64_t subrequests = 0;
  std::uint64_t completed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t crashes = 0;
  std::uint64_t hedges = 0;
  std::uint64_t breaker_skips = 0;

  void count(std::uint64_t ReplicaState::*counter, std::uint64_t n = 1) {
    std::lock_guard<std::mutex> lk(mutex);
    this->*counter += n;
  }
};

/// One dispatched subrequest (primary or hedge).  Held via shared_ptr by
/// both the serving thread and the pool job, so an abandoned job can
/// outlive the batch that issued it: a late reply is dropped, not joined
/// on.
struct Cluster::SubJob {
  QueryEngine* engine = nullptr;
  std::size_t replica = 0;   // owning primary's coordinate
  bool is_primary = true;    // hedges never feed the ledger or faults
  dpv::FaultInjector* injector = nullptr;
  std::uint64_t fault_scope = 0;
  std::vector<Request> reqs;
  std::vector<Response> rsps;  // read only via usable()

  std::atomic<bool> done{false};
  std::atomic<bool> crashed{false};
  std::atomic<bool> abandoned{false};
  std::atomic<bool> cancel{false};  // per-call engine BatchControl hook
  Clock::time_point submitted{};
  Clock::time_point finished{};  // written before done (release/acquire)
  Clock::time_point budget{};    // epoch = none

  bool has_budget() const noexcept {
    return budget.time_since_epoch().count() != 0;
  }

  // Wait-loop bookkeeping; touched by the serving thread only.
  bool resolved = false;
  bool timed_out = false;
  bool lost_hedge = false;

  /// Gives up on the job: its engine batch is cancelled and a late reply
  /// dropped; `why` records the reason.
  void abandon(bool SubJob::*why) noexcept {
    cancel.store(true, std::memory_order_relaxed);
    abandoned.store(true, std::memory_order_release);
    resolved = true;
    this->*why = true;
  }

  /// True when the merge may consume this job's responses.  Excludes
  /// answers that landed after abandonment: using them would make the
  /// merge timing-dependent.
  bool usable() const noexcept {
    return resolved && !timed_out && !lost_hedge &&
           done.load(std::memory_order_acquire) &&
           !crashed.load(std::memory_order_relaxed);
  }
};

/// Completion signal shared by a round's jobs and the serving thread.
struct Cluster::Waiter {
  std::mutex mutex;
  std::condition_variable cv;
  std::uint64_t events = 0;  // completions published (or dropped early)
};

struct Cluster::RoundSlot {
  std::shared_ptr<SubJob> primary;
  std::shared_ptr<SubJob> hedge;
  bool skipped = false;        // breaker open: never dispatched
  bool here = false;           // served on the calling thread, not the pool
  bool hedge_decided = false;  // hedge fired, or ruled out for this slot

  /// The usable answer at `pos`: the primary's, else the hedge's (setting
  /// `hedged`); null when neither answered.
  const Response* answer(std::size_t pos, bool& hedged) const {
    if (skipped) return nullptr;
    if (primary && primary->usable()) return &primary->rsps[pos];
    if (!hedge || !hedge->usable()) return nullptr;
    hedged = true;
    return &hedge->rsps[pos];
  }
};

struct Cluster::Pending {
  std::size_t index = 0;  // into the batch
  ResultCache::Key key;
  bool fill_cache = false;  // missed; memoize on a healthy kOk merge
  bool hedged = false;    // a consumed answer came from a hedge
  bool degraded = false;  // a missing answer was refilled by its oracle
  struct Slot {
    std::size_t round, shard, pos;
    const Response* refill = nullptr;  // the shard oracle's, once missing
  };
  std::vector<Slot> slots;
};

Cluster::Cluster(ClusterOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cache),
      admission_(opts_.admission) {
  shards_ = opts_.shards == 0 ? 1 : opts_.shards;
  shard_lines_.assign(shards_, 0);
  shard_live_ = std::vector<std::atomic<bool>>(shards_);
  engines_.reserve(shards_);
  replica_state_.reserve(shards_);
  for (std::size_t s = 0; s < shards_; ++s) {
    EngineOptions eo = opts_.engine;
    if (s < opts_.replica_fault_injectors.size()) {
      eo.fault_injector = opts_.replica_fault_injectors[s];
    }
    engines_.push_back(std::make_unique<QueryEngine>(eo));
    auto state = std::make_unique<ReplicaState>(opts_.breaker);
    state->injector = eo.fault_injector;
    replica_state_.push_back(std::move(state));
  }
  if (opts_.hedge.enabled) {
    // Backups are the hedge targets.  They run the plain engine template:
    // they are the recovery path, so per-replica chaos hooks never apply.
    backups_.reserve(shards_);
    for (std::size_t s = 0; s < shards_; ++s) {
      backups_.push_back(std::make_unique<QueryEngine>(opts_.engine));
    }
  }
  // Every primary plus every possible hedge can run at once.  An inline
  // round never touches the pool; a forked unarmed one keeps one shard.
  dispatch_pool_ = std::make_unique<dpv::AsyncPool>(
      std::min<std::size_t>(2 * shards_ + 2, 32));
  // kappa prices the host's handoff, not this cluster's: the first
  // cluster's pool measures it once per process.
  static const double kRoundTripUs = dispatch_pool_->round_trip_us();
  fork_cost_us_ = 2.0 * kRoundTripUs;
}

Cluster::~Cluster() {
  // Dispatcher first: queued jobs are discarded and running ones joined
  // (stuck-fault jobs poll stopping()), so nothing can reference the
  // engines or mounted indexes destroyed after this.
  dispatch_pool_.reset();
}

void Cluster::mount(const std::vector<geom::Segment>& lines,
                    const ClusterMountOptions& mopts) {
  // Build outside the lock: serving stays live on the previous generation
  // while the new shard indexes assemble.  Heap storage keeps element
  // addresses stable across the swap below.
  const geom::Rect extent{0.0, 0.0, mopts.world, mopts.world};
  core::ShardedSegments sharded =
      core::shard_segments(lines, extent, shards_);
  auto built = build_slices(sharded, mopts);

  std::unique_lock<std::shared_mutex> lock(mount_mutex_);
  // Remount every replica onto the *new* storage first.  Each engine's
  // exclusive mount lock waits for that engine's in-flight serves --
  // including abandoned stragglers still draining -- so by the time the
  // old generation is destroyed (the moves below), nothing can traverse
  // it.
  auto remount = [&](QueryEngine& eng, const ShardIndexes& ix) {
    if (ix.empty) {
      eng.mount(static_cast<const core::QuadTree*>(nullptr));
      eng.mount(static_cast<const core::RTree*>(nullptr));
    } else {
      eng.mount(&ix.quad);
      eng.mount(&ix.rtree);
    }
  };
  for (std::size_t s = 0; s < shards_; ++s) {
    remount(*engines_[s], (*built)[s]);
    if (!backups_.empty()) remount(*backups_[s], (*built)[s]);
    // Range-aggregate ownership scope: each shard engine (and its backup,
    // which adopts the primary's generations and therefore must share its
    // scope) counts only hits whose owner point its footprint owns, so
    // the cluster merge folds disjoint partials.  A one-shard plan owns
    // everything: leave it unscoped.
    const core::AggregateScope scope =
        shards_ > 1
            ? core::AggregateScope{sharded.plan.footprints[s], extent}
            : core::AggregateScope{};
    engines_[s]->set_aggregate_scope(scope);
    if (!backups_.empty()) backups_[s]->set_aggregate_scope(scope);
  }
  // A base remount invalidates any mounted probe map: its shards were cut
  // by the previous plan.  Drop every replica's probe pointers first (each
  // engine's mount lock drains its in-flight serves), then the storage.
  if (probe_indexes_ != nullptr || probe_mounted_) {
    each_engine([](QueryEngine& e) { e.mount_probe(nullptr, nullptr); });
  }
  probe_indexes_.reset();
  probe_mounted_ = false;
  probe_lines_ = 0;
  probe_shard_live_.assign(shards_, 0);
  // Live-update bookkeeping restarts from the freshly mounted map.
  mount_opts_ = mopts;
  live_map_.clear();
  live_map_.reserve(lines.size());
  for (const geom::Segment& seg : lines) live_map_.emplace(seg.id, seg);
  for (std::size_t s = 0; s < shards_; ++s) {
    shard_lines_[s] = sharded.shards[s].size();
    shard_live_[s].store(shard_lines_[s] > 0, std::memory_order_release);
  }
  sharded_ = std::move(sharded);
  indexes_ = std::move(built);  // previous generation destroyed here
  mounted_ = true;
  mount_epoch_.fetch_add(1, std::memory_order_release);
  // Epoch bump under the exclusive lock: every batch admitted after this
  // point sees only the new generation, so zero stale results.
  cache_.bump_epoch();
}

void Cluster::mount_probe(const std::vector<geom::Segment>& lines) {
  // The probe shards against the *current* plan, which is only stable
  // under the mount lock -- so unlike mount(), the (one-time, static)
  // probe build runs under it.
  std::unique_lock<std::shared_mutex> lock(mount_mutex_);
  if (!mounted_) return;  // no plan to shard against
  const geom::Rect extent{0.0, 0.0, mount_opts_.world, mount_opts_.world};
  auto built = build_slices(core::shard_segments(lines, extent, shards_),
                            mount_opts_);
  const auto probe = [](QueryEngine& eng, const ShardIndexes& ix) {
    eng.mount_probe(ix.empty ? nullptr : &ix.quad,
                    ix.empty ? nullptr : &ix.rtree);
  };
  for (std::size_t s = 0; s < shards_; ++s) {
    probe(*engines_[s], (*built)[s]);
    if (!backups_.empty()) probe(*backups_[s], (*built)[s]);
  }
  probe_shard_live_.assign(shards_, 0);
  for (std::size_t s = 0; s < shards_; ++s) {
    probe_shard_live_[s] = (*built)[s].empty ? 0 : 1;
  }
  // The previous probe storage dies here, after every replica let go.
  probe_indexes_ = std::move(built);
  probe_mounted_ = !lines.empty();
  probe_lines_ = lines.size();
  // Join answers are keyed by (kind, index) alone: a probe swap must not
  // let entries computed against the old probe survive.
  cache_.bump_epoch();
}

std::unique_ptr<std::vector<Cluster::ShardIndexes>> Cluster::build_slices(
    const core::ShardedSegments& sharded,
    const ClusterMountOptions& mo) const {
  // One fork_join task per (shard, index), each on its own serial Context
  // (so every tree is byte-identical to a serial build), largest shard
  // first: the slowest build bounds the mount, so it starts first.
  auto built = std::make_unique<std::vector<ShardIndexes>>(shards_);
  std::vector<std::size_t> order(shards_);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return sharded.shards[a].size() > sharded.shards[b].size();
                   });
  core::PmrBuildOptions po = mo.quad;
  po.world = mo.world;
  dpv::fork_join(2 * shards_, [&](std::size_t task) {
    const std::vector<geom::Segment>& slice = sharded.shards[order[task / 2]];
    ShardIndexes& out = (*built)[order[task / 2]];
    if (slice.empty()) return;  // sorted last; stays `empty`
    dpv::Context ctx;
    if (task % 2 == 0) {
      out.quad = core::pmr_build(ctx, slice, po).tree;
      out.empty = false;
    } else {
      out.rtree = core::rtree_build(ctx, slice, mo.rtree).tree;
    }
  });
  return built;
}

Status Cluster::pre_status(const Request& rq) const noexcept {
  if (cancel_.load(std::memory_order_relaxed)) return Status::kCancelled;
  if (rq.has_deadline() && Clock::now() >= *rq.deadline) {
    return Status::kDeadlineExpired;
  }
  return Status::kOk;
}

void Cluster::route(Route route, const Request& rq,
                    std::vector<std::size_t>& out) const {
  if (route == Route::kNearest) {  // phase one; widening follows the reply
    const std::size_t primary = primary_knn_shard(rq.point);
    if (primary < shards_) out.push_back(primary);
    return;
  }
  for (std::size_t s = 0; s < shards_; ++s) {
    const geom::Rect& fp = sharded_.plan.footprints[s];
    // A join pair's intersection point lies in some footprint, where the
    // cloning rule placed both lines -- so the shards holding both base
    // and probe clones find every pair, and the rest can contribute none.
    const bool hit = route == Route::kWindow ? fp.intersects(rq.window)
                     : route == Route::kPoint ? fp.contains(rq.point)
                                              : probe_shard_live_[s] != 0;
    if (shard_live(s) && hit) out.push_back(s);
  }
}

std::size_t Cluster::primary_knn_shard(const geom::Point& p) const {
  std::size_t best = shards_;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < shards_; ++s) {
    if (!shard_live(s)) continue;
    const double d2 = sharded_.plan.footprints[s].distance2(p);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = s;
    }
  }
  return best;
}

std::chrono::microseconds Cluster::hedge_delay(std::size_t replica) const {
  const HedgeOptions& h = opts_.hedge;
  const ReplicaState& rs = *replica_state_[replica];
  std::lock_guard<std::mutex> lk(rs.mutex);
  if (rs.ledger.count() < h.min_samples) return h.initial_delay;
  const auto p99 = std::chrono::microseconds(
      static_cast<std::int64_t>(rs.ledger.quantile_upper_us(h.quantile)));
  return std::clamp(p99, h.min_delay, h.max_delay);
}

UpdateOptions Cluster::update_options() const {
  UpdateOptions uo;
  uo.build = mount_opts_.quad;
  uo.build.world = mount_opts_.world;
  uo.rtree = mount_opts_.rtree;
  uo.compact_after = opts_.update_compact_after;
  return uo;
}

UpdateResult Cluster::apply_update(const UpdateBatch& batch) {
  UpdateResult res;
  const auto fail = [this, &res](Status s) {
    res.status = s;
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    ++metrics_.update_failures;
    return res;
  };

  // Serialize against sibling updates; the *shared* mount lock lets
  // serve() proceed throughout while excluding a concurrent remount.
  std::lock_guard<std::mutex> up(update_mutex_);
  std::shared_lock<std::shared_mutex> mounts(mount_mutex_);
  if (!mounted_) return fail(Status::kRejected);

  // Whole-map validation at the cluster door: geometry, then id
  // collisions against the live map net of this batch's deletes.
  if (core::validate_segments(batch.inserts, mount_opts_.world).has_value()) {
    return fail(Status::kInvalidArgument);
  }
  const std::unordered_set<geom::LineId> doomed(batch.deletes.begin(),
                                                batch.deletes.end());
  std::unordered_set<geom::LineId> collide;
  collide.reserve(live_map_.size());
  for (const auto& [id, seg] : live_map_) {
    if (doomed.count(id) == 0) collide.insert(id);
  }
  if (core::validate_insert_ids(batch.inserts, collide).has_value()) {
    return fail(Status::kInvalidArgument);
  }

  // Route deltas to owning shards by the exact cloning rule `mount`
  // shards with, so an updated shard holds precisely the segments a
  // from-scratch reshard of the new map would give it.  (The one-shard
  // plan clones nothing: everything lives in shard 0.)
  const auto owns = [this](std::size_t s, const geom::Segment& seg) {
    return shards_ == 1 ||
           geom::segment_intersects_rect(seg, sharded_.plan.footprints[s]);
  };
  std::vector<std::vector<geom::Segment>> shard_inserts(shards_);
  std::vector<std::vector<geom::LineId>> shard_deletes(shards_);
  std::vector<geom::Rect> dirty;
  for (const geom::LineId id : batch.deletes) {
    const auto it = live_map_.find(id);
    if (it == live_map_.end()) {
      ++res.unknown_deletes;  // tolerated, like pmr_delete's contract
      continue;
    }
    ++res.deleted;
    dirty.push_back(it->second.bbox());
    for (std::size_t s = 0; s < shards_; ++s) {
      if (owns(s, it->second)) shard_deletes[s].push_back(id);
    }
  }
  for (const geom::Segment& seg : batch.inserts) {
    dirty.push_back(seg.bbox());
    for (std::size_t s = 0; s < shards_; ++s) {
      if (owns(s, seg)) shard_inserts[s].push_back(seg);
    }
  }
  res.inserted = batch.inserts.size();
  if (res.inserted == 0 && res.deleted == 0) {
    res.epoch = mount_epoch();
    return res;  // kOk no-op: nothing published, nothing invalidated
  }

  // Phase 1 -- prepare: build every affected replica's shadow generation.
  // Any failure abandons every shadow before anything publishes, so a
  // fault mid-update can never leave the shards disagreeing about the
  // map ("mid-swap crash" semantics).
  const UpdateOptions uo = update_options();
  struct ShardPrep {
    std::size_t shard;
    PreparedUpdate prep;
  };
  // Shadow builds fork across the affected shards by dpv::fork_join's rule;
  // engines lock independently, so the prepare costs the slowest shard's.
  std::vector<ShardPrep> preps;
  preps.reserve(shards_);
  for (std::size_t s = 0; s < shards_; ++s) {
    if (shard_inserts[s].empty() && shard_deletes[s].empty()) continue;
    preps.push_back({s, {}});
  }
  dpv::fork_join(preps.size(), [&](std::size_t i) {
    ShardPrep& sp = preps[i];
    UpdateBatch sub;
    sub.inserts = std::move(shard_inserts[sp.shard]);
    sub.deletes = std::move(shard_deletes[sp.shard]);
    sp.prep = engines_[sp.shard]->prepare_update(sub, uo);
  });
  for (const ShardPrep& sp : preps) {
    if (!sp.prep.ok()) return fail(sp.prep.status);
  }

  // Phase 2 -- publish: back-to-back RCU pointer swaps.  Readers pin a
  // generation per engine batch, so each answer is internally consistent;
  // the cross-shard publication window is only these swaps.
  std::uint64_t compactions = 0;
  for (ShardPrep& sp : preps) {
    res.compacted = res.compacted || sp.prep.compacted;
    if (sp.prep.compacted) ++compactions;
    const std::size_t s = sp.shard;
    shard_lines_[s] += sp.prep.inserted;
    shard_lines_[s] -= sp.prep.deleted;
    engines_[s]->publish_update(std::move(sp.prep));
    if (!backups_.empty()) backups_[s]->adopt_generation(*engines_[s]);
    shard_live_[s].store(shard_lines_[s] > 0, std::memory_order_release);
  }

  // Whole-map bookkeeping follows the publications.
  for (const geom::LineId id : doomed) live_map_.erase(id);
  for (const geom::Segment& seg : batch.inserts) {
    live_map_.emplace(seg.id, seg);
  }

  // Cache invalidation last: generations are already published, so a
  // racing fill is either version-rejected here or provably computed
  // against the new map.
  if (opts_.delta_cache_invalidation) {
    cache_.invalidate_delta(dirty);
  } else {
    cache_.bump_epoch();
  }

  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    ++metrics_.updates;
    metrics_.update_inserts += res.inserted;
    metrics_.update_deletes += res.deleted;
    metrics_.compactions += compactions;
  }
  res.epoch = mount_epoch_.fetch_add(1, std::memory_order_release) + 1;
  return res;
}

void Cluster::submit_job(const std::shared_ptr<SubJob>& job,
                         const std::shared_ptr<Waiter>& waiter) {
  job->submitted = Clock::now();
  dpv::AsyncPool* const pool = dispatch_pool_.get();
  dispatch_pool_->submit([job, waiter, pool] {
    if (!job->abandoned.load(std::memory_order_acquire)) {
      bool vanished = false;
      if (job->injector != nullptr) {
        const dpv::ReplicaFault rf =
            job->injector->replica_fault(job->replica, job->fault_scope);
        if (rf.kind != dpv::ReplicaFaultKind::kNone) {
          job->injector->note_replica_fault(rf.kind);
        }
        if (rf.kind == dpv::ReplicaFaultKind::kCrash) {
          job->crashed.store(true, std::memory_order_relaxed);
        } else if (rf.kind != dpv::ReplicaFaultKind::kNone) {
          // A stall delays the reply; a stuck reply never arrives.  Park
          // interruptibly: abandonment and pool shutdown must never be
          // wedged on an injected fault.
          vanished = rf.kind == dpv::ReplicaFaultKind::kStuck;
          const auto until =
              vanished ? Clock::time_point::max() : Clock::now() + rf.stall;
          while (Clock::now() < until &&
                 !job->abandoned.load(std::memory_order_acquire) &&
                 !pool->stopping()) {
            std::this_thread::sleep_for(std::chrono::microseconds{200});
          }
        }
      }
      if (vanished) return;  // stuck: dropped on the floor, no publication
      if (!job->crashed.load(std::memory_order_relaxed) &&
          !job->abandoned.load(std::memory_order_acquire)) {
        job->rsps = job->engine->serve(job->reqs, &job->cancel);
      }
      job->finished = Clock::now();
      job->done.store(true, std::memory_order_release);
    }
    std::lock_guard<std::mutex> lk(waiter->mutex);
    ++waiter->events;
    waiter->cv.notify_all();
  });
}

void Cluster::note_answered(std::size_t replica, const SubJob& job,
                            ClusterMetrics& delta) {
  ReplicaState& rs = *replica_state_[replica];
  const double wall =
      std::chrono::duration<double, std::micro>(job.finished - job.submitted)
          .count();
  {
    std::lock_guard<std::mutex> lk(rs.mutex);
    rs.ledger.record(wall);
    ++rs.completed;
  }
  if (rs.breaker.on_success()) ++delta.breaker_close_transitions;
}

void Cluster::run_round(std::vector<std::vector<Request>>& sub,
                        std::size_t round, std::uint64_t batch_seq,
                        std::vector<RoundSlot>& slots, ClusterMetrics& delta) {
  // Stage: gate every non-empty sub-batch through its replica's breaker
  // and build its primary job.  Nothing runs yet.
  const auto now0 = Clock::now();
  std::size_t routed = 0;
  std::size_t largest = shards_, most = 0;  // the largest sub-batch, its size
  bool eligible = !opts_.hedge.enabled;
  for (std::size_t s = 0; s < shards_; ++s) {
    if (sub[s].empty()) continue;
    delta.routed_subrequests += sub[s].size();
    ReplicaState& rs = *replica_state_[s];
    const CircuitBreaker::Gate gate = rs.breaker.admit(now0);
    if (gate == CircuitBreaker::Gate::kSkip) {
      // Open breaker: skip-and-degrade.  The merge settles this shard's
      // requests without ever consulting the replica.
      slots[s].skipped = true;
      delta.breaker_skipped_subrequests += sub[s].size();
      rs.count(&ReplicaState::breaker_skips, sub[s].size());
      continue;
    }
    if (gate == CircuitBreaker::Gate::kProbe) ++delta.breaker_half_open_probes;
    auto job = std::make_shared<SubJob>();
    job->engine = engines_[s].get();
    job->replica = s;
    job->injector = rs.injector;
    job->fault_scope = dpv::FaultInjector::scope(batch_seq, round, s);
    job->reqs = std::move(sub[s]);
    job->budget = job_budget(job->reqs, now0, opts_.subrequest_timeout);
    rs.count(&ReplicaState::subrequests);
    routed += job->reqs.size();
    eligible = eligible && job->injector == nullptr && !job->has_budget();
    if (job->reqs.size() > most) {
      most = job->reqs.size();
      largest = s;
    }
    slots[s].primary = std::move(job);
  }
  if (routed == 0) return;

  // Granularity control, sptl's one-constant rule: fork only when the work
  // a fork moves off this thread, c x (routed - largest), pays for its
  // handoff, kappa.  c starts at 0, so a cold cluster serves inline and
  // never probes the parallel path.  Only unarmed rounds may stay here:
  // hedges, replica faults and budgets all live in the fan-out wait loop.
  const std::size_t rest = routed - most;
  const int forced = dpv::CostModel::forced_path();
  const double c = cpu_per_sub_us_.load(std::memory_order_relaxed);
  const bool fork =
      !eligible || (forced >= 0 ? forced == static_cast<int>(dpv::CostPath::kDp)
                                : c * rest >= fork_cost_us_);
  // A forked round keeps its largest sub-batch here.  An armed round keeps
  // nothing, to stay free to fire hedges and abandon at budget; nor does a
  // forced one-shard fork.
  for (std::size_t s = 0; s < shards_; ++s) {
    slots[s].here = slots[s].primary &&
                    (!fork || (eligible && rest > 0 && s == largest));
  }
  fan_out(slots, delta);
  ++(fork ? delta.fanout_rounds : delta.inline_rounds);
}

void Cluster::fan_out(std::vector<RoundSlot>& slots, ClusterMetrics& delta) {
  const auto waiter = std::make_shared<Waiter>();
  for (RoundSlot& sl : slots) {
    if (sl.primary && !sl.here) submit_job(sl.primary, waiter);
  }
  const double cpu0 = thread_cpu_us();
  std::size_t here = 0;  // subrequests this thread served
  for (std::size_t s = 0; s < shards_; ++s) {
    if (!slots[s].here) continue;
    SubJob& job = *slots[s].primary;
    job.submitted = Clock::now();
    job.rsps = job.engine->serve(job.reqs, &job.cancel);
    job.finished = Clock::now();
    job.done.store(true, std::memory_order_relaxed);
    job.resolved = true;
    note_answered(s, job, delta);
    here += job.reqs.size();
  }
  if (here > 0) {
    // c's EMA (alpha = 1/4), seeded by its first sample.  A concurrent
    // client's racing update may drop one sample, which an EMA absorbs.
    const double sample = (thread_cpu_us() - cpu0) / static_cast<double>(here);
    const double c = cpu_per_sub_us_.load(std::memory_order_relaxed);
    cpu_per_sub_us_.store(c == 0.0 ? sample : c + 0.25 * (sample - c),
                          std::memory_order_relaxed);
  }

  // Merge-on-arrival wait loop: resolve completions as they land, fire
  // hedges at each replica's derived delay, abandon at budget.  Scans are
  // cheap (a handful of slots); the cv bounds the idle wait.
  std::uint64_t seen = 0;
  for (;;) {
    const auto now = Clock::now();
    auto next_event = Clock::time_point::max();

    for (std::size_t s = 0; s < shards_; ++s) {
      RoundSlot& sl = slots[s];
      if (!sl.primary) continue;
      SubJob& pj = *sl.primary;
      ReplicaState& rs = *replica_state_[s];

      if (!pj.resolved) {
        if (pj.done.load(std::memory_order_acquire)) {
          pj.resolved = true;
          if (pj.crashed.load(std::memory_order_relaxed)) {
            ++delta.replica_crashes;
            rs.count(&ReplicaState::crashes);
            if (rs.breaker.on_failure(now)) ++delta.breaker_open_transitions;
          } else {
            note_answered(s, pj, delta);
            if (sl.hedge && !sl.hedge->resolved) {
              // The primary answered: the hedge lost; cancel it.
              sl.hedge->abandon(&SubJob::lost_hedge);
            }
          }
        } else if (pj.has_budget() && now >= pj.budget) {
          // Out of budget: abandon, never join.  The merge settles these
          // via the shard's oracle / kPartial inside the deadline.
          pj.abandon(&SubJob::timed_out);
          ++delta.subrequest_timeouts;
          rs.count(&ReplicaState::timeouts);
          if (rs.breaker.on_failure(now)) ++delta.breaker_open_transitions;
          if (sl.hedge && !sl.hedge->resolved) {
            sl.hedge->abandon(&SubJob::timed_out);
          }
        } else if (pj.has_budget() && pj.budget < next_event) {
          next_event = pj.budget;
        }
      }

      // Hedge firing: once the primary has been slow for its replica's
      // observed-p99-derived delay -- or crashed outright -- re-issue the
      // same subrequest to the backup replica (same footprint).  One hedge
      // per slot; first kOk wins.
      if (opts_.hedge.enabled && !sl.hedge_decided) {
        const bool in_budget = !pj.has_budget() || now < pj.budget;
        const bool primary_failed = pj.resolved && !pj.usable();
        const auto fire_at = pj.submitted + hedge_delay(s);
        if (!pj.resolved && now < fire_at) {
          if (fire_at < next_event) next_event = fire_at;
        } else if ((primary_failed && in_budget) ||
                   (!pj.resolved && now >= fire_at)) {
          sl.hedge_decided = true;
          auto hedge = std::make_shared<SubJob>();
          hedge->engine = backups_[s].get();
          hedge->replica = s;
          hedge->is_primary = false;
          hedge->reqs = sl.primary->reqs;  // same footprint, same order
          hedge->budget = pj.budget;
          sl.hedge = hedge;
          ++delta.hedges_issued;
          rs.count(&ReplicaState::hedges);
          submit_job(hedge, waiter);
        } else if (pj.resolved) {
          sl.hedge_decided = true;  // answered in time: no hedge needed
        }
      }

      if (sl.hedge && !sl.hedge->resolved) {
        SubJob& hj = *sl.hedge;
        if (hj.done.load(std::memory_order_acquire)) {
          hj.resolved = true;
          if (!pj.resolved) {
            // Hedge beat the primary: cancel the loser, and count the
            // slowness as a replica failure -- it blew through its own
            // observed-p99 budget and lost the race.
            pj.abandon(&SubJob::lost_hedge);
            if (rs.breaker.on_failure(now)) ++delta.breaker_open_transitions;
          }
        } else if (hj.has_budget() && now >= hj.budget) {
          hj.abandon(&SubJob::timed_out);
        } else if (hj.has_budget() && hj.budget < next_event) {
          next_event = hj.budget;
        }
      }
    }

    // Completion is derived from the post-scan state, never accumulated
    // mid-scan: the hedge-win block above resolves a primary that the
    // primary block of the *same pass* already scanned as pending, and a
    // flag frozen at scan order would read `false` here.  With the stuck
    // primary abandoned -- it exits without ever publishing an event --
    // the unbounded wait below would then never be signalled again and
    // the batch would wedge forever.
    bool all_resolved = true;
    for (std::size_t s = 0; s < shards_; ++s) {
      const RoundSlot& sl = slots[s];
      if (!sl.primary) continue;
      if (!sl.primary->resolved || (sl.hedge && !sl.hedge->resolved)) {
        all_resolved = false;
        break;
      }
    }
    if (all_resolved) return;

    std::unique_lock<std::mutex> lk(waiter->mutex);
    if (waiter->events != seen) {
      seen = waiter->events;
      continue;  // a completion landed since the scan; rescan immediately
    }
    if (next_event == Clock::time_point::max()) {
      waiter->cv.wait(lk);
    } else {
      waiter->cv.wait_until(lk, next_event);
    }
    seen = waiter->events;
  }
}

std::vector<Response> Cluster::serve(const std::vector<Request>& batch) {
  const auto t0 = Clock::now();
  const std::size_t n = batch.size();
  std::vector<Response> responses(n);

  ClusterMetrics delta;
  delta.batches = 1;
  delta.requests = n;

  // Stamp at settle time: a cache hit or gate rejection records its own
  // (short) latency, not the whole batch's wall time.
  auto settle = [&](std::size_t i, Status s) {
    responses[i].status = s;
    responses[i].latency_us = us_since(t0);
  };

  // Geometry gate before admission, like the engine.
  std::vector<Status> gate(n, Status::kOk);
  std::size_t valid = 0;
  Priority priority = Priority::kLow;
  for (std::size_t i = 0; i < n; ++i) {
    gate[i] = validate_request(batch[i]);
    if (gate[i] == Status::kOk) {
      ++valid;
      priority = std::max(priority, batch[i].priority);
    }
  }

  bool executed = false;
  if (valid > 0) {
    // RAII admission: the token and budget release on every exit path.
    AdmissionGuard admitted(admission_, valid, priority);
    if (!admitted.admitted()) {
      for (std::size_t i = 0; i < n; ++i) {
        if (gate[i] == Status::kOk) gate[i] = Status::kShedded;
      }
    } else {
      executed = true;
      const std::uint64_t batch_seq =
          batch_seq_.fetch_add(1, std::memory_order_relaxed);
      std::shared_lock<std::shared_mutex> mounts(mount_mutex_);
      // Version fence for cache fills: a concurrent apply_update bumps the
      // cache version after publishing its generations, so any fill
      // guarded by a version captured *before* that bump -- i.e. any fill
      // that might carry a pre-update answer -- is rejected instead of
      // resurrecting stale results the invalidation sweep already judged.
      const std::uint64_t cache_version = cache_.version();

      // Pass 1: settle dead/unmounted requests, consult the cache, and
      // route the rest into per-shard sub-batches (k-nearest to its
      // nearest-footprint shard only; the widening round follows).
      std::vector<Pending> pending;
      std::vector<std::vector<Request>> round1(shards_);
      std::vector<std::size_t> targets;
      for (std::size_t i = 0; i < n; ++i) {
        const Request& rq = batch[i];
        Status s = gate[i] != Status::kOk ? gate[i] : pre_status(rq);
        if (s == Status::kOk && !mounted_) s = Status::kRejected;
        // Probe-map gate at the cluster door, before the cache: a join with
        // no (or an empty) probe mounted is a caller error, same status the
        // engines would settle shard-locally.
        if (s == Status::kOk && kind_ops(rq.kind).needs_probe &&
            core::validate_probe_map(probe_mounted_, probe_lines_)) {
          s = Status::kInvalidArgument;
        }
        if (s != Status::kOk) {
          settle(i, s);
          continue;
        }
        const KindOps& ops = kind_ops(rq.kind);

        Pending p;
        p.index = i;
        if (rq.bypass_cache || !cache_.enabled()) {
          if (rq.bypass_cache) ++delta.cache_bypasses;
        } else {
          p.key = ResultCache::canonical_key(rq);
          if (cache_.lookup(p.key, responses[i])) {
            ++delta.cache_hits;
            settle(i, responses[i].status);
            continue;
          }
          ++delta.cache_misses;
          p.fill_cache = true;
        }

        targets.clear();
        route(ops.route, rq, targets);
        for (const std::size_t shard : targets) {
          p.slots.push_back({0, shard, round1[shard].size()});
          round1[shard].push_back(rq);
        }
        pending.push_back(std::move(p));
      }
      std::vector<RoundSlot> r1(shards_);
      std::vector<RoundSlot> r2(shards_);
      run_round(round1, 0, batch_seq, r1, delta);

      // Degraded settle: a missing (round, shard) answer is refilled by
      // that shard's sequential oracle over its own pinned generation --
      // exact and update-aware, so the refill merges like a healthy part.
      // It never goes through a dispatch job, where replica faults live.
      // A request already past its deadline (or cancelled) refills with
      // that status instead, and an oracle that cannot answer refills
      // kRejected; the merge settles either as the request's status.
      std::list<Response> refills;  // stable addresses for Slot::refill
      auto refill = [&](Pending& p, Pending::Slot& slot) {
        const Request& rq = batch[p.index];
        Response& r = refills.emplace_back();
        r.status = pre_status(rq);
        if (r.status == Status::kOk) {
          p.degraded = true;
          engines_[slot.shard]->run_oracle(rq, r);
        }
        ++delta.missing_shard_answers;
        slot.refill = &r;
        return slot.refill;
      };
      auto answer = [&](const Pending::Slot& slot, bool& hedged) {
        return slot.refill != nullptr
                   ? slot.refill
                   : (slot.round == 0 ? r1 : r2)[slot.shard].answer(slot.pos,
                                                                    hedged);
      };

      // Pass 2 (k-nearest only): widen to every shard whose footprint
      // MINDIST beats -- or ties, so equal-distance answers are never
      // pruned -- the primary shard's running kth-best bound.  A missing
      // primary is refilled first, so the bound stays exact (an opted-in
      // request leaves it missing and settles kPartial in the merge).
      std::vector<std::vector<Request>> round2(shards_);
      for (Pending& p : pending) {
        const Request& rq = batch[p.index];
        if (kind_ops(rq.kind).route != Route::kNearest || p.slots.empty()) {
          continue;
        }
        const std::size_t home = p.slots.front().shard;
        const Response* first = answer(p.slots.front(), p.hedged);
        if (first == nullptr && !rq.allow_partial) {
          first = refill(p, p.slots.front());
        }
        // Missing or not kOk: settles in the merge.
        if (first == nullptr || first->status != Status::kOk) continue;
        const double bound =
            first->neighbors.size() >= rq.k
                ? first->neighbors.back().distance2
                : std::numeric_limits<double>::infinity();
        for (std::size_t s = 0; s < shards_; ++s) {
          if (s == home || !shard_live(s)) continue;
          if (sharded_.plan.footprints[s].distance2(rq.point) <= bound) {
            p.slots.push_back({1, s, round2[s].size()});
            round2[s].push_back(rq);
            ++delta.knn_widened_shards;
          }
        }
      }
      run_round(round2, 1, batch_seq, r2, delta);

      // Pass 3: merge.  Healthy and refilled shard answers merge exactly;
      // a request that opted in through allow_partial settles kPartial on
      // the surviving answers instead of refilling.
      for (Pending& p : pending) {
        const Request& rq = batch[p.index];
        const KindOps& ops = kind_ops(rq.kind);
        Response& rsp = responses[p.index];
        bool hedged = p.hedged;
        std::size_t missing = 0;
        Status dead = Status::kOk;
        std::vector<const Response*> parts;
        parts.reserve(p.slots.size());
        for (Pending::Slot& slot : p.slots) {
          const Response* r = answer(slot, hedged);
          if (r == nullptr && !rq.allow_partial) r = refill(p, slot);
          if (r == nullptr) {
            ++missing;
          } else if (r->status != Status::kOk) {
            // A terminal per-request status (deadline expired inside the
            // engine or before the refill, cancellation, an oracle that
            // cannot answer): the request's own condition.
            if (dead == Status::kOk) dead = r->status;
          } else {
            parts.push_back(r);
          }
        }
        if (p.degraded) ++delta.degraded_fallback;

        // Until one of the outcomes below writes it, `rsp` holds no
        // payload (a cache miss leaves it untouched), so settling with a
        // non-kOk status needs no clearing.

        if (dead != Status::kOk) {
          settle(p.index, dead);
          continue;
        }
        if (missing > 0) {
          // Opted-in degradation: the surviving shards' exactly-merged
          // hits.  Never cached (only the healthy path fills).
          delta.missing_shard_answers += missing;
          delta.duplicate_hits_removed += ops.merge(rq, parts, rsp);
          rsp.missing_shards = static_cast<std::uint32_t>(missing);
          settle(p.index, Status::kPartial);
          continue;
        }
        delta.duplicate_hits_removed += ops.merge(rq, parts, rsp);
        settle(p.index, Status::kOk);
        // Degraded answers never fill the cache: a cache serving traffic
        // for an open breaker must only hold answers the healthy merge
        // path produced.
        if (p.degraded) continue;
        if (hedged) ++delta.hedges_won;
        if (p.fill_cache) cache_.insert(p.key, rsp, cache_version);
      }
    }
  }
  if (!executed) {
    for (std::size_t i = 0; i < n; ++i) settle(i, gate[i]);
  }

  for (std::size_t i = 0; i < n; ++i) {
    switch (responses[i].status) {
      case Status::kOk: ++delta.ok; break;
      case Status::kDeadlineExpired: ++delta.expired; break;
      case Status::kCancelled: ++delta.cancelled; break;
      case Status::kRejected: ++delta.rejected; break;
      case Status::kShedded: ++delta.shedded; break;
      case Status::kInvalidArgument: ++delta.invalid; break;
      case Status::kPartial: ++delta.partial; break;
    }
    delta.latency.record(responses[i].latency_us);
  }
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    metrics_ += delta;
  }
  return responses;
}

template <class F>
void Cluster::each_engine(F f) const {
  for (const auto& e : engines_) f(*e);
  for (const auto& e : backups_) f(*e);
}

void Cluster::cancel_all() noexcept {
  cancel_.store(true, std::memory_order_relaxed);
  each_engine([](QueryEngine& e) { e.cancel_all(); });
}

void Cluster::reset_cancel() noexcept {
  cancel_.store(false, std::memory_order_relaxed);
  each_engine([](QueryEngine& e) { e.reset_cancel(); });
}

ClusterMetrics Cluster::metrics() const {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  ClusterMetrics out = metrics_;
  out.cache = cache_.stats();
  out.replicas.clear();
  out.replicas.reserve(shards_);
  for (std::size_t s = 0; s < shards_; ++s) {
    const ReplicaState& rs = *replica_state_[s];
    ReplicaHealth h;
    h.replica = s;
    {
      std::lock_guard<std::mutex> lk(rs.mutex);
      h.subrequests = rs.subrequests;
      h.completed = rs.completed;
      h.timeouts = rs.timeouts;
      h.crashes = rs.crashes;
      h.hedges = rs.hedges;
      h.breaker_skips = rs.breaker_skips;
      h.p99_us = rs.ledger.quantile_upper_us(0.99);
    }
    h.breaker_state = rs.breaker.state();
    h.consecutive_failures = rs.breaker.consecutive_failures();
    out.replicas.push_back(h);
  }
  return out;
}

void Cluster::reset_metrics() {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  metrics_ = ClusterMetrics{};
}

dpv::CostModelSnapshot Cluster::share_cost_models() {
  dpv::CostModelSnapshot merged;
  each_engine([&merged](QueryEngine& e) {
    dpv::merge_snapshot(merged, e.cost_model_snapshot());
  });
  each_engine([&merged](QueryEngine& e) { e.warm_cost_model(merged); });
  return merged;
}

}  // namespace dps::serve
