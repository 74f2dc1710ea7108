#include "serve/engine.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <thread>
#include <unordered_set>
#include <utility>

#include "core/pmr_update.hpp"
#include "core/validate.hpp"
#include "serve/kinds.hpp"

namespace dps::serve {

namespace {

double ms_since(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

double us_since(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t).count();
}

/// The generation's annotations for `tree`, built on first use and rebuilt
/// when the engine's scope no longer matches the stored one.
template <class Ann, class Tree>
const Ann& annotations(const LazySlot<Ann>& slot, const IndexGen& gen,
                       const Tree& tree, const core::AggregateScope& scope,
                       std::atomic<std::uint64_t>& builds) {
  return slot.get(
      gen.lazy_mutex, builds,
      [&] { return core::build_agg_annotations(tree, scope); },
      [&](const Ann& a) { return a.scope == scope; });
}

}  // namespace

bool IndexGen::has(IndexKind index) const noexcept {
  if (index == IndexKind::kQuadTree) return quad != nullptr;
  return rtree.ready() != nullptr || rtree_stale;
}

const core::RTree* GenView::rtree() const {
  if (!gen.rtree_stale) return gen.rtree.ready();
  return &gen.rtree.get(gen.lazy_mutex, engine.lazy_rtree_builds_, [this] {
    assert(gen.lines != nullptr && "stale R-tree requires the line store");
    dpv::Context ctx;  // serial; no faults -- the rebuild must not abort
    ctx.set_grain(engine.opts_.grain);
    return core::rtree_build(ctx, *gen.lines, gen.rtree_opts).tree;
  });
}

const core::QuadAggAnnotations& GenView::agg(const core::QuadTree& t) const {
  return annotations(gen.quad_agg, gen, t, engine.agg_scope_,
                     engine.agg_annotation_builds_);
}
const core::RTreeAggAnnotations& GenView::agg(const core::RTree& t) const {
  return annotations(gen.rtree_agg, gen, t, engine.agg_scope_,
                     engine.agg_annotation_builds_);
}

std::string_view status_name(Status s) noexcept {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kDeadlineExpired: return "deadline-expired";
    case Status::kCancelled: return "cancelled";
    case Status::kRejected: return "rejected";
    case Status::kShedded: return "shedded";
    case Status::kInvalidArgument: return "invalid-argument";
    case Status::kPartial: return "partial";
  }
  return "unknown";
}

QueryEngine::QueryEngine(EngineOptions opts)
    : opts_(opts),
      pool_(std::make_shared<dpv::ThreadPool>(opts.threads)),
      admission_(opts.admission),
      cost_model_([&opts] {
        // One knob: `min_dp_batch` is the model's bootstrap prior.
        dpv::CostModelOptions co = opts.cost_model;
        co.bootstrap_min_dp_batch = opts.min_dp_batch;
        return co;
      }()) {
  shards_ = opts_.shards == 0 ? pool_->size() : opts_.shards;
  if (shards_ == 0) shards_ = 1;
  shard_template_.set_grain(opts_.grain);
  arenas_.reserve(shards_);
  for (std::size_t s = 0; s < shards_; ++s) {
    arenas_.push_back(std::make_unique<ShardArena>());
  }
  if (opts_.fault_injector != nullptr) {
    pool_->set_fault_injector(opts_.fault_injector);
  }
  gen_ = std::make_shared<IndexGen>();
}

QueryEngine::~QueryEngine() = default;

std::shared_ptr<const IndexGen> QueryEngine::snapshot_gen() const {
  std::lock_guard<std::mutex> lock(gen_mutex_);
  return gen_;
}

std::uint64_t QueryEngine::publish_gen(std::shared_ptr<const IndexGen> next,
                                       bool park) {
  std::shared_ptr<const IndexGen> old;
  {
    std::lock_guard<std::mutex> lock(gen_mutex_);
    old = std::move(gen_);
    gen_ = std::move(next);
  }
  {
    // Writer-side reclamation: parking keeps the replaced generation's
    // refcount above any reader's pin, so unpinning is always a cheap
    // decrement and index destruction happens here, on the publish path.
    // A shared (adopted) generation is parked only by the engine that
    // built it -- a second park would hold it forever.
    std::lock_guard<std::mutex> lock(retired_mutex_);
    if (park && old != nullptr) retired_.push_back(std::move(old));
    std::erase_if(retired_, [](const std::shared_ptr<const IndexGen>& g) {
      return g.use_count() == 1;
    });
  }
  return mount_epoch_.fetch_add(1, std::memory_order_release) + 1;
}

void QueryEngine::mount(const core::QuadTree* tree) {
  std::unique_lock<std::shared_mutex> lock(mount_mutex_);
  assert(debug_in_flight_.load(std::memory_order_acquire) == 0 &&
         "mount must be serialized against in-flight serve() batches");
  auto next = snapshot_gen()->clone();
  // A fresh borrowed quadtree supersedes everything the update path
  // derived from the old one: owned storage, the surviving-lines cache,
  // the accumulated delta debt, and the annotations of the old tree.
  next->quad = borrow(tree);
  next->lines.reset();
  next->deltas = 0;
  next->quad_agg.set(nullptr);
  publish_gen(std::move(next));
}

void QueryEngine::mount(const core::RTree* tree) {
  std::unique_lock<std::shared_mutex> lock(mount_mutex_);
  assert(debug_in_flight_.load(std::memory_order_acquire) == 0 &&
         "mount must be serialized against in-flight serve() batches");
  auto next = snapshot_gen()->clone();
  next->rtree.set(borrow(tree));
  next->rtree_stale = false;  // the explicit mount replaces any lazy rebuild
  next->rtree_agg.set(nullptr);
  publish_gen(std::move(next));
}

void QueryEngine::mount_probe(const core::QuadTree* quad,
                              const core::RTree* rtree) {
  std::unique_lock<std::shared_mutex> lock(mount_mutex_);
  assert(debug_in_flight_.load(std::memory_order_acquire) == 0 &&
         "mount_probe must be serialized against in-flight serve() batches");
  auto next = snapshot_gen()->clone();
  next->probe_quad = quad;
  next->probe_rtree = rtree;
  publish_gen(std::move(next));
}

void QueryEngine::set_aggregate_scope(const core::AggregateScope& scope) {
  std::unique_lock<std::shared_mutex> lock(mount_mutex_);
  assert(debug_in_flight_.load(std::memory_order_acquire) == 0 &&
         "set_aggregate_scope must be serialized against serve() batches");
  // No generation swap: the resolve path compares each annotation's stored
  // scope against this and rebuilds lazily on mismatch.
  agg_scope_ = scope;
}

void QueryEngine::adopt_generation(const QueryEngine& from) {
  std::unique_lock<std::shared_mutex> lock(mount_mutex_);
  assert(debug_in_flight_.load(std::memory_order_acquire) == 0 &&
         "adopt_generation must be serialized against in-flight batches");
  publish_gen(from.snapshot_gen(), /*park=*/false);
}

bool QueryEngine::mounted_index(IndexKind index) const {
  return snapshot_gen()->has(index);
}

PreparedUpdate QueryEngine::do_prepare(const UpdateBatch& batch,
                                       const UpdateOptions& opts) {
  PreparedUpdate out;
  const auto base = snapshot_gen();
  const auto fail = [&](Status s) {
    out.status = s;
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    ++metrics_.update_failures;
    return std::move(out);
  };

  if (core::validate_segments(batch.inserts, opts.build.world).has_value()) {
    return fail(Status::kInvalidArgument);
  }

  // The generation's surviving lines: the update-path store when present,
  // otherwise recovered from the mounted quadtree's q-edges (clone
  // replicates whole segments, so dedup-by-id restores the original map).
  std::vector<geom::Segment> live;
  if (base->lines != nullptr) {
    live = *base->lines;
  } else if (base->quad != nullptr) {
    std::unordered_set<geom::LineId> seen;
    seen.reserve(base->quad->num_qedges());
    for (const geom::Segment& e : base->quad->edges()) {
      if (seen.insert(e.id).second) live.push_back(e);
    }
  }

  std::unordered_set<geom::LineId> live_ids;
  live_ids.reserve(live.size());
  for (const geom::Segment& s : live) live_ids.insert(s.id);
  const std::unordered_set<geom::LineId> doomed(batch.deletes.begin(),
                                                batch.deletes.end());

  // Inserts may not collide with lines that survive this batch's deletes
  // (delete + reinsert of an id in one batch is legal) or with each other.
  std::unordered_set<geom::LineId> collide = live_ids;
  for (const geom::LineId id : doomed) collide.erase(id);
  if (core::validate_insert_ids(batch.inserts, collide).has_value()) {
    return fail(Status::kInvalidArgument);
  }

  for (const geom::LineId id : doomed) out.deleted += live_ids.count(id);
  out.unknown_deletes = doomed.size() - out.deleted;
  out.inserted = batch.inserts.size();
  if (out.inserted == 0 && out.deleted == 0) {
    return out;  // kOk, gen = null: a no-op publishes nothing
  }

  const bool fresh = base->quad == nullptr || base->quad->num_nodes() == 0;
  const bool compact =
      !fresh && base->deltas + batch.size() > opts.compact_after;

  auto next_lines = std::make_shared<std::vector<geom::Segment>>();
  next_lines->reserve(live.size() - out.deleted + batch.inserts.size());
  for (const geom::Segment& s : live) {
    if (doomed.count(s.id) == 0) next_lines->push_back(s);
  }
  next_lines->insert(next_lines->end(), batch.inserts.begin(),
                     batch.inserts.end());

  // Shadow build, chaos-visible like any shard attempt: scope coordinate =
  // (update sequence, attempt 0, the update tag).  The build pipelines do
  // not poll faults mid-flight, so a latched fault is checked after the
  // build and the whole shadow is abandoned -- the "crash" happens before
  // publication and readers never see a torn generation.
  dpv::Context ctx = shard_template_.fork_serial();
  const std::uint64_t seq =
      update_seq_.fetch_add(1, std::memory_order_relaxed);
  if (opts_.fault_injector != nullptr) {
    ctx.arm_fault_injection(
        opts_.fault_injector,
        dpv::FaultInjector::scope(seq, 0, 0xD17Aull /* delta */));
  }

  auto next = std::make_shared<IndexGen>();
  next->lines = std::move(next_lines);
  next->quad_opts = opts.build;
  next->rtree_opts = opts.rtree;
  // The R-tree has no update path: an updated generation keeps the base's
  // capability as *stale* (lazily rebuilt on first use), and a generation
  // grown from empty always gets one.
  next->rtree_stale = fresh || base->has(IndexKind::kRTree);
  next->deltas = fresh || compact ? 0 : base->deltas + batch.size();
  // The probe map is an independent operand of the join; updating the
  // base never detaches it.
  next->probe_quad = base->probe_quad;
  next->probe_rtree = base->probe_rtree;
  // Two independent tasks: the PMR delta, and warming the stale R-tree
  // from the new line set while the generation is still a private shadow
  // -- the update thread absorbs the rebuild so the first reader after
  // the swap never blocks on the lazy mutex.
  const GenView view{*next, *this};
  core::QuadBuildResult built;
  dpv::fork_join(2, [&](std::size_t task) {
    if (task == 1) {
      view.rtree();
    } else if (fresh || compact) {
      built = core::pmr_build(ctx, *next->lines, opts.build);
    } else if (batch.deletes.empty()) {
      built = core::pmr_insert(ctx, *base->quad, batch.inserts, opts.build);
    } else {
      built = core::pmr_delete(ctx, *base->quad, batch.deletes, opts.build);
      if (!batch.inserts.empty()) {
        built = core::pmr_insert(ctx, built.tree, batch.inserts, opts.build);
      }
    }
  });
  out.compacted = compact;

  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    session_.merge_counters(ctx.counters());  // failed attempts worked too
  }

  if (ctx.fault_pending()) return fail(Status::kRejected);

  next->quad = std::make_shared<const core::QuadTree>(std::move(built.tree));
  // Warm the aggregate annotations only where the base had them: warming
  // follows observed aggregate traffic, it does not anticipate it.
  const core::RTree* rtree = view.rtree();
  if (base->quad_agg.ready() != nullptr) view.agg(*next->quad);
  if (base->rtree_agg.ready() != nullptr && rtree) view.agg(*rtree);
  out.gen = std::move(next);
  return out;
}

PreparedUpdate QueryEngine::prepare_update(const UpdateBatch& batch,
                                           const UpdateOptions& opts) {
  std::lock_guard<std::mutex> up(update_mutex_);
  std::shared_lock<std::shared_mutex> mounts(mount_mutex_);
  return do_prepare(batch, opts);
}

std::uint64_t QueryEngine::publish_update(PreparedUpdate&& prepared) {
  if (!prepared.ok() || prepared.gen == nullptr) return mount_epoch();
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    ++metrics_.updates;
    metrics_.update_inserts += prepared.inserted;
    metrics_.update_deletes += prepared.deleted;
    if (prepared.compacted) ++metrics_.compactions;
  }
  return publish_gen(std::move(prepared.gen));
}

UpdateResult QueryEngine::apply_update(const UpdateBatch& batch,
                                       const UpdateOptions& opts) {
  // Serialize against sibling updates; hold the mount lock *shared* so
  // reads never block on an update while a concurrent mount() still waits
  // for the whole operation.
  std::lock_guard<std::mutex> up(update_mutex_);
  std::shared_lock<std::shared_mutex> mounts(mount_mutex_);
  PreparedUpdate p = do_prepare(batch, opts);
  UpdateResult res{p.status, 0,         p.compacted,
                   p.inserted, p.deleted, p.unknown_deletes};
  res.epoch = publish_update(std::move(p));  // no-op unless it built one
  return res;
}

Status QueryEngine::pre_status(const Request& rq,
                               const std::atomic<bool>* xcancel) const noexcept {
  if (cancel_.load(std::memory_order_relaxed)) return Status::kCancelled;
  if (xcancel != nullptr && xcancel->load(std::memory_order_relaxed)) {
    return Status::kCancelled;
  }
  if (rq.has_deadline() && Clock::now() >= *rq.deadline) {
    return Status::kDeadlineExpired;
  }
  return Status::kOk;
}

Status QueryEngine::run_sequential(const IndexGen& gen, const Request& rq,
                                   Response& rsp) const {
  return kind_ops(rq.kind).seq(rq.index)(GenView{gen, *this}, rq, rsp);
}

Status QueryEngine::run_oracle(const Request& rq, Response& rsp) const {
  const auto gen = snapshot_gen();
  rsp.status = support_status(*gen, rq.kind, rq.index);
  if (rsp.status == Status::kOk) rsp.status = run_sequential(*gen, rq, rsp);
  return rsp.status;
}

std::string QueryEngine::quad_fingerprint() const {
  const auto gen = snapshot_gen();
  return gen->quad != nullptr ? gen->quad->fingerprint() : std::string();
}

void QueryEngine::backoff(std::size_t shard, std::size_t attempt) const {
  if (opts_.backoff_base.count() <= 0 || attempt == 0) return;
  const double steps = static_cast<double>(std::uint64_t{1} << (attempt - 1));
  // Deterministic jitter in [1 - j, 1 + j): replays identically for a
  // given (retry_seed, shard, attempt), like every other chaos decision.
  const std::uint64_t u = dpv::mix64(
      opts_.retry_seed ^ dpv::FaultInjector::scope(shard, attempt, 0xB0FFull));
  const double unit = static_cast<double>(u >> 11) * 0x1.0p-53;
  const double jitter = 1.0 + opts_.backoff_jitter * (2.0 * unit - 1.0);
  const double us =
      static_cast<double>(opts_.backoff_base.count()) * steps * jitter;
  std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(us));
}

std::size_t QueryEngine::index_elements(const IndexGen& gen,
                                        IndexKind index) const noexcept {
  if (index == IndexKind::kQuadTree) {
    return gen.quad != nullptr ? gen.quad->num_qedges() : 0;
  }
  // A stale R-tree not yet materialized: estimate density from what it
  // will be rebuilt from rather than forcing the rebuild on this path.
  if (const core::RTree* r = gen.rtree.ready()) return r->entries().size();
  return gen.rtree_stale && gen.lines != nullptr ? gen.lines->size() : 0;
}

void QueryEngine::run_group(const IndexGen& gen,
                            const std::vector<Request>& batch,
                            std::vector<Response>& responses, RequestKind kind,
                            IndexKind index,
                            const std::vector<std::size_t>& live_in,
                            std::size_t shard,
                            const std::atomic<bool>* xcancel,
                            ShardScratch& scratch, double* dp_us) {
  dpv::FaultInjector* const inj = opts_.fault_injector;
  std::vector<std::size_t> live = live_in;
  const std::size_t g = group_id(kind, index);

  bool control_abort = false;  // cancel / deadline fired mid-pipeline
  for (std::size_t attempt = 0; attempt <= opts_.max_retries; ++attempt) {
    if (attempt > 0) {
      backoff(shard, attempt);
      // Deadlines may have fired during the backoff; settle the dead so
      // one slow retry cannot void its group-mates.
      std::erase_if(live, [&](std::size_t i) {
        responses[i].status = pre_status(batch[i], xcancel);
        return responses[i].status != Status::kOk;
      });
      if (live.empty()) return;
    }

    const std::uint64_t scope = dpv::FaultInjector::scope(shard, attempt, g);
    if (inj != nullptr && inj->shard_poisoned(scope)) {
      // A poisoned shard attempt fails before any primitive runs.
      inj->note_shard_poisoned();
      ++scratch.retries;
      continue;
    }

    // Attempt cost (marshaling included) feeds the dispatch cost model
    // when the attempt lands, priced in thread CPU time so peer-lane
    // preemption cannot skew the coefficients.
    const double tattempt = thread_cpu_us();
    dpv::Context ctx = shard_template_.fork_serial();
    if (inj != nullptr) ctx.arm_fault_injection(inj, scope);
    // Persistent per-shard scratch arena: the pipeline's round scope
    // recycles the previous serve()'s buffers, so steady-state groups of
    // stable shape allocate nothing.  serve() holds the arena's mutex for
    // the whole shard, so concurrent batches never share it.
    ctx.set_arena(&arenas_[shard]->arena);

    // Earliest deadline in the group arms the pipeline's control; the
    // engine kill switch is polled through the same hook.
    core::BatchControl control;
    control.cancel = &cancel_;
    control.cancel2 = xcancel;
    for (const std::size_t i : live) {
      if (batch[i].has_deadline() &&
          (!control.has_deadline() || *batch[i].deadline < control.deadline)) {
        control.deadline = *batch[i].deadline;
      }
    }

    const bool pipeline_ok = kind_ops(kind).dp(index)(
        ctx, GenView{gen, *this}, batch, live, control, responses);
    // Failed attempts did real primitive work; the ledger records it.
    scratch.prims += ctx.counters();

    if (pipeline_ok) {
      if (dp_us != nullptr) *dp_us = thread_cpu_us() - tattempt;
      ++scratch.dp_groups;
      return;
    }
    if (!ctx.fault_pending()) {
      // Cancel / deadline abort: no amount of retrying helps, settle
      // sequentially now (still-live requests keep their answers).
      control_abort = true;
      break;
    }
    ++scratch.retries;  // fault-aborted attempt; backoff then try again
  }

  // Data-parallel attempts exhausted (or a control abort): the sequential
  // path is fault-free by construction, so answers stay correct under any
  // fault schedule.
  if (!control_abort) ++scratch.seq_fallbacks;
  ++scratch.seq_groups;
  for (const std::size_t i : live) {
    const Status s = pre_status(batch[i], xcancel);
    responses[i].status =
        s == Status::kOk ? run_sequential(gen, batch[i], responses[i]) : s;
  }
}

void QueryEngine::dispatch_group(const IndexGen& gen,
                                 const std::vector<Request>& batch,
                                 std::vector<Response>& responses,
                                 RequestKind kind, IndexKind index,
                                 const std::vector<std::size_t>& live,
                                 std::size_t shard,
                                 const std::atomic<bool>* xcancel,
                                 ShardScratch& scratch) {
  // Sequential sweep; returns true when every request ran.
  const auto sweep = [&] {
    ++scratch.seq_groups;
    bool clean = true;
    for (const std::size_t i : live) {
      const Status s = pre_status(batch[i], xcancel);
      responses[i].status =
          s == Status::kOk ? run_sequential(gen, batch[i], responses[i]) : s;
      clean = clean && s == Status::kOk;
    }
    return clean;
  };

  // No dp kernel: the pair is served sequentially and never priced.
  const KindOps& ops = kind_ops(kind);
  if (ops.dp(index) == nullptr) {
    sweep();
    return;
  }
  // A one-computation group (join: the mounted maps carry the whole
  // payload) gives the group-size cost model nothing to price: run the
  // attempt chain directly and keep the model untrained on it.
  if (ops.one_per_group) {
    run_group(gen, batch, responses, kind, index, live, shard, xcancel,
              scratch);
    return;
  }

  // Chaos runs stall lanes and abort attempts; their wall-clocks would
  // poison the estimator, so the model only learns from clean engines.
  const bool observe = opts_.fault_injector == nullptr;
  const dpv::GroupShape shape{static_cast<int>(kind), static_cast<int>(index),
                              live.size(), index_elements(gen, index)};
  if (cost_model_.decide(shape).use_dp) {
    double dp_us = -1.0;
    run_group(gen, batch, responses, kind, index, live, shard, xcancel,
              scratch, &dp_us);
    if (observe && dp_us >= 0.0) {
      cost_model_.observe(shape, dpv::CostPath::kDp, dp_us);
    }
    return;
  }
  // A clean sweep (every request ran) is a measurement.
  const double t = thread_cpu_us();
  if (sweep() && observe) {
    cost_model_.observe(shape, dpv::CostPath::kSeq, thread_cpu_us() - t);
  }
}

void QueryEngine::execute_shard(const IndexGen& gen,
                                const std::vector<Request>& batch,
                                const std::vector<Status>& admitted,
                                std::vector<Response>& responses,
                                Clock::time_point t0, std::size_t shard,
                                std::size_t lo, std::size_t hi,
                                const std::atomic<bool>* xcancel,
                                ShardScratch& scratch) {
  // Regroup this shard's slice by (kind, index): each group is one batch
  // pipeline invocation (or one sequential sweep).  Requests the gate
  // already settled (validation) pass through with their gate status.
  const auto tshard = Clock::now();
  std::array<std::vector<std::size_t>, kNumKinds * kNumIndexes> groups;
  for (std::size_t i = lo; i < hi; ++i) {
    if (admitted[i] != Status::kOk) {
      responses[i].status = admitted[i];
      responses[i].latency_us = us_since(t0);
      continue;
    }
    groups[group_id(batch[i].kind, batch[i].index)].push_back(i);
  }
  scratch.stages.shard_ms += ms_since(tshard);

  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (groups[g].empty()) continue;
    const auto kind = static_cast<RequestKind>(g / kNumIndexes);
    const auto index = static_cast<IndexKind>(g % kNumIndexes);
    const auto tgroup = Clock::now();

    // Unmounted indexes settle kRejected, a join without its probe operand
    // kInvalidArgument.
    const Status gate_status = support_status(gen, kind, index);

    // Settle structurally rejected and already-dead requests up front.
    std::vector<std::size_t> live;
    live.reserve(groups[g].size());
    for (const std::size_t i : groups[g]) {
      responses[i].status = gate_status != Status::kOk
                                ? gate_status
                                : pre_status(batch[i], xcancel);
      if (responses[i].status == Status::kOk) live.push_back(i);
    }

    if (!live.empty()) {
      // Sequential when the pair has no batch pipeline, else the cost
      // model picks dp or sequential for the group.
      dispatch_group(gen, batch, responses, kind, index, live, shard, xcancel,
                     scratch);
    }

    scratch.stages.*kind_ops(kind).stage += ms_since(tgroup);
    for (const auto i : groups[g]) responses[i].latency_us = us_since(t0);
  }
}

std::vector<Response> QueryEngine::serve(const std::vector<Request>& batch) {
  return serve(batch, nullptr);
}

std::vector<Response> QueryEngine::serve(const std::vector<Request>& batch,
                                         const std::atomic<bool>* xcancel) {
  const auto t0 = Clock::now();
  const std::size_t n = batch.size();
  std::vector<Response> responses(n);

  ServeMetrics delta;
  delta.batches = 1;
  delta.requests = n;

  // Geometry gate: malformed requests settle with kInvalidArgument before
  // they can consume admission budget or reach a pipeline.
  std::vector<Status> gate(n, Status::kOk);
  std::size_t admitted_requests = 0;
  Priority priority = Priority::kLow;
  for (std::size_t i = 0; i < n; ++i) {
    gate[i] = validate_request(batch[i]);
    if (gate[i] == Status::kOk) {
      ++admitted_requests;
      priority = std::max(priority, batch[i].priority);
    }
  }

  bool executed = false;
  std::vector<ShardScratch> scratch;
  if (admitted_requests > 0) {
    // RAII admission: the token and request budget release on every exit
    // path, including a throw from the pool body.
    AdmissionGuard admitted(admission_, admitted_requests, priority);
    if (!admitted.admitted()) {
      for (std::size_t i = 0; i < n; ++i) {
        if (gate[i] == Status::kOk) gate[i] = Status::kShedded;
      }
    } else {
      executed = true;
      // Shared mount lock: a concurrent mount() waits for this batch.
      std::shared_lock<std::shared_mutex> mounts(mount_mutex_);
      // Pin the current index generation for the whole batch: every shard
      // reads this snapshot, so a concurrent apply_update (which swaps the
      // generation without taking the mount lock exclusively) can never
      // tear the view mid-batch.
      const std::shared_ptr<const IndexGen> gen = snapshot_gen();
#ifndef NDEBUG
      debug_in_flight_.fetch_add(1, std::memory_order_acq_rel);
#endif
      const std::size_t k = std::min(shards_, n);
      scratch.resize(k);
      // Lanes are the physical limit; when the engine is configured with
      // more shards than lanes, each lane drains several shards in turn.
      const std::size_t lanes = std::min(k, pool_->size());
      pool_->run(lanes, [&](std::size_t lane) {
        for (std::size_t s = lane; s < k; s += lanes) {
          const auto [lo, hi] = dpv::Context::block_range(n, k, s);
          if (lo >= hi) continue;
          // A one-lane batch runs inline on the caller's thread, outside
          // the pool's launch serialization, so concurrent serve() calls
          // can reach the same shard: its arena mutex sequences them.
          const std::lock_guard<std::mutex> arena(arenas_[s]->mutex);
          execute_shard(*gen, batch, gate, responses, t0, s, lo, hi, xcancel,
                        scratch[s]);
        }
      });
#ifndef NDEBUG
      debug_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
#endif
    }
  }
  if (!executed) {
    // Nothing ran: every request settles with its gate status.
    for (std::size_t i = 0; i < n; ++i) {
      responses[i].status = gate[i];
      responses[i].latency_us = us_since(t0);
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    ++(delta.*kind_ops(batch[i].kind).requests);
    switch (responses[i].status) {
      case Status::kOk: ++delta.ok; break;
      case Status::kDeadlineExpired: ++delta.expired; break;
      case Status::kCancelled: ++delta.cancelled; break;
      case Status::kRejected: ++delta.rejected; break;
      case Status::kShedded: ++delta.shedded; break;
      case Status::kInvalidArgument: ++delta.invalid; break;
      case Status::kPartial: break;  // cluster-only status; engines never
                                     // produce it
    }
    delta.latency.record(responses[i].latency_us);
  }
  for (const ShardScratch& sc : scratch) {
    delta.stages += sc.stages;
    delta.dp_groups += sc.dp_groups;
    delta.seq_groups += sc.seq_groups;
    delta.retries += sc.retries;
    delta.seq_fallbacks += sc.seq_fallbacks;
  }

  {
    const auto tmerge = Clock::now();
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    for (const ShardScratch& sc : scratch) session_.merge_counters(sc.prims);
    delta.stages.merge_ms = ms_since(tmerge);
    metrics_ += delta;
  }
  return responses;
}

ServeMetrics QueryEngine::metrics() const {
  ServeMetrics out;
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    out = metrics_;
    out.prims = session_.snapshot();
  }
  out.lazy_rtree_rebuilds = lazy_rtree_builds_.load(std::memory_order_relaxed);
  out.agg_annotation_builds =
      agg_annotation_builds_.load(std::memory_order_relaxed);
  out.cost_model = cost_model_.snapshot();
  return out;
}

void QueryEngine::reset_metrics() {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  metrics_ = ServeMetrics{};
  session_.reset_counters();
  lazy_rtree_builds_.store(0, std::memory_order_relaxed);
  agg_annotation_builds_.store(0, std::memory_order_relaxed);
}

}  // namespace dps::serve
