#pragma once
// Request-kind descriptors: the one module that knows what each
// RequestKind means.  A KindOps entry carries everything the serving
// layers would otherwise re-decide per kind -- validation, the cache key
// and invalidation footprint, the cluster route and exact merge, the
// sequential and data-parallel kernels per index, the metrics slots -- so
// the engine, the cluster and the result cache each run one table-driven
// path.  Adding a request kind means writing one descriptor and its
// kernels.
//
// A null kernel entry marks the (kind, index) pair unsupported: every
// layer settles such a request kRejected.
//
// The kernels read one immutable index generation (IndexGen, what
// QueryEngine publishes RCU-style) through a GenView, which materializes
// the generation's lazy state on first use.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/batch_aggregate.hpp"
#include "core/linear_quadtree.hpp"
#include "core/pmr_build.hpp"
#include "core/quadtree.hpp"
#include "core/rtree.hpp"
#include "core/rtree_build.hpp"
#include "dpv/dpv.hpp"
#include "serve/cache.hpp"
#include "serve/metrics.hpp"
#include "serve/request.hpp"

namespace dps::serve {

class QueryEngine;

/// A non-owning shared_ptr: how a borrowed mount shares storage slots with
/// the owned indexes an update builds.
template <class T>
std::shared_ptr<const T> borrow(const T* p) noexcept {
  return std::shared_ptr<const T>(std::shared_ptr<const T>(), p);
}

/// One per-generation value that may be built lazily: an atomic ready
/// pointer (the lock-free fast path) over the shared_ptr that owns -- or,
/// for a borrowed mount, aliases -- the value.  Builds run under the
/// generation's `lazy_mutex`, once across racing readers, and are shared
/// by every engine serving the generation.
template <class T>
class LazySlot {
 public:
  LazySlot() = default;
  /// Copies the value; the caller holds the source generation's
  /// `lazy_mutex`.
  LazySlot(const LazySlot& other) noexcept { set(other.value_); }

  const T* ready() const noexcept {
    return ready_.load(std::memory_order_acquire);
  }

  /// Installs `v` (null empties the slot); unpublished generations only.
  void set(std::shared_ptr<const T> v) noexcept {
    value_ = std::move(v);
    ready_.store(value_.get(), std::memory_order_release);
  }

  /// The value when it is ready and `fresh` accepts it; otherwise builds it
  /// under `mutex` and counts the build in `builds`.
  template <class Build, class Fresh = bool (*)(const T&)>
  const T& get(std::mutex& mutex, std::atomic<std::uint64_t>& builds,
               Build build, Fresh fresh = [](const T&) { return true; }) const {
    if (const T* r = ready(); r != nullptr && fresh(*r)) return *r;
    std::lock_guard<std::mutex> lock(mutex);
    if (value_ == nullptr || !fresh(*value_)) {
      value_ = std::make_shared<const T>(build());
      ready_.store(value_.get(), std::memory_order_release);
      builds.fetch_add(1, std::memory_order_relaxed);
    }
    return *value_;
  }

 private:
  mutable std::shared_ptr<const T> value_;
  mutable std::atomic<const T*> ready_{nullptr};
};

/// One immutable index generation.  A mount()ed generation borrows the
/// caller's structures; an update-produced one owns a rebuilt quadtree and
/// marks the siblings *stale*: the R-tree / linear quadtree have no update
/// path, so they are rebuilt lazily on first use within the generation,
/// from `lines` under the recorded build options.
struct IndexGen {
  std::shared_ptr<const core::QuadTree> quad;
  LazySlot<core::RTree> rtree;
  LazySlot<core::LinearQuadTree> linear;
  bool rtree_stale = false;  // capability present, lazily materialized
  bool linear_stale = false;

  /// Borrowed probe map for kJoin requests (mount_probe).  Carried through
  /// clones and live updates of the base map: the join's second operand
  /// does not change when the base evolves.
  const core::QuadTree* probe_quad = nullptr;
  const core::RTree* probe_rtree = nullptr;

  /// Surviving lines of an update-produced generation (what the lazy
  /// sibling rebuilds and the next update's live set read); null for a
  /// plain mount (recovered from the quadtree's q-edges on demand).
  std::shared_ptr<const std::vector<geom::Segment>> lines;
  core::PmrBuildOptions quad_opts;
  core::RtreeBuildOptions rtree_opts;
  /// Inserts + deletes accumulated since the last full build; compared
  /// against UpdateOptions::compact_after by the next update.
  std::uint64_t deltas = 0;

  /// Range-aggregate annotations, one slot per index, built on first
  /// kAggregate use.  Each records the AggregateScope it was filtered
  /// under and is rebuilt when the serving engine's scope differs.
  LazySlot<core::QuadAggAnnotations> quad_agg;
  LazySlot<core::RTreeAggAnnotations> rtree_agg;
  LazySlot<core::LinearAggAnnotations> linear_agg;
  /// Guards the lazy builds.  A copied generation gets a fresh one.
  struct LazyMutex : std::mutex {
    LazyMutex() = default;
    LazyMutex(const LazyMutex&) noexcept : std::mutex() {}
  };
  mutable LazyMutex lazy_mutex;

  bool has(IndexKind index) const noexcept;

  /// Logical copy for a partial remount: every field and built slot
  /// carries over (a mount resets the slots of the index it replaces).
  std::shared_ptr<IndexGen> clone() const {
    std::lock_guard<std::mutex> lock(lazy_mutex);  // slots copy under it
    return std::make_shared<IndexGen>(*this);
  }
};

/// A pinned generation as seen through the engine serving it: index
/// accessors that materialize the generation's lazy state -- a stale
/// sibling rebuild, aggregate annotations under the engine's scope -- on
/// first use and count the build in that engine's metrics.  The sibling
/// accessors return null when the generation lacks the index.
struct GenView {
  const IndexGen& gen;
  const QueryEngine& engine;

  const core::RTree* rtree() const;
  const core::LinearQuadTree* linear() const;
  const core::QuadAggAnnotations& agg(const core::QuadTree& tree) const;
  const core::RTreeAggAnnotations& agg(const core::RTree& tree) const;
  const core::LinearAggAnnotations& agg(
      const core::LinearQuadTree& tree) const;
};

// ---- Request-kind descriptors. ----

inline constexpr std::size_t kNumKinds = 5;
inline constexpr std::size_t kNumIndexes = 3;

/// (kind, index) ordinal: the engine's group slot, from which fault scopes
/// and dispatch cost-model cells derive.
constexpr std::size_t group_id(RequestKind kind, IndexKind index) noexcept {
  return static_cast<std::size_t>(kind) * kNumIndexes +
         static_cast<std::size_t>(index);
}

/// The shards a cluster consults for one request.
enum class Route : std::uint8_t {
  kWindow,       // every live shard whose footprint meets rq.window
  kPoint,        // every live shard whose footprint contains rq.point
  kNearest,      // the nearest footprint, then every shard within the
                 // primary's kth-best bound (two-phase widening)
  kProbeShards,  // every live shard that also holds probe clones
};

/// Sequential (host traversal) answer for one request.
using SeqFn = Status (*)(const GenView& gen, const Request& rq,
                         Response& rsp);
/// One data-parallel attempt over `batch[live]`: settles those responses
/// kOk and returns true, or returns false when the pipeline aborted (an
/// injected fault or a fired control) and nothing may be trusted.
using DpFn = bool (*)(dpv::Context& ctx, const GenView& gen,
                      const std::vector<Request>& batch,
                      const std::vector<std::size_t>& live,
                      const core::BatchControl& control,
                      std::vector<Response>& responses);

struct KindOps {
  RequestKind kind;
  /// Geometry gate: kInvalidArgument for malformed payloads.
  Status (*validate)(const Request& rq) noexcept;
  /// Fills the payload fields of a result-cache key the kind's answer
  /// depends on, leaving every other field zero.
  void (*canonical_key)(const Request& rq, ResultCache::Key& key) noexcept;
  /// Region the cached answer depends on; nullopt = unbounded (any update
  /// anywhere can change it).
  std::optional<geom::Rect> (*entry_footprint)(
      const ResultCache::Key& key, const Response& payload) noexcept;
  Route route;
  /// Exact merge of per-shard answers into `rsp`; returns the cloned
  /// duplicates removed.
  std::uint64_t (*merge)(const Request& rq,
                         const std::vector<const Response*>& parts,
                         Response& rsp);
  /// Copies the kind's payload field from `src` (a cache entry, or the
  /// answer filling one) into `dst`.
  void (*take)(Response& dst, const Response& src);
  std::array<SeqFn, kNumIndexes> run_seq;
  std::array<DpFn, kNumIndexes> run_dp;
  double StageTimes::*stage;              // group wall-clock slot
  std::uint64_t ServeMetrics::*requests;  // request-mix counter
  /// Reads the mounted probe map: unmounted or empty settles
  /// kInvalidArgument (core::validate_probe_map).
  bool needs_probe = false;
  /// Every request of a group asks the same question, so a group is one
  /// computation and the group-size cost model has nothing to price.
  bool one_per_group = false;
  /// Dispatch decides per log2(k) bucket, so a group may split hybrid
  /// (small-k tail sequential, bulk data-parallel).
  bool k_bucketed = false;

  bool supports(IndexKind index) const noexcept {
    return run_seq[static_cast<std::size_t>(index)] != nullptr;
  }
  SeqFn seq(IndexKind index) const noexcept {
    return run_seq[static_cast<std::size_t>(index)];
  }
  DpFn dp(IndexKind index) const noexcept {
    return run_dp[static_cast<std::size_t>(index)];
  }
};

/// The descriptor of `kind` (a declared enumerator, like every IndexKind
/// the serving layers index by).
const KindOps& kind_ops(RequestKind kind) noexcept;

/// Per-request geometry gate (kOk = well-formed).
Status validate_request(const Request& rq) noexcept;

/// What a (kind, index) request settles as before it runs against `gen`:
/// kRejected when the pair is unsupported or the index unmounted,
/// kInvalidArgument when a probe-reading kind finds no probe map, kOk
/// when it can run.
Status support_status(const IndexGen& gen, RequestKind kind,
                      IndexKind index) noexcept;

}  // namespace dps::serve
