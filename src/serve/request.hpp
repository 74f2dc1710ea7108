#pragma once
// Request / response vocabulary for the batch-query serving engine.
//
// A Request names a query kind (window / point / k-nearest / range
// aggregate / map-vs-map join), the immutable index it should run against,
// an admission priority, and an optional absolute deadline.  The engine answers every request with a Response
// carrying a terminal Status; result payloads are only meaningful for kOk.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "core/batch_aggregate.hpp"
#include "core/nearest.hpp"
#include "core/pmr_build.hpp"
#include "core/rtree_build.hpp"
#include "geom/geom.hpp"

namespace dps::serve {

using Clock = std::chrono::steady_clock;

enum class RequestKind : std::uint8_t {
  kWindow,
  kPoint,
  kNearest,
  kAggregate,  // range aggregate over `window`, no hit materialization
  kJoin,       // map-vs-map spatial join against the mounted probe map
};

enum class IndexKind : std::uint8_t { kQuadTree, kRTree };

/// Admission priority.  Under overload the engine sheds the
/// lowest-priority waiting work first; a batch's priority is the highest
/// priority of any request in it.
enum class Priority : std::uint8_t { kLow = 0, kNormal = 1, kHigh = 2 };

std::string_view priority_name(Priority p) noexcept;

enum class Status : std::uint8_t {
  kOk = 0,
  kDeadlineExpired,   // request deadline passed before its answer was final
  kCancelled,         // engine-wide cancel fired while the request was live
  kRejected,          // index not mounted
  kShedded,           // load-shed by admission control; never executed
  kInvalidArgument,   // malformed geometry (NaN/inf, inverted window, k = 0)
  kPartial,           // opted-in degraded answer: the surviving shards'
                      // exactly-merged hits, with `missing_shards` failure
                      // domains unaccounted for; never cached
};

std::string_view status_name(Status s) noexcept;

struct Request {
  RequestKind kind = RequestKind::kWindow;
  IndexKind index = IndexKind::kQuadTree;
  geom::Rect window{};  // kWindow payload
  geom::Point point{};  // kPoint / kNearest payload
  std::size_t k = 1;    // kNearest answer count
  Priority priority = Priority::kNormal;
  /// Absolute deadline; nullopt = none.  Any concrete time point --
  /// including the epoch -- is a real (expired) deadline.
  std::optional<Clock::time_point> deadline{};
  /// Skip the cluster's result cache for this request (both lookup and
  /// fill), so chaos and measurement runs can exercise the routed path on
  /// demand.  Ignored by a bare QueryEngine.
  bool bypass_cache = false;
  /// Opt in to graceful degradation: when a shard answer is unavailable at
  /// merge time (breaker open, replica crashed / timed out with no backup
  /// answer), accept Status::kPartial with the surviving shards' hits
  /// instead of refilling the missing shards from their own sequential
  /// oracles.  Ignored by a bare QueryEngine (a single engine has no
  /// failure domains to lose).
  bool allow_partial = false;

  bool has_deadline() const noexcept { return deadline.has_value(); }

  static Request window_query(IndexKind idx, const geom::Rect& w) {
    return {.kind = RequestKind::kWindow, .index = idx, .window = w};
  }
  static Request point_query(IndexKind idx, const geom::Point& p) {
    return {.kind = RequestKind::kPoint, .index = idx, .point = p};
  }
  static Request nearest_query(IndexKind idx, const geom::Point& p,
                               std::size_t k) {
    return {.kind = RequestKind::kNearest, .index = idx, .point = p, .k = k};
  }
  /// Range aggregate over `w`: count / clipped length / clipped bbox /
  /// centroid sums of the lines hitting the window, no ids materialized.
  static Request aggregate_query(IndexKind idx, const geom::Rect& w) {
    return {.kind = RequestKind::kAggregate, .index = idx, .window = w};
  }
  /// Map-vs-map spatial join of the mounted base map against the mounted
  /// probe map (QueryEngine::mount_probe / Cluster::mount_probe).  Carries
  /// no geometry payload.
  static Request join_query(IndexKind idx) {
    return {.kind = RequestKind::kJoin, .index = idx};
  }

  Request& with_priority(Priority p) {
    priority = p;
    return *this;
  }
  Request& with_deadline(Clock::time_point d) {
    deadline = d;
    return *this;
  }
  Request& with_bypass_cache(bool bypass = true) {
    bypass_cache = bypass;
    return *this;
  }
  Request& with_allow_partial(bool allow = true) {
    allow_partial = allow;
    return *this;
  }
};

/// One batched live-update delta.  Deletes apply before inserts, so a
/// batch may replace a line (delete id, insert its successor) atomically.
struct UpdateBatch {
  std::vector<geom::Segment> inserts;
  /// Line ids to remove; ids absent from the live map are tolerated (and
  /// reported via UpdateResult::unknown_deletes), matching pmr_delete's
  /// unknown-id-is-identity contract.
  std::vector<geom::LineId> deletes;

  bool empty() const noexcept { return inserts.empty() && deletes.empty(); }
  std::size_t size() const noexcept { return inserts.size() + deletes.size(); }
};

/// Per-update knobs for the live-update path.
struct UpdateOptions {
  /// Bucket-PMR build options of the *mounted* tree.  They must match what
  /// built the current generation: the bucket PMR shape is
  /// history-independent only under a fixed (world, capacity, depth-cap)
  /// rule, which is what makes update-vs-rebuild equivalence hold.
  core::PmrBuildOptions build;
  /// R-tree build options for the lazy R-tree rebuild.
  core::RtreeBuildOptions rtree;
  /// Serving-matrix capability for a generation grown from an empty
  /// engine: keep answering R-tree requests (via the lazy per-epoch
  /// rebuild).  Generations evolved from a mounted engine always inherit
  /// the capabilities it already served.
  bool keep_rtree = true;
  /// Compaction trigger: once the deltas accumulated since the last full
  /// build exceed this, the update runs a from-scratch data-parallel
  /// rebuild of the surviving lines instead of an incremental
  /// insert/delete pass.  History-independence makes the two results
  /// byte-identical; compaction just resets the delta debt.  0 compacts on
  /// every update.
  std::size_t compact_after = 64;
};

/// Outcome of QueryEngine::apply_update / Cluster::apply_update.  Failed
/// updates (kInvalidArgument, or a fault-aborted shadow build answering
/// kRejected) publish nothing: readers keep the previous generation.
struct UpdateResult {
  Status status = Status::kOk;
  /// Mount epoch serving the update's generation (kOk only).
  std::uint64_t epoch = 0;
  bool compacted = false;
  std::size_t inserted = 0;
  std::size_t deleted = 0;          // known ids removed
  std::size_t unknown_deletes = 0;  // delete ids with no live line

  bool ok() const noexcept { return status == Status::kOk; }
};

struct Response {
  Status status = Status::kOk;
  std::vector<geom::LineId> ids;          // kWindow / kPoint answer
  std::vector<core::Neighbor> neighbors;  // kNearest answer
  core::WindowAggregate aggregate;        // kAggregate answer
  /// kJoin answer: (base id, probe id) intersecting pairs, sorted, each
  /// pair once.
  std::vector<std::pair<geom::LineId, geom::LineId>> pairs;
  double latency_us = 0.0;  // serve() entry -> this request's answer final
  /// Failure domains whose answer is missing from a kPartial payload
  /// (always 0 for every other status).
  std::uint32_t missing_shards = 0;
};

}  // namespace dps::serve
