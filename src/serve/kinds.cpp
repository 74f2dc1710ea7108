#include "serve/kinds.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/batch_nearest.hpp"
#include "core/dp_spatial_join.hpp"
#include "core/nearest.hpp"
#include "core/query.hpp"
#include "core/rtree_join.hpp"
#include "core/spatial_join.hpp"
#include "core/validate.hpp"

namespace dps::serve {

namespace {

using Batch = std::vector<Request>;
using Live = std::vector<std::size_t>;
using Parts = std::vector<const Response*>;
using Key = ResultCache::Key;

constexpr IndexKind kQ = IndexKind::kQuadTree;
constexpr IndexKind kR = IndexKind::kRTree;
constexpr IndexKind kL = IndexKind::kLinearQuadTree;

// ---- Validation. ----

Status invalid_if(bool bad) noexcept {
  return bad ? Status::kInvalidArgument : Status::kOk;
}
Status valid_window(const Request& rq) noexcept {
  return invalid_if(core::validate_window(rq.window).has_value());
}
Status valid_point(const Request& rq) noexcept {
  return invalid_if(core::validate_point(rq.point).has_value());
}
Status valid_nearest(const Request& rq) noexcept {
  return invalid_if(core::validate_nearest(rq.point, rq.k).has_value());
}
// No geometry payload; the probe-map gate needs the mounted state.
Status valid_always(const Request&) noexcept { return Status::kOk; }

// ---- Cache keys and footprints. ----

/// Exact-match bit pattern of a coordinate with -0.0 folded to 0.0, so the
/// two representations of zero share one key.
std::uint64_t canon_bits(double d) noexcept {
  return std::bit_cast<std::uint64_t>(d == 0.0 ? 0.0 : d);
}
double from_bits(std::uint64_t b) noexcept { return std::bit_cast<double>(b); }

void key_window(const Request& rq, Key& key) noexcept {
  key.g0 = canon_bits(rq.window.xmin);
  key.g1 = canon_bits(rq.window.ymin);
  key.g2 = canon_bits(rq.window.xmax);
  key.g3 = canon_bits(rq.window.ymax);
}
void key_point(const Request& rq, Key& key) noexcept {
  key.g0 = canon_bits(rq.point.x);
  key.g1 = canon_bits(rq.point.y);
}
void key_nearest(const Request& rq, Key& key) noexcept {
  key_point(rq, key);
  key.k = rq.k;
}
// A join answer depends only on the two mounted maps.
void key_none(const Request&, Key&) noexcept {}

// A window (or range aggregate) depends only on lines meeting the window.
std::optional<geom::Rect> window_footprint(const Key& key,
                                           const Response&) noexcept {
  return geom::Rect{from_bits(key.g0), from_bits(key.g1), from_bits(key.g2),
                    from_bits(key.g3)};
}
std::optional<geom::Rect> point_footprint(const Key& key,
                                          const Response&) noexcept {
  return geom::Rect::of_point({from_bits(key.g0), from_bits(key.g1)});
}
std::optional<geom::Rect> nearest_footprint(const Key& key,
                                            const Response& payload) noexcept {
  // Fewer than k lines existed: any insert anywhere can join the answer.
  if (payload.neighbors.size() < key.k) return std::nullopt;
  // Neighbors are stored in canonical ascending (distance^2, id) order, so
  // the kth (last) one carries the answer's radius.  Any segment affecting
  // the top-k comes within that radius of the query point, and therefore
  // its MBR meets this disk-bounding rect.
  const double x = from_bits(key.g0);
  const double y = from_bits(key.g1);
  const double r = std::sqrt(payload.neighbors.back().distance2);
  return geom::Rect{x - r, y - r, x + r, y + r};
}
// Any changed base line can gain or lose probe partners anywhere.
std::optional<geom::Rect> unbounded_footprint(const Key&,
                                              const Response&) noexcept {
  return std::nullopt;
}

// ---- Exact merges. ----

/// Sorted-union duplicate deletion over the concatenated per-shard lists
/// (each already sorted unique): a line cloned into several routed shards
/// reports once, like the single-engine answer.
template <auto Field>
std::uint64_t sorted_union(const Request&, const Parts& parts,
                           Response& rsp) {
  auto& out = rsp.*Field;
  for (const Response* r : parts) {
    out.insert(out.end(), (r->*Field).begin(), (r->*Field).end());
  }
  std::sort(out.begin(), out.end());
  const auto last = std::unique(out.begin(), out.end());
  const auto removed =
      static_cast<std::uint64_t>(std::distance(last, out.end()));
  out.erase(last, out.end());
  return removed;
}

/// Global k-nearest re-rank: duplicate-delete cloned hits by id (keeping
/// each id's smallest distance, matching the single tree that holds every
/// q-edge), then order by (distance^2, id) -- the canonical order
/// core::k_nearest produces -- and truncate to k.
std::uint64_t merge_neighbors(const Request& rq, const Parts& parts,
                              Response& rsp) {
  std::vector<core::Neighbor>& pool = rsp.neighbors;
  for (const Response* r : parts) {
    pool.insert(pool.end(), r->neighbors.begin(), r->neighbors.end());
  }
  std::sort(pool.begin(), pool.end(),
            [](const core::Neighbor& a, const core::Neighbor& b) {
              return a.id != b.id ? a.id < b.id : a.distance2 < b.distance2;
            });
  const auto last = std::unique(
      pool.begin(), pool.end(),
      [](const core::Neighbor& a, const core::Neighbor& b) {
        return a.id == b.id;
      });
  const auto removed =
      static_cast<std::uint64_t>(std::distance(last, pool.end()));
  pool.erase(last, pool.end());
  std::sort(pool.begin(), pool.end(),
            [](const core::Neighbor& a, const core::Neighbor& b) {
              return a.distance2 != b.distance2 ? a.distance2 < b.distance2
                                                : a.id < b.id;
            });
  if (pool.size() > rq.k) pool.resize(rq.k);
  return removed;
}

/// Field-wise fold in shard order.  Ownership scoping made the per-shard
/// partials disjoint, so no duplicate deletion: count and bbox are the
/// single-engine values bitwise, the sums differ only by floating-point
/// association.
std::uint64_t merge_aggregates(const Request&, const Parts& parts,
                               Response& rsp) {
  for (const Response* r : parts) rsp.aggregate.merge(r->aggregate);
  return 0;
}

template <auto Field>
void take(Response& dst, const Response& src) {
  dst.*Field = src.*Field;
}

// ---- Kernels. ----

template <IndexKind I>
const auto& tree(const GenView& g) {
  if constexpr (I == kQ) {
    return *g.gen.quad;
  } else if constexpr (I == kR) {
    return *g.rtree();
  } else {
    return *g.linear();
  }
}

template <class T>
std::vector<T> gather(const Batch& batch, const Live& live,
                      T Request::*field) {
  std::vector<T> out(live.size());
  for (std::size_t j = 0; j < live.size(); ++j) out[j] = batch[live[j]].*field;
  return out;
}

/// Settles `live` from a batch pipeline's per-query rows, unless it
/// aborted.
template <class Result, class T>
bool scatter(Result&& result, const Live& live, std::vector<Response>& rsps,
             T Response::*field) {
  if (result.aborted) return false;
  for (std::size_t j = 0; j < live.size(); ++j) {
    rsps[live[j]].*field = std::move(result.results[j]);
    rsps[live[j]].status = Status::kOk;
  }
  return true;
}

template <IndexKind I>
Status window_seq(const GenView& g, const Request& rq, Response& rsp) {
  if constexpr (I == kL) {
    rsp.ids = tree<I>(g).window_query(rq.window);
  } else {
    rsp.ids = core::window_query(tree<I>(g), rq.window);
  }
  return Status::kOk;
}
template <IndexKind I>
bool window_dp(dpv::Context& ctx, const GenView& g, const Batch& batch,
               const Live& live, const core::BatchControl& control,
               std::vector<Response>& rsps) {
  return scatter(core::batch_window_query(ctx, tree<I>(g),
                                          gather(batch, live, &Request::window),
                                          control),
                 live, rsps, &Response::ids);
}

template <IndexKind I>
Status point_seq(const GenView& g, const Request& rq, Response& rsp) {
  if constexpr (I == kL) {
    rsp.ids = tree<I>(g).point_query(rq.point);
  } else {
    rsp.ids = core::point_query(tree<I>(g), rq.point);
  }
  return Status::kOk;
}
template <IndexKind I>
bool point_dp(dpv::Context& ctx, const GenView& g, const Batch& batch,
              const Live& live, const core::BatchControl& control,
              std::vector<Response>& rsps) {
  return scatter(core::batch_point_query(ctx, tree<I>(g),
                                         gather(batch, live, &Request::point),
                                         control),
                 live, rsps, &Response::ids);
}

template <IndexKind I>
Status nearest_seq(const GenView& g, const Request& rq, Response& rsp) {
  rsp.neighbors = core::k_nearest(tree<I>(g), rq.point, rq.k);
  return Status::kOk;
}
template <IndexKind I>
bool nearest_dp(dpv::Context& ctx, const GenView& g, const Batch& batch,
                const Live& live, const core::BatchControl& control,
                std::vector<Response>& rsps) {
  return scatter(core::batch_k_nearest(ctx, tree<I>(g),
                                       gather(batch, live, &Request::point),
                                       gather(batch, live, &Request::k),
                                       control),
                 live, rsps, &Response::neighbors);
}

template <IndexKind I>
Status aggregate_seq(const GenView& g, const Request& rq, Response& rsp) {
  const auto& t = tree<I>(g);
  rsp.aggregate = core::window_aggregate_seq(t, g.agg(t), rq.window);
  return Status::kOk;
}
template <IndexKind I>
bool aggregate_dp(dpv::Context& ctx, const GenView& g, const Batch& batch,
                  const Live& live, const core::BatchControl& control,
                  std::vector<Response>& rsps) {
  const auto& t = tree<I>(g);
  return scatter(
      core::batch_window_aggregate(ctx, t, g.agg(t),
                                   gather(batch, live, &Request::window),
                                   control),
      live, rsps, &Response::aggregate);
}

/// Host joins; the quadtree one is the lock-step oracle (no dyadic blind
/// spot), which is also the fault-free settle for an exhausted dp group.
template <IndexKind I>
Status join_seq(const GenView& g, const Request&, Response& rsp) {
  if constexpr (I == kQ) {
    rsp.pairs = core::spatial_join(*g.gen.quad, *g.gen.probe_quad);
  } else {
    rsp.pairs = core::rtree_join(*g.rtree(), *g.gen.probe_rtree);
  }
  return Status::kOk;
}
/// Every join request in a group asks the same question (the two mounted
/// maps carry the whole payload): compute the answer once, copy it to the
/// group.  The quadtree runs the data-parallel common-decomposition join;
/// the R-tree join is the host MBR-pruned descent (no faults to latch, so
/// its attempt always lands).
template <IndexKind I>
bool join_dp(dpv::Context& ctx, const GenView& g, const Batch&,
             const Live& live, const core::BatchControl& control,
             std::vector<Response>& rsps) {
  Response one;
  if constexpr (I == kQ) {
    one.pairs = core::dp_spatial_join(ctx, *g.gen.quad, *g.gen.probe_quad);
  } else {
    join_seq<I>(g, Request{}, one);
  }
  // dp_spatial_join has no mid-flight control poll; settle fired controls
  // after the fact and treat a latched fault as an aborted attempt.
  if (core::batch_aborting(ctx, control)) return false;
  for (std::size_t j = 0; j < live.size(); ++j) {
    rsps[live[j]].pairs =
        j + 1 == live.size() ? std::move(one.pairs) : one.pairs;
    rsps[live[j]].status = Status::kOk;
  }
  return true;
}

// ---- The table, indexed by RequestKind ordinal. ----

constexpr std::array<KindOps, kNumKinds> kOps{{
    {.kind = RequestKind::kWindow,
     .validate = &valid_window,
     .canonical_key = &key_window,
     .entry_footprint = &window_footprint,
     .route = Route::kWindow,
     .merge = &sorted_union<&Response::ids>,
     .take = &take<&Response::ids>,
     .run_seq = {&window_seq<kQ>, &window_seq<kR>, &window_seq<kL>},
     .run_dp = {&window_dp<kQ>, &window_dp<kR>, &window_dp<kL>},
     .stage = &StageTimes::window_ms,
     .requests = &ServeMetrics::window_requests},
    {.kind = RequestKind::kPoint,
     .validate = &valid_point,
     .canonical_key = &key_point,
     .entry_footprint = &point_footprint,
     .route = Route::kPoint,
     .merge = &sorted_union<&Response::ids>,
     .take = &take<&Response::ids>,
     .run_seq = {&point_seq<kQ>, &point_seq<kR>, &point_seq<kL>},
     .run_dp = {&point_dp<kQ>, &point_dp<kR>, &point_dp<kL>},
     .stage = &StageTimes::point_ms,
     .requests = &ServeMetrics::point_requests},
    {.kind = RequestKind::kNearest,
     .validate = &valid_nearest,
     .canonical_key = &key_nearest,
     .entry_footprint = &nearest_footprint,
     .route = Route::kNearest,
     .merge = &merge_neighbors,
     .take = &take<&Response::neighbors>,
     .run_seq = {&nearest_seq<kQ>, &nearest_seq<kR>, nullptr},
     .run_dp = {&nearest_dp<kQ>, &nearest_dp<kR>, nullptr},
     .stage = &StageTimes::nearest_ms,
     .requests = &ServeMetrics::nearest_requests,
     .k_bucketed = true},
    {.kind = RequestKind::kAggregate,
     .validate = &valid_window,
     .canonical_key = &key_window,
     .entry_footprint = &window_footprint,
     .route = Route::kWindow,
     .merge = &merge_aggregates,
     .take = &take<&Response::aggregate>,
     .run_seq = {&aggregate_seq<kQ>, &aggregate_seq<kR>, &aggregate_seq<kL>},
     .run_dp = {&aggregate_dp<kQ>, &aggregate_dp<kR>, &aggregate_dp<kL>},
     .stage = &StageTimes::aggregate_ms,
     .requests = &ServeMetrics::aggregate_requests},
    {.kind = RequestKind::kJoin,
     .validate = &valid_always,
     .canonical_key = &key_none,
     .entry_footprint = &unbounded_footprint,
     .route = Route::kProbeShards,
     .merge = &sorted_union<&Response::pairs>,
     .take = &take<&Response::pairs>,
     .run_seq = {&join_seq<kQ>, &join_seq<kR>, nullptr},
     .run_dp = {&join_dp<kQ>, &join_dp<kR>, nullptr},
     .stage = &StageTimes::join_ms,
     .requests = &ServeMetrics::join_requests,
     .needs_probe = true,
     .one_per_group = true},
}};

constexpr bool table_in_ordinal_order() {
  for (std::size_t i = 0; i < kOps.size(); ++i) {
    if (static_cast<std::size_t>(kOps[i].kind) != i) return false;
  }
  return true;
}
static_assert(table_in_ordinal_order());

}  // namespace

const KindOps& kind_ops(RequestKind kind) noexcept {
  return kOps[static_cast<std::size_t>(kind)];
}

Status validate_request(const Request& rq) noexcept {
  return kind_ops(rq.kind).validate(rq);
}

Status support_status(const IndexGen& gen, RequestKind kind,
                      IndexKind index) noexcept {
  const KindOps& ops = kind_ops(kind);
  if (!ops.supports(index) || !gen.has(index)) return Status::kRejected;
  if (!ops.needs_probe) return Status::kOk;
  const bool quad = index == kQ;
  const bool mounted = quad ? gen.probe_quad != nullptr
                            : gen.probe_rtree != nullptr;
  const std::size_t lines =
      !mounted ? 0
      : quad   ? gen.probe_quad->num_qedges()
               : gen.probe_rtree->entries().size();
  return invalid_if(core::validate_probe_map(mounted, lines).has_value());
}

}  // namespace dps::serve
