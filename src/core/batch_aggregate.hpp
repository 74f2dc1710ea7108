#pragma once
// Data-parallel batch range-aggregate queries (no hit materialization).
//
// Computes decomposable per-window statistics -- hit count, total clipped
// length, clipped bounding box, clip-length-weighted centroid sums -- for
// many windows at once without ever materializing id lists.  The recipe is
// the augmented-map one: every distinct line is attached to its *assignment
// node* (the deepest node whose closed cell contains it, MX-CIF style), and
// each node carries a precomputed aggregate over all lines assigned in its
// subtree.  The per-window descent then classifies (window, node) pairs:
//
//   * disjoint  -- the node cell misses the window: skip the subtree
//                  (every assigned line lies inside the cell);
//   * covered   -- the window contains the cell: the whole subtree answers
//                  in O(1) through its annotation (every assigned line is
//                  fully inside the window, so its clip is the full line);
//   * partial   -- only the node's *own* assigned lines are candidates;
//                  recursion handles the children.
//
// Each distinct line therefore surfaces exactly once per window -- via its
// unique first covered ancestor, or kernel-tested at its assignment node --
// so no sort/duplicate-deletion round is needed.  Only the partial fringe
// runs the leaf-level SoA clip kernel (core/geom_tiles.hpp).
//
// Determinism contract (stated for the serving layer and the differential
// tests): per-window accumulation order is fixed by the descent -- covered
// annotations in DFS order first, then fringe hits in candidate order -- and
// runs scalar on the host, while the clip kernel is bitwise identical across
// scalar/AVX2 backends.  A given (tree, annotations, window) therefore
// yields bitwise-identical aggregates across dp/sequential paths, serial /
// pool backends, and SIMD on/off.  `count` and `bbox` are order-independent
// (integer adds, min/max); the `length`/`wx`/`wy` sums are *order-dependent*
// floating-point accumulations, so answers assembled in a different order
// (a materialize-then-reduce oracle in id order, or a cluster merging
// shard-major) agree on count/bbox exactly and on the sums to rounding.
//
// Sharding scope: a cluster shard passes its footprint as `AggregateScope`;
// a hit contributes only when its *owner point* (the lexicographically
// smallest clipped endpoint) falls in the half-open footprint, so cloned
// boundary lines are counted by exactly one shard and the shard-wise sum
// equals the single-engine answer (the §4.1 clone-rule dedup, aggregated).

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/batch_query.hpp"  // BatchControl / batch_aborting
#include "core/quadtree.hpp"
#include "core/rtree.hpp"
#include "dpv/dpv.hpp"
#include "geom/geom.hpp"

namespace dps::core {

/// Decomposable aggregate over the lines hitting one window.  Merging is
/// field-wise (count/length/wx/wy add, bbox unites), associative up to
/// floating-point rounding in the sums; count and bbox merge exactly.
struct WindowAggregate {
  std::uint64_t count = 0;  // lines intersecting the window, each once
  double length = 0.0;      // total length clipped to the window
  geom::Rect bbox;          // bbox of the clipped pieces (empty when 0 hits)
  double wx = 0.0;          // clip-length-weighted centroid sums:
  double wy = 0.0;          //   sum(len_i * midpoint_i)

  friend bool operator==(const WindowAggregate&,
                         const WindowAggregate&) = default;

  void merge(const WindowAggregate& o) noexcept {
    count += o.count;
    length += o.length;
    bbox = bbox.united(o.bbox);
    wx += o.wx;
    wy += o.wy;
  }

  /// Length-weighted centroid of the clipped hits ({0,0} when the total
  /// clipped length is zero -- no hits, or corner-touch-only hits).
  geom::Point centroid() const noexcept {
    if (!(length > 0.0)) return geom::Point{0.0, 0.0};
    return geom::Point{wx / length, wy / length};
  }
};

/// Ownership scope for cluster sharding.  Empty footprint (the default)
/// means unscoped: every hit contributes.  Otherwise a hit contributes only
/// when its owner point lies in the half-open footprint
/// [xmin, xmax) x [ymin, ymax), re-closed on edges shared with `extent`
/// (the rectangle the shard footprints tile) so border hits on the world's
/// outer edge are not lost.
struct AggregateScope {
  geom::Rect footprint = geom::Rect::empty();
  geom::Rect extent = geom::Rect::empty();

  friend bool operator==(const AggregateScope&,
                         const AggregateScope&) = default;

  bool scoped() const noexcept { return !footprint.is_empty(); }

  bool owns(const geom::Point& p) const noexcept {
    if (!scoped()) return true;
    if (p.x < footprint.xmin || p.y < footprint.ymin) return false;
    if (footprint.xmax == extent.xmax ? p.x > footprint.xmax
                                      : p.x >= footprint.xmax) {
      return false;
    }
    if (footprint.ymax == extent.ymax ? p.y > footprint.ymax
                                      : p.y >= footprint.ymax) {
      return false;
    }
    return true;
  }
};

/// Accumulates one hit's contribution into `g`: the clip parameter interval
/// [t0, t1] of segment `s` (from geom::clip_segment_to_rect or the batched
/// clip kernel, bit-identical) yields the clipped endpoints, length, bbox
/// and centroid weights.  The covered path calls this with (0, 1), so a
/// fully-inside fringe hit and an annotation contribution are bitwise
/// identical -- and pick the same owner point, so shard scoping agrees.
/// Returns true when the hit was owned by `scope` and accumulated.
inline bool accumulate_hit(WindowAggregate& g, const geom::Segment& s,
                           double t0, double t1,
                           const AggregateScope& scope) noexcept {
  const double dx = s.b.x - s.a.x;
  const double dy = s.b.y - s.a.y;
  const geom::Point p0{s.a.x + t0 * dx, s.a.y + t0 * dy};
  const geom::Point p1{s.a.x + t1 * dx, s.a.y + t1 * dy};
  const bool p0_first = p0.x < p1.x || (p0.x == p1.x && p0.y <= p1.y);
  const geom::Point& owner = p0_first ? p0 : p1;
  if (!scope.owns(owner)) return false;
  const double len = (t1 - t0) * std::sqrt(dx * dx + dy * dy);
  g.count += 1;
  g.length += len;
  g.bbox = g.bbox.united(geom::Rect::of_segment(p0, p1));
  g.wx += len * (0.5 * (p0.x + p1.x));
  g.wy += len * (0.5 * (p0.y + p1.y));
  return true;
}

/// The full-line contribution (clip interval [0, 1]) used by the
/// annotation builders and the covered descent path.
inline WindowAggregate full_contribution(const geom::Segment& s,
                                         const AggregateScope& scope) {
  WindowAggregate g;
  accumulate_hit(g, s, 0.0, 1.0, scope);
  return g;
}

// ---- Per-generation annotations (built once per index generation). ----

/// Quadtree annotations: the distinct lines (q-edge clones collapsed),
/// a CSR map node -> lines assigned at that node (assignment = deepest
/// node whose closed cell contains the line), and per-node subtree sums.
/// The assignment CSR is scope-independent; `subtree` is scope-filtered.
struct QuadAggAnnotations {
  AggregateScope scope;
  std::vector<geom::Segment> lines;        // distinct, sorted by id
  std::vector<std::uint32_t> node_first;   // nodes.size()+1 CSR offsets
  std::vector<std::uint32_t> node_lines;   // indices into `lines`
  std::vector<WindowAggregate> subtree;    // per node, scope-filtered
};

QuadAggAnnotations build_agg_annotations(const QuadTree& tree,
                                         const AggregateScope& scope = {});

/// R-tree annotations: entries are already one-per-line and unique to
/// their leaf, so only the per-node subtree sums are needed.
struct RTreeAggAnnotations {
  AggregateScope scope;
  std::vector<WindowAggregate> subtree;  // per node, scope-filtered
};

RTreeAggAnnotations build_agg_annotations(const RTree& tree,
                                          const AggregateScope& scope = {});

// ---- Batch pipelines. ----

struct BatchAggregateResult {
  /// results[w] = aggregate over lines hitting windows[w] (scope-owned).
  std::vector<WindowAggregate> results;
  std::size_t candidates = 0;  // fringe (window, line) pairs kernel-tested
  std::size_t covered = 0;     // fully-covered subtrees short-circuited
  /// True when the control fired (or an injected fault latched)
  /// mid-pipeline; `results` is then incomplete and must not be trusted.
  bool aborted = false;
};

BatchAggregateResult batch_window_aggregate(
    dpv::Context& ctx, const QuadTree& tree, const QuadAggAnnotations& ann,
    const std::vector<geom::Rect>& windows, const BatchControl& control = {});

BatchAggregateResult batch_window_aggregate(
    dpv::Context& ctx, const RTree& tree, const RTreeAggAnnotations& ann,
    const std::vector<geom::Rect>& windows, const BatchControl& control = {});

// ---- Host sequential baselines. ----
//
// Same annotated descent, same candidate order, scalar clip predicate
// (bit-identical to the kernel) -- so the sequential answer is bitwise
// equal to the batch pipelines'.

WindowAggregate window_aggregate_seq(const QuadTree& tree,
                                     const QuadAggAnnotations& ann,
                                     const geom::Rect& window);

WindowAggregate window_aggregate_seq(const RTree& tree,
                                     const RTreeAggAnnotations& ann,
                                     const geom::Rect& window);

}  // namespace dps::core
