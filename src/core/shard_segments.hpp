#pragma once
// Spatial sharding of a segment map for multi-engine serving.
//
// Hoel & Samet's regular decomposition gives disjoint shard footprints for
// free: a k-way split of the map rectangle by recursive bisection of the
// longest axis yields k closed rectangles that tile the extent exactly
// (interiors disjoint, shared borders only).  Every segment is then cloned
// into each shard whose footprint it touches -- the paper's section-4.1
// cloning rule ("each line segment is inserted into all of the blocks
// that it intersects") lifted from quadtree blocks to shard footprints.
//
// The clone+dupdel invariant the serving cluster relies on: because a
// segment lives in *every* shard its geometry meets, any query whose
// answer includes that segment finds it in at least one of the shards the
// query's own footprint routes to, and duplicate deletion of the cloned
// hits restores the exact single-index answer.  See
// docs/PRIMITIVES.md ("Sharded routing & exact merge", and its "Failure
// domains and exact-merge degradation" for what happens when a shard's
// answer goes missing).

#include <cstddef>
#include <vector>

#include "geom/geom.hpp"

namespace dps::core {

/// A k-way regular decomposition of a map rectangle.  Footprints are
/// closed, tile `extent` exactly, and have pairwise disjoint interiors
/// (adjacent footprints share only their border).
struct ShardPlan {
  geom::Rect extent;
  std::vector<geom::Rect> footprints;
};

/// Splits `extent` into k footprints by recursive bisection: each step
/// splits the longer axis at the fraction ceil(k/2)/k, so shard areas stay
/// proportional for any k (powers of two give the familiar halving grid).
/// Deterministic; k = 0 is treated as k = 1.
ShardPlan make_shard_plan(const geom::Rect& extent, std::size_t k);

/// The segment set of every shard of a plan.
struct ShardedSegments {
  ShardPlan plan;
  /// shards[i] holds the input segments intersecting plan.footprints[i]
  /// (closed-region test), in input order.  A segment on a shard border is
  /// cloned into every shard it touches; a segment crossing several
  /// footprints appears in each of them.
  std::vector<std::vector<geom::Segment>> shards;

  /// Distinct input segments that landed in at least one shard.
  std::size_t assigned = 0;

  /// Copies across all shards beyond the first home of each segment --
  /// the duplicate-deletion work the serving merge pays for exactness.
  std::size_t clones() const {
    std::size_t total = 0;
    for (const auto& s : shards) total += s.size();
    return total - assigned;
  }
};

/// Partitions `lines` into the k shards of `make_shard_plan(extent, k)`.
/// The k = 1 degenerate returns the input verbatim -- byte-identical to
/// the unsharded build input -- so a one-shard cluster builds exactly the
/// single-engine index.
ShardedSegments shard_segments(const std::vector<geom::Segment>& lines,
                               const geom::Rect& extent, std::size_t k);

}  // namespace dps::core
