#pragma once
// Dynamic updates for the bucket PMR quadtree: data-parallel batch insert
// and batch delete.
//
// Section 2.2 defines PMR deletion as removing the line from every block it
// intersects and merging sibling buckets whose combined occupancy drops
// below the threshold, reapplying the merge upward.  For the *bucket* PMR
// quadtree the analogous rule -- merge a sibling set when its distinct
// line count is at most the bucket capacity -- restores the canonical
// decomposition: because the structure's shape is history-independent,
// *insert and delete both leave exactly the tree a from-scratch rebuild of
// the surviving lines would produce* (tested as such).
//
// Both operations run as data-parallel rounds over the line processor set:
// inserts place new q-edges into the leaves they properly intersect and
// re-run the build's split rounds on overflowing buckets; deletes pack the
// doomed q-edges out and run merge rounds (segmented duplicate deletion
// collapses the q-edges of lines cloned into several merged siblings).

#include <vector>

#include "core/pmr_build.hpp"
#include "core/quadtree.hpp"
#include "dpv/dpv.hpp"
#include "geom/geom.hpp"
#include "prim/line_set.hpp"

namespace dps::core {

/// Reconstructs the line processor set of a built quadtree (groups = the
/// non-empty leaves, in stored leaf order).
prim::LineSet line_set_from(const QuadTree& tree);

/// Inserts `new_lines` (ids must not collide with existing ones) and
/// re-splits overflowing buckets.  Returns the updated tree.
QuadBuildResult pmr_insert(dpv::Context& ctx, const QuadTree& tree,
                           const std::vector<geom::Segment>& new_lines,
                           const PmrBuildOptions& opts);

/// Deletes every line whose id appears in `doomed` and merges underfull
/// sibling sets (rounds run until no merge applies).
QuadBuildResult pmr_delete(dpv::Context& ctx, const QuadTree& tree,
                           const std::vector<geom::LineId>& doomed,
                           const PmrBuildOptions& opts);

/// The build's split loop, exposed for reuse by pmr_insert: repeatedly
/// splits every bucket over capacity (below the depth cap) starting from a
/// line set in canonical group order.  Groups that stop splitting retire
/// from the processor set, so later rounds touch only the splitting ones;
/// `ls` comes back whole, in canonical order.  Appends per-round statistics
/// (retired groups still counted) to `res`.
void pmr_split_rounds(dpv::Context& ctx, prim::LineSet& ls,
                      const PmrBuildOptions& opts, QuadBuildResult& res);

}  // namespace dps::core
