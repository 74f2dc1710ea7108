#pragma once
// R-tree node split selection (section 4.7, Figure 29).
//
// Given bounding-box entries grouped per overflowing R-tree node, selects a
// splitting axis + partition for every overflowing group simultaneously and
// reports each entry's side.  Two algorithms, as in the paper:
//
//  * kMean -- O(1) primitives per build stage: the split coordinate on each
//    axis is the mean of the entry-bbox midpoints (segmented +-scan and
//    broadcast); the axis whose two resulting MBRs overlap least wins.
//
//  * kSweep -- O(log n) per stage: entries are sorted within each group by
//    bbox minimum on the axis (scan-model radix sort); prefix/suffix MBR
//    scans give, for every candidate cut, the left and right bounding boxes
//    (Figure 29); among the legal cuts (each side receives at least m/M of
//    the entries) the one with minimal overlap area is chosen, ties broken
//    by minimal combined perimeter; the better axis wins.
//
// Degenerate mean splits (all midpoints equal, leaving a side empty) fall
// back to a balanced rank split so progress is always made.

#include <cstddef>
#include <cstdint>

#include "dpv/dpv.hpp"
#include "geom/geom.hpp"

namespace dps::prim {

enum class RtreeSplitAlgo : std::uint8_t {
  kMean = 0,
  kSweep = 1,
};

struct RtreeSplitResult {
  /// Per entry, in the caller's (pre-sort) order: 0 joins the left/low
  /// node, 1 the right/high node.  0 everywhere in non-overflowing groups.
  dpv::Flags side;
  /// Per group (group order): chosen axis, 0 = x, 1 = y.  Meaningful only
  /// for overflowing groups.
  dpv::Vec<std::uint8_t> group_axis;
  /// Per group: overlap area of the two resulting MBRs (quality metric).
  dpv::Vec<double> group_overlap;
};

/// The range the sweep split quantizes its sort keys over: per axis
/// (0 = x, 1 = y), the span of the entry-bbox minima.
struct SweepRange {
  double lo[2] = {0.0, 0.0};
  double hi[2] = {0.0, 0.0};
};

/// The sweep range of `boxes` (four reductions).
SweepRange sweep_range(dpv::Context& ctx, const dpv::Vec<geom::Rect>& boxes);

/// Plans the split of every group flagged in `elem_overflow` (flag constant
/// within each group).  `boxes` are the entry MBRs; `seg` delimits groups;
/// (m, M) is the R-tree order.  Each group's split depends only on its own
/// entries and on `range` -- null means `sweep_range(boxes)` -- so a caller
/// that passes a subset of whole groups with the full set's range gets
/// exactly the full set's sides for them.  (One caveat: on a parallel
/// context the mean split's per-group +-scans regroup a group spanning
/// three or more blocks by the block layout, as they already do between a
/// serial and a parallel context.)
RtreeSplitResult rtree_split(dpv::Context& ctx,
                             const dpv::Vec<geom::Rect>& boxes,
                             const dpv::Flags& seg,
                             const dpv::Flags& elem_overflow, std::size_t m,
                             std::size_t M, RtreeSplitAlgo algo,
                             const SweepRange* range = nullptr);

}  // namespace dps::prim
