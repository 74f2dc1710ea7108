#pragma once
// Data-parallel R-tree construction (section 5.3, Figures 39-44).
//
// All lines are inserted simultaneously.  State is the line processor set
// (lines in leaf order, segment groups = leaves) plus one node processor
// set per tree level, each carried as segment-group flags that group a
// level's nodes under their parents.  Every round:
//
//   * each overflowing leaf splits once: the node-split selection of
//     section 4.7 assigns sides, a segmented unshuffle concentrates the two
//     new segments, and the new leaf is cloned into the leaf level;
//   * each overflowing internal node splits the same way over its
//     children's MBRs, bottom-up; because that reorders the child level,
//     the reordering cascades down through every lower level to the lines
//     (the "processor reordering" of section 3.3): each parent's run of
//     children moves whole to its new parent's slot, with no sort, in one
//     top-down pass for all of the round's splits;
//   * a root that gains a sibling gets a fresh root above it.
//
// Rounds repeat until every node has at most M children, giving the
// paper's O(log n) stages of O(log n) primitives each (per level, the
// split selection -- two sorts for the sweep split -- plus a constant
// number of scans and permutations for the cascade).
//
// The splits touch only the entries of overflowing groups: settled leaves
// and nodes keep their slots, and the split groups are gathered, split and
// scattered back.  Every output is the one splitting the whole set gives.

#include <cstddef>
#include <vector>

#include "core/rtree.hpp"
#include "dpv/dpv.hpp"
#include "geom/geom.hpp"
#include "prim/rtree_split.hpp"

namespace dps::core {

struct RtreeBuildOptions {
  std::size_t m = 2;  // minimum fanout (m <= M/2)
  std::size_t M = 8;  // maximum fanout / leaf capacity
  prim::RtreeSplitAlgo split = prim::RtreeSplitAlgo::kSweep;
};

struct RtreeBuildRound {
  std::size_t leaf_splits = 0;
  std::size_t internal_splits = 0;
  std::size_t leaves = 0;  // after the round
  std::size_t levels = 0;  // after the round
};

struct RtreeBuildResult {
  RTree tree;
  std::size_t rounds = 0;
  std::vector<RtreeBuildRound> trace;
  dpv::PrimCounters prims;
};

/// Builds an order-(m, M) R-tree over `lines` with simultaneous insertion.
/// The mean split cannot guarantee the minimum fanout m, so trees built
/// with it record order (1, M) for validation purposes.
RtreeBuildResult rtree_build(dpv::Context& ctx,
                             std::vector<geom::Segment> lines,
                             const RtreeBuildOptions& opts);

}  // namespace dps::core
