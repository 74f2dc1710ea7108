#pragma once
// Best-first (incremental) nearest-neighbor search over the line indexes,
// after Hjaltason & Samet: a priority queue ordered by MINDIST holds tree
// nodes and candidate segments; when a segment reaches the front it is a
// confirmed next-nearest answer.  Works unchanged on the disjoint
// quadtrees (q-edge duplicates are skipped on report) and on the R-tree.

#include <cstddef>
#include <vector>

#include "core/query.hpp"
#include "core/quadtree.hpp"
#include "core/rtree.hpp"
#include "geom/geom.hpp"

namespace dps::core {

struct Neighbor {
  geom::LineId id;
  double distance2;  // squared Euclidean distance to the segment
};

/// The k lines nearest to `q`, nearest first (ties by id).  `stats`
/// counts the nodes expanded and the stored lines whose distance was taken.
std::vector<Neighbor> k_nearest(const QuadTree& tree, const geom::Point& q,
                                std::size_t k, QueryStats* stats = nullptr);

std::vector<Neighbor> k_nearest(const RTree& tree, const geom::Point& q,
                                std::size_t k, QueryStats* stats = nullptr);

}  // namespace dps::core
