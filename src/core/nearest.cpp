#include "core/nearest.hpp"

#include <algorithm>
#include <queue>
#include <unordered_set>

#include "geom/predicates.hpp"

namespace dps::core {

namespace {

// Queue entry: a node (segment = false) or a candidate line.  Ordered by
// distance; at equal distance nodes pop before segments, so by the time a
// segment at distance d is reported every node with mindist <= d has been
// expanded and all equal-distance rivals are in the queue.  That makes the
// output globally ordered by (distance^2, id) -- the canonical tie order
// the batch pipeline reproduces.
struct Entry {
  double d2;
  bool is_segment;
  std::int32_t node;   // when !is_segment
  geom::LineId id;     // when is_segment
  bool operator>(const Entry& o) const {
    if (d2 != o.d2) return d2 > o.d2;
    if (is_segment != o.is_segment) return is_segment;
    return id > o.id;
  }
};

using Queue = std::priority_queue<Entry, std::vector<Entry>, std::greater<>>;

template <typename ExpandNode>
std::vector<Neighbor> best_first(Queue& queue, std::size_t k,
                                 QueryStats* stats, ExpandNode&& expand) {
  std::vector<Neighbor> out;
  std::unordered_set<geom::LineId> reported;
  while (!queue.empty() && out.size() < k) {
    const Entry e = queue.top();
    queue.pop();
    if (e.is_segment) {
      // A q-edge may surface once per block it was cloned into.
      if (reported.insert(e.id).second) out.push_back({e.id, e.d2});
      continue;
    }
    if (stats != nullptr) ++stats->nodes_visited;
    expand(e.node, queue);
  }
  return out;
}

}  // namespace

std::vector<Neighbor> k_nearest(const QuadTree& tree, const geom::Point& q,
                                std::size_t k, QueryStats* stats) {
  if (tree.num_nodes() == 0 || k == 0) return {};
  Queue queue;
  queue.push({tree.root().block.rect(tree.world()).distance2(q), false, 0, 0});
  return best_first(queue, k, stats, [&](std::int32_t n, Queue& pq) {
    const QuadTree::Node& nd = tree.nodes()[n];
    if (nd.is_leaf) {
      const auto [first, last] = tree.leaf_edges(nd);
      if (stats != nullptr) stats->segments_tested += last - first;
      for (const geom::Segment* s = first; s != last; ++s) {
        pq.push({geom::distance2_point_segment(q, s->a, s->b), true, 0,
                 s->id});
      }
      return;
    }
    for (const std::int32_t c : nd.child) {
      if (c == QuadTree::kNoChild) continue;
      pq.push({tree.nodes()[c].block.rect(tree.world()).distance2(q), false,
               c, 0});
    }
  });
}

std::vector<Neighbor> k_nearest(const RTree& tree, const geom::Point& q,
                                std::size_t k, QueryStats* stats) {
  if (tree.empty() || k == 0) return {};
  Queue queue;
  queue.push({tree.root().mbr.distance2(q), false, 0, 0});
  return best_first(queue, k, stats, [&](std::int32_t n, Queue& pq) {
    const RTree::Node& nd = tree.nodes()[n];
    if (nd.is_leaf) {
      if (stats != nullptr) stats->segments_tested += nd.num_entries;
      for (std::uint32_t i = 0; i < nd.num_entries; ++i) {
        const geom::Segment& s = tree.entries()[nd.first_entry + i];
        pq.push({geom::distance2_point_segment(q, s.a, s.b), true, 0, s.id});
      }
      return;
    }
    for (std::int32_t i = 0; i < nd.num_children; ++i) {
      const std::int32_t c = nd.first_child + i;
      pq.push({tree.nodes()[c].mbr.distance2(q), false, c, 0});
    }
  });
}

}  // namespace dps::core
