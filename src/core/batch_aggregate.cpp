#include "core/batch_aggregate.hpp"

#include <algorithm>

#include "core/geom_tiles.hpp"
#include "geom/predicates.hpp"

namespace dps::core {

namespace {

// Control poll cadence during host-side candidate generation (matches
// batch_query.cpp: deadline checks read the clock).
constexpr std::size_t kControlStride = 64;

// Distinct lines of an edge array (q-edge clones collapsed), sorted by id.
std::vector<geom::Segment> distinct_lines(
    const std::vector<geom::Segment>& edges) {
  std::vector<geom::Segment> lines(edges);
  std::sort(lines.begin(), lines.end(),
            [](const geom::Segment& a, const geom::Segment& b) {
              return a.id < b.id;
            });
  lines.erase(std::unique(lines.begin(), lines.end(),
                          [](const geom::Segment& a, const geom::Segment& b) {
                            return a.id == b.id;
                          }),
              lines.end());
  return lines;
}

// Clip-kernel fringe pass shared by the two pipelines: clips every
// candidate against its window on SoA tiles, then accumulates accepted
// hits per window in candidate order (each window's sum stays on one
// worker, so the order is schedule-independent).  Returns true on abort.
template <typename SegAt>
bool finish_fringe(dpv::Context& ctx, const BatchControl& control,
                   const std::vector<geom::Rect>& windows,
                   const std::vector<std::uint32_t>& cand_win,
                   const std::vector<std::uint32_t>& win_first,
                   SegAt&& seg_at, const AggregateScope& scope,
                   std::vector<WindowAggregate>& results) {
  const std::size_t n = cand_win.size();
  if (n == 0) return batch_aborting(ctx, control);
  if (batch_aborting(ctx, control)) return true;
  dpv::Vec<double> t0(n);
  dpv::Vec<double> t1(n);
  dpv::Flags accept(n);
  tile_clip_segment_rect(
      ctx, n, seg_at,
      [&](std::size_t i) -> const geom::Rect& {
        return windows[cand_win[i]];
      },
      t0.data(), t1.data(), accept.data());
  if (batch_aborting(ctx, control)) return true;
  ctx.for_blocks(windows.size(),
                 [&](std::size_t, std::size_t lo, std::size_t hi) {
                   for (std::size_t w = lo; w < hi; ++w) {
                     WindowAggregate& g = results[w];
                     for (std::uint32_t c = win_first[w]; c < win_first[w + 1];
                          ++c) {
                       if (accept[c] == 0) continue;
                       accumulate_hit(g, seg_at(c), t0[c], t1[c], scope);
                     }
                   }
                 });
  ctx.count(dpv::Prim::kReduce, n);
  return batch_aborting(ctx, control);
}

// The line's assignment node: descend from the root taking the first child
// in Quadrant order whose closed cell contains the line's bbox; stop at a
// leaf, at a missing child, or when no single child contains the line.
std::uint32_t quad_assignment_node(const QuadTree& tree,
                                   const geom::Rect& bb) {
  const auto& nodes = tree.nodes();
  std::int32_t cur = 0;
  for (;;) {
    const QuadTree::Node& nd = nodes[static_cast<std::size_t>(cur)];
    if (nd.is_leaf) break;
    std::int32_t next = QuadTree::kNoChild;
    for (int q = 0; q < 4; ++q) {
      const geom::Block cb = nd.block.child(static_cast<geom::Quadrant>(q));
      if (cb.rect(tree.world()).contains(bb)) {
        next = nd.child[q];
        break;
      }
    }
    if (next == QuadTree::kNoChild) break;
    cur = next;
  }
  return static_cast<std::uint32_t>(cur);
}

// Groups `assign` (element -> bucket) into a CSR over `buckets` buckets,
// preserving element order within each bucket.
void group_to_csr(const std::vector<std::uint32_t>& assign,
                  std::size_t buckets, std::vector<std::uint32_t>& first,
                  std::vector<std::uint32_t>& items) {
  first.assign(buckets + 1, 0);
  for (const std::uint32_t b : assign) ++first[b + 1];
  for (std::size_t b = 1; b <= buckets; ++b) first[b] += first[b - 1];
  items.resize(assign.size());
  std::vector<std::uint32_t> cursor(first.begin(), first.end() - 1);
  for (std::size_t i = 0; i < assign.size(); ++i) {
    items[cursor[assign[i]]++] = static_cast<std::uint32_t>(i);
  }
}

}  // namespace

// ---- Annotation builders. ----

QuadAggAnnotations build_agg_annotations(const QuadTree& tree,
                                         const AggregateScope& scope) {
  QuadAggAnnotations ann;
  ann.scope = scope;
  ann.lines = distinct_lines(tree.edges());
  const std::size_t num_nodes = tree.nodes().size();
  if (num_nodes == 0) {
    ann.node_first.assign(1, 0);
    return ann;
  }
  std::vector<std::uint32_t> assign(ann.lines.size());
  for (std::size_t i = 0; i < ann.lines.size(); ++i) {
    assign[i] = quad_assignment_node(tree, ann.lines[i].bbox());
  }
  group_to_csr(assign, num_nodes, ann.node_first, ann.node_lines);

  ann.subtree.assign(num_nodes, WindowAggregate{});
  const auto rec = [&](auto&& self, std::int32_t idx) -> void {
    const QuadTree::Node& nd = tree.nodes()[static_cast<std::size_t>(idx)];
    WindowAggregate g;
    for (std::uint32_t k = ann.node_first[idx]; k < ann.node_first[idx + 1];
         ++k) {
      g.merge(full_contribution(ann.lines[ann.node_lines[k]], scope));
    }
    for (int q = 0; q < 4; ++q) {
      if (nd.child[q] == QuadTree::kNoChild) continue;
      self(self, nd.child[q]);
      g.merge(ann.subtree[nd.child[q]]);
    }
    ann.subtree[static_cast<std::size_t>(idx)] = g;
  };
  rec(rec, 0);
  return ann;
}

RTreeAggAnnotations build_agg_annotations(const RTree& tree,
                                          const AggregateScope& scope) {
  RTreeAggAnnotations ann;
  ann.scope = scope;
  ann.subtree.assign(tree.nodes().size(), WindowAggregate{});
  if (tree.empty()) return ann;
  const auto rec = [&](auto&& self, std::int32_t idx) -> void {
    const RTree::Node& nd = tree.nodes()[static_cast<std::size_t>(idx)];
    WindowAggregate g;
    if (nd.is_leaf) {
      for (std::uint32_t e = 0; e < nd.num_entries; ++e) {
        g.merge(
            full_contribution(tree.entries()[nd.first_entry + e], scope));
      }
    } else {
      for (std::int32_t c = 0; c < nd.num_children; ++c) {
        self(self, nd.first_child + c);
        g.merge(ann.subtree[static_cast<std::size_t>(nd.first_child + c)]);
      }
    }
    ann.subtree[static_cast<std::size_t>(idx)] = g;
  };
  rec(rec, 0);
  return ann;
}

// ---- Batch pipelines. ----

BatchAggregateResult batch_window_aggregate(dpv::Context& ctx,
                                            const QuadTree& tree,
                                            const QuadAggAnnotations& ann,
                                            const std::vector<geom::Rect>& windows,
                                            const BatchControl& control) {
  BatchAggregateResult out;
  out.results.assign(windows.size(), WindowAggregate{});
  if (tree.num_nodes() == 0 || windows.empty()) return out;
  auto round = ctx.scoped_round();

  // Host descent per window: covered subtrees short-circuit through their
  // annotations, partial nodes contribute their own assigned lines as
  // fringe candidates, disjoint subtrees vanish.
  std::vector<std::uint32_t> cand_win;
  std::vector<std::uint32_t> cand_line;
  std::vector<std::uint32_t> win_first(windows.size() + 1, 0);
  std::vector<std::int32_t> stack;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    if (w % kControlStride == 0 && batch_aborting(ctx, control)) {
      out.aborted = true;
      return out;
    }
    const geom::Rect& win = windows[w];
    stack.assign(1, 0);
    while (!stack.empty()) {
      const std::int32_t idx = stack.back();
      stack.pop_back();
      const QuadTree::Node& nd = tree.nodes()[static_cast<std::size_t>(idx)];
      const geom::Rect cell = nd.block.rect(tree.world());
      if (!win.intersects(cell)) continue;
      if (win.contains(cell)) {
        out.results[w].merge(ann.subtree[static_cast<std::size_t>(idx)]);
        ++out.covered;
        continue;
      }
      for (std::uint32_t k = ann.node_first[idx]; k < ann.node_first[idx + 1];
           ++k) {
        cand_win.push_back(static_cast<std::uint32_t>(w));
        cand_line.push_back(ann.node_lines[k]);
      }
      if (!nd.is_leaf) {
        for (const std::int32_t c : nd.child) {
          if (c != QuadTree::kNoChild) stack.push_back(c);
        }
      }
    }
    win_first[w + 1] = static_cast<std::uint32_t>(cand_line.size());
  }
  out.candidates = cand_line.size();
  out.aborted = finish_fringe(
      ctx, control, windows, cand_win, win_first,
      [&](std::size_t i) -> const geom::Segment& {
        return ann.lines[cand_line[i]];
      },
      ann.scope, out.results);
  return out;
}

BatchAggregateResult batch_window_aggregate(dpv::Context& ctx,
                                            const RTree& tree,
                                            const RTreeAggAnnotations& ann,
                                            const std::vector<geom::Rect>& windows,
                                            const BatchControl& control) {
  BatchAggregateResult out;
  out.results.assign(windows.size(), WindowAggregate{});
  if (tree.empty() || windows.empty()) return out;
  auto round = ctx.scoped_round();

  std::vector<std::uint32_t> cand_win;
  std::vector<std::uint32_t> cand_entry;
  std::vector<std::uint32_t> win_first(windows.size() + 1, 0);
  std::vector<std::int32_t> stack;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    if (w % kControlStride == 0 && batch_aborting(ctx, control)) {
      out.aborted = true;
      return out;
    }
    const geom::Rect& win = windows[w];
    stack.assign(1, 0);
    while (!stack.empty()) {
      const std::int32_t idx = stack.back();
      stack.pop_back();
      const RTree::Node& nd = tree.nodes()[static_cast<std::size_t>(idx)];
      if (!win.intersects(nd.mbr)) continue;
      if (win.contains(nd.mbr)) {
        out.results[w].merge(ann.subtree[static_cast<std::size_t>(idx)]);
        ++out.covered;
        continue;
      }
      if (nd.is_leaf) {
        for (std::uint32_t e = 0; e < nd.num_entries; ++e) {
          cand_win.push_back(static_cast<std::uint32_t>(w));
          cand_entry.push_back(nd.first_entry + e);
        }
        continue;
      }
      for (std::int32_t c = 0; c < nd.num_children; ++c) {
        stack.push_back(nd.first_child + c);
      }
    }
    win_first[w + 1] = static_cast<std::uint32_t>(cand_entry.size());
  }
  out.candidates = cand_entry.size();
  out.aborted = finish_fringe(
      ctx, control, windows, cand_win, win_first,
      [&](std::size_t i) -> const geom::Segment& {
        return tree.entries()[cand_entry[i]];
      },
      ann.scope, out.results);
  return out;
}

// ---- Host sequential baselines. ----
//
// Same two-phase order as the pipelines (covered merges during the
// descent, fringe candidates clipped afterwards in candidate order) with
// the scalar clip predicate, so the answers are bitwise equal.

namespace {

template <typename SegAt>
void seq_fringe(const geom::Rect& win, std::size_t n, SegAt&& seg_at,
                const AggregateScope& scope, WindowAggregate& g) {
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Segment& s = seg_at(i);
    double t0 = 0.0;
    double t1 = 1.0;
    if (!geom::clip_segment_to_rect(s.a, s.b, win, t0, t1)) continue;
    accumulate_hit(g, s, t0, t1, scope);
  }
}

}  // namespace

WindowAggregate window_aggregate_seq(const QuadTree& tree,
                                     const QuadAggAnnotations& ann,
                                     const geom::Rect& window) {
  WindowAggregate g;
  if (tree.num_nodes() == 0) return g;
  std::vector<std::uint32_t> cand;
  std::vector<std::int32_t> stack(1, 0);
  std::size_t covered = 0;
  while (!stack.empty()) {
    const std::int32_t idx = stack.back();
    stack.pop_back();
    const QuadTree::Node& nd = tree.nodes()[static_cast<std::size_t>(idx)];
    const geom::Rect cell = nd.block.rect(tree.world());
    if (!window.intersects(cell)) continue;
    if (window.contains(cell)) {
      g.merge(ann.subtree[static_cast<std::size_t>(idx)]);
      ++covered;
      continue;
    }
    for (std::uint32_t k = ann.node_first[idx]; k < ann.node_first[idx + 1];
         ++k) {
      cand.push_back(ann.node_lines[k]);
    }
    if (!nd.is_leaf) {
      for (const std::int32_t c : nd.child) {
        if (c != QuadTree::kNoChild) stack.push_back(c);
      }
    }
  }
  seq_fringe(
      window, cand.size(),
      [&](std::size_t i) -> const geom::Segment& {
        return ann.lines[cand[i]];
      },
      ann.scope, g);
  return g;
}

WindowAggregate window_aggregate_seq(const RTree& tree,
                                     const RTreeAggAnnotations& ann,
                                     const geom::Rect& window) {
  WindowAggregate g;
  if (tree.empty()) return g;
  std::vector<std::uint32_t> cand;
  std::vector<std::int32_t> stack(1, 0);
  while (!stack.empty()) {
    const std::int32_t idx = stack.back();
    stack.pop_back();
    const RTree::Node& nd = tree.nodes()[static_cast<std::size_t>(idx)];
    if (!window.intersects(nd.mbr)) continue;
    if (window.contains(nd.mbr)) {
      g.merge(ann.subtree[static_cast<std::size_t>(idx)]);
      continue;
    }
    if (nd.is_leaf) {
      for (std::uint32_t e = 0; e < nd.num_entries; ++e) {
        cand.push_back(nd.first_entry + e);
      }
      continue;
    }
    for (std::int32_t c = 0; c < nd.num_children; ++c) {
      stack.push_back(nd.first_child + c);
    }
  }
  seq_fringe(
      window, cand.size(),
      [&](std::size_t i) -> const geom::Segment& {
        return tree.entries()[cand[i]];
      },
      ann.scope, g);
  return g;
}

}  // namespace dps::core
