#include "core/pmr_update.hpp"

#include <unordered_set>

#include "geom/predicates.hpp"
#include "prim/capacity_check.hpp"
#include "prim/quad_split.hpp"

namespace dps::core {

namespace {

// Rebuilds group-head flags from block equality of adjacent rows.
dpv::Flags flags_from_blocks(dpv::Context& ctx,
                             const dpv::Vec<geom::Block>& blocks) {
  return dpv::tabulate(ctx, blocks.size(), [&](std::size_t i) {
    return static_cast<std::uint8_t>(i == 0 || !(blocks[i] == blocks[i - 1]));
  });
}

// Stable radix sort of the rows by their block's hierarchical path key,
// then group heads rebuilt from the sorted blocks.
void sort_by_path_key(dpv::Context& ctx, prim::LineSet& ls) {
  dpv::Vec<std::uint64_t> keys = dpv::map(
      ctx, ls.blocks, [](const geom::Block& b) { return b.path_key(); });
  dpv::Index order = dpv::sort_keys_indices(ctx, keys, 58);
  ls.segs = dpv::gather(ctx, ls.segs, order);
  ls.blocks = dpv::gather(ctx, ls.blocks, order);
  ls.seg = flags_from_blocks(ctx, ls.blocks);
}

void finish(dpv::Context& ctx, prim::LineSet& ls, QuadBuildResult& res,
            const dpv::PrimCounters& before) {
  res.tree = QuadTree::from_line_set(ls);
  res.prims = ctx.counters() - before;
}

}  // namespace

prim::LineSet line_set_from(const QuadTree& tree) {
  prim::LineSet ls;
  ls.world = tree.world();
  if (tree.num_nodes() == 0) return ls;
  // DFS in quadrant order so sibling groups stay adjacent.
  std::vector<std::int32_t> stack{0};
  while (!stack.empty()) {
    const QuadTree::Node& nd = tree.nodes()[stack.back()];
    stack.pop_back();
    if (nd.is_leaf) {
      for (std::uint32_t i = 0; i < nd.num_edges; ++i) {
        ls.segs.push_back(tree.edges()[nd.first_edge + i]);
        ls.blocks.push_back(nd.block);
        ls.seg.push_back(i == 0 ? 1 : 0);
      }
      continue;
    }
    for (int q = 3; q >= 0; --q) {  // reversed: stack pops NW first
      if (nd.child[q] != QuadTree::kNoChild) stack.push_back(nd.child[q]);
    }
  }
  return ls;
}

void pmr_split_rounds(dpv::Context& ctx, prim::LineSet& ls,
                      const PmrBuildOptions& opts, QuadBuildResult& res) {
  // A group's rows change only when it splits, so a group that does not
  // split this round never will: it retires from the processor set, and
  // later rounds touch only the groups still splitting.  The trace keeps
  // counting retired rows and groups, as if they rode along.
  dpv::Vec<geom::Segment> retired_segs;
  dpv::Vec<geom::Block> retired_blocks;
  std::size_t retired_groups = 0;
  for (;;) {
    const prim::CapacityCheck cc =
        prim::capacity_check(ctx, ls.seg, opts.bucket_capacity);
    dpv::Flags want = dpv::tabulate(ctx, ls.size(), [&](std::size_t i) {
      return static_cast<std::uint8_t>(cc.elem_overflow[i] &&
                                       ls.blocks[i].depth < opts.max_depth);
    });
    const std::size_t capped = dpv::reduce(
        ctx, dpv::Plus<std::size_t>{},
        dpv::tabulate(ctx, ls.size(), [&](std::size_t i) {
          return std::size_t{cc.elem_overflow[i] != 0 &&
                             ls.blocks[i].depth >= opts.max_depth};
        }));
    if (capped > 0) res.depth_limited = true;
    const std::size_t splitters =
        dpv::reduce(ctx, dpv::Plus<std::size_t>{},
                    dpv::map(ctx, want, [](std::uint8_t f) {
                      return std::size_t{f != 0};
                    }));
    if (splitters == 0) break;

    BuildRound round;
    round.line_processors = ls.size() + retired_segs.size();
    const std::size_t groups = dpv::num_segments(ls.seg);
    round.groups = groups + retired_groups;
    if (splitters < ls.size()) {
      // Whole groups leave, so every kept group keeps its head flag.
      const dpv::Flags settled = dpv::map(
          ctx, want, [](std::uint8_t f) { return std::uint8_t{f == 0}; });
      const dpv::Vec<geom::Segment> gone_segs =
          dpv::pack(ctx, ls.segs, settled);
      const dpv::Vec<geom::Block> gone_blocks =
          dpv::pack(ctx, ls.blocks, settled);
      retired_segs.insert(retired_segs.end(), gone_segs.begin(),
                          gone_segs.end());
      retired_blocks.insert(retired_blocks.end(), gone_blocks.begin(),
                            gone_blocks.end());
      ls.segs = dpv::pack(ctx, ls.segs, want);
      ls.blocks = dpv::pack(ctx, ls.blocks, want);
      ls.seg = dpv::pack(ctx, ls.seg, want);
      retired_groups += groups - dpv::num_segments(ls.seg);
      want = dpv::constant<std::uint8_t>(ctx, ls.size(), 1);
    }
    prim::QuadSplitStats stats;
    ls = prim::quad_split(ctx, ls, want, &stats);
    round.nodes_split = stats.nodes_split;
    round.clones_made = stats.clones_made;
    res.trace.push_back(round);
    ++res.rounds;
  }
  if (retired_segs.empty()) return;

  // Rejoin the retired groups.  Blocks form an antichain, so path-key order
  // is the canonical group order quad_split emits; the sort is stable and
  // each group sits whole on one side of the join, so rows keep their
  // order within a group.
  ls.segs.insert(ls.segs.begin(), retired_segs.begin(), retired_segs.end());
  ls.blocks.insert(ls.blocks.begin(), retired_blocks.begin(),
                   retired_blocks.end());
  sort_by_path_key(ctx, ls);
}

QuadBuildResult pmr_insert(dpv::Context& ctx, const QuadTree& tree,
                           const std::vector<geom::Segment>& new_lines,
                           const PmrBuildOptions& opts) {
  const dpv::PrimCounters before = ctx.counters();
  QuadBuildResult res;
  prim::LineSet ls = line_set_from(tree);

  // Place each new line into every existing leaf -- or unmaterialized empty
  // quadrant -- whose region it properly intersects.
  std::vector<geom::Segment> add_segs;
  std::vector<geom::Block> add_blocks;
  std::vector<std::int32_t> stack;
  for (const auto& line : new_lines) {
    if (tree.num_nodes() == 0) {
      add_segs.push_back(line);
      add_blocks.push_back(geom::Block::root());
      continue;
    }
    stack.assign(1, 0);
    while (!stack.empty()) {
      const QuadTree::Node& nd = tree.nodes()[stack.back()];
      stack.pop_back();
      if (!geom::segment_properly_intersects_rect(
              line, nd.block.rect(tree.world()))) {
        continue;
      }
      if (nd.is_leaf) {
        add_segs.push_back(line);
        add_blocks.push_back(nd.block);
        continue;
      }
      for (int q = 0; q < 4; ++q) {
        if (nd.child[q] != QuadTree::kNoChild) {
          stack.push_back(nd.child[q]);
        } else {
          const geom::Block cb = nd.block.child(static_cast<geom::Quadrant>(q));
          if (geom::segment_properly_intersects_rect(line,
                                                     cb.rect(tree.world()))) {
            add_segs.push_back(line);
            add_blocks.push_back(cb);
          }
        }
      }
    }
  }

  // Append, then restore the canonical group order with a radix sort on the
  // hierarchical path key (the combined blocks remain an antichain, so path
  // keys order them consistently); the sort is stable, so existing rows of
  // a group keep their relative order.
  ls.segs.insert(ls.segs.end(), add_segs.begin(), add_segs.end());
  ls.blocks.insert(ls.blocks.end(), add_blocks.begin(), add_blocks.end());
  sort_by_path_key(ctx, ls);

  pmr_split_rounds(ctx, ls, opts, res);
  finish(ctx, ls, res, before);
  return res;
}

QuadBuildResult pmr_delete(dpv::Context& ctx, const QuadTree& tree,
                           const std::vector<geom::LineId>& doomed,
                           const PmrBuildOptions& opts) {
  const dpv::PrimCounters before = ctx.counters();
  QuadBuildResult res;
  prim::LineSet ls = line_set_from(tree);

  // Pack the doomed q-edges out.
  const std::unordered_set<geom::LineId> gone(doomed.begin(), doomed.end());
  dpv::Flags keep = dpv::map(ctx, ls.segs, [&](const geom::Segment& s) {
    return static_cast<std::uint8_t>(!gone.count(s.id));
  });
  ls.segs = dpv::pack(ctx, ls.segs, keep);
  ls.blocks = dpv::pack(ctx, ls.blocks, keep);
  ls.seg = flags_from_blocks(ctx, ls.blocks);

  // Merge rounds: a sibling run merges when (a) its immediate parent has no
  // deeper descendants left in the ordering (checked against the runs
  // adjacent to it) and (b) the run's distinct line count is at most the
  // bucket capacity.
  for (;;) {
    const std::size_t n = ls.size();
    if (n == 0) break;
    // Parent block per q-edge; the root leaf never merges.
    dpv::Vec<geom::Block> parent = dpv::map(
        ctx, ls.blocks, [](const geom::Block& b) {
          return b.depth == 0 ? b : b.parent();
        });
    dpv::Flags prun = dpv::tabulate(ctx, n, [&](std::size_t i) {
      return static_cast<std::uint8_t>(i == 0 || !(parent[i] == parent[i - 1]));
    });
    // Distinct line ids within each parent run: sort by id, count firsts.
    dpv::Vec<std::uint32_t> id32 = dpv::map(
        ctx, ls.segs, [](const geom::Segment& s) { return s.id; });
    dpv::Index order = dpv::seg_sort_indices(ctx, id32, prun);
    dpv::Vec<std::uint32_t> sorted_id = dpv::gather(ctx, id32, order);
    dpv::Vec<std::size_t> is_first = dpv::tabulate(ctx, n, [&](std::size_t i) {
      return std::size_t{i == 0 || prun[i] != 0 ||
                         sorted_id[i] != sorted_id[i - 1]};
    });
    dpv::Vec<std::size_t> distinct = dpv::seg_broadcast(
        ctx,
        dpv::seg_scan(ctx, dpv::Plus<std::size_t>{}, is_first, prun,
                      dpv::Dir::kDown, dpv::Incl::kInclusive),
        prun);
    // Per-element merge verdict (constant within a parent run).
    dpv::Vec<std::size_t> run_start = dpv::seg_broadcast(ctx, dpv::iota(ctx, n), prun);
    dpv::Vec<std::size_t> run_len = dpv::seg_broadcast(
        ctx,
        dpv::seg_scan(ctx, dpv::Plus<std::size_t>{},
                      dpv::constant<std::size_t>(ctx, n, 1), prun,
                      dpv::Dir::kDown, dpv::Incl::kInclusive),
        prun);
    dpv::Flags merge = dpv::tabulate(ctx, n, [&](std::size_t i) {
      const geom::Block& p = parent[i];
      if (ls.blocks[i].depth == 0) return std::uint8_t{0};
      if (distinct[i] > opts.bucket_capacity) return std::uint8_t{0};
      const std::size_t lo = run_start[i];
      const std::size_t hi = lo + run_len[i];
      if (lo > 0 && ls.blocks[lo - 1].strict_descendant_of(p)) {
        return std::uint8_t{0};  // a deeper subtree interrupts on the left
      }
      if (hi < n && ls.blocks[hi].strict_descendant_of(p)) {
        return std::uint8_t{0};  // ... or on the right
      }
      return std::uint8_t{1};
    });
    const std::size_t merging =
        dpv::reduce(ctx, dpv::Plus<std::size_t>{},
                    dpv::zip_with(ctx, merge, prun,
                                  [](std::uint8_t m, std::uint8_t h) {
                                    return std::size_t{m != 0 && h != 0};
                                  }));
    if (merging == 0) break;

    // Apply: bring only the *merging* runs into id order (the radix sort is
    // stable and non-merging rows carry a constant key, so their original
    // group layout is untouched); duplicate q-edges of a line cloned into
    // several merging siblings are then adjacent -- keep the first of each
    // and lift merged rows to the parent block.
    dpv::Vec<std::uint32_t> masked_key = dpv::tabulate(ctx, n, [&](std::size_t i) {
      return merge[i] ? id32[i] : 0u;
    });
    dpv::Index apply_order = dpv::seg_sort_indices(ctx, masked_key, prun);
    dpv::Vec<geom::Segment> sorted_segs = dpv::gather(ctx, ls.segs, apply_order);
    dpv::Vec<geom::Block> sorted_blocks =
        dpv::gather(ctx, ls.blocks, apply_order);
    dpv::Flags merge_sorted = dpv::gather(ctx, merge, apply_order);
    dpv::Vec<std::uint32_t> id_sorted = dpv::gather(ctx, id32, apply_order);
    dpv::Flags keep_sorted = dpv::tabulate(ctx, n, [&](std::size_t i) {
      if (!merge_sorted[i]) return std::uint8_t{1};
      return static_cast<std::uint8_t>(i == 0 || prun[i] != 0 ||
                                       id_sorted[i] != id_sorted[i - 1]);
    });
    dpv::Vec<geom::Block> lifted = dpv::tabulate(ctx, n, [&](std::size_t i) {
      return merge_sorted[i] ? sorted_blocks[i].parent() : sorted_blocks[i];
    });
    ls.segs = dpv::pack(ctx, sorted_segs, keep_sorted);
    ls.blocks = dpv::pack(ctx, lifted, keep_sorted);
    ls.seg = flags_from_blocks(ctx, ls.blocks);
    ++res.rounds;
  }

  finish(ctx, ls, res, before);
  return res;
}

}  // namespace dps::core
