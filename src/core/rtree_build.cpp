#include "core/rtree_build.hpp"

#include <cassert>
#include <utility>

#include "core/validate.hpp"
#include "prim/capacity_check.hpp"
#include "prim/clone.hpp"
#include "prim/unshuffle.hpp"

namespace dps::core {

namespace {

// Build state: the line processor set plus per-level parent groupings.
struct BuildState {
  dpv::Vec<geom::Segment> segs;   // lines, leaf-grouped
  dpv::Flags line_seg;            // line groups = leaves (level 0 nodes)
  std::vector<dpv::Flags> levels; // levels[L]: level-L nodes grouped by
                                  // their level-(L+1) parents; the top
                                  // level always holds exactly one node
  std::size_t node_count(std::size_t level) const {
    return levels[level].size();
  }
};

// Moves each run of a grouping (`flags`: children grouped under their
// parents) whole and in order to follow its parent, which moved by
// `parent_move` (old position -> new position).  A child's destination is
// its new parent's run start plus its rank in the run; the new run starts
// are an exclusive +-scan of the run lengths laid out in new parent order.
// Rewrites `flags` to the moved layout and returns the children's move.
dpv::Index move_runs(dpv::Context& ctx, dpv::Flags& flags,
                     const dpv::Index& parent_move) {
  const std::size_t n = flags.size();
  const std::size_t parents = parent_move.size();
  const dpv::Index iota = dpv::iota(ctx, n);
  const dpv::Index run_start = dpv::seg_broadcast(ctx, iota, flags);
  const dpv::Index old_start = dpv::seg_heads(ctx, iota, flags);
  assert(old_start.size() == parents && "level alignment broken");
  const dpv::Vec<std::size_t> run_len =
      dpv::tabulate(ctx, parents, [&](std::size_t p) {
        return (p + 1 < parents ? old_start[p + 1] : n) - old_start[p];
      });
  const dpv::Index new_start =
      dpv::scan(ctx, dpv::Plus<std::size_t>{},
                dpv::permute(ctx, run_len, parent_move), dpv::Dir::kUp,
                dpv::Incl::kExclusive);
  const dpv::Index parent = dpv::scan(
      ctx, dpv::Plus<std::size_t>{},
      dpv::tabulate(ctx, n,
                    [&](std::size_t i) {
                      return std::size_t{i != 0 && run_start[i] == i};
                    }),
      dpv::Dir::kUp, dpv::Incl::kInclusive);
  dpv::Index move = dpv::tabulate(ctx, n, [&](std::size_t i) {
    return new_start[parent_move[parent[i]]] + (i - run_start[i]);
  });
  flags = dpv::permute(ctx,
                       dpv::tabulate(ctx, n,
                                     [&](std::size_t i) {
                                       return static_cast<std::uint8_t>(
                                           run_start[i] == i);
                                     }),
                       move);
  return move;
}

// Restores the children-follow-parents layout after a round's internal
// splits (the "processor reordering" of section 3.3), once for the whole
// round.  `moved[L]` is level L's own split move (empty when it did not
// split).  Top-down, a level's total move is its own move followed by the
// run move its parents' total move induces; the level below groups its
// runs by exactly that total, so one pass lands every level, and the
// lines, where splitting and cascading level by level would.
void cascade_moves(dpv::Context& ctx, BuildState& st,
                   std::vector<dpv::Index> moved) {
  dpv::Index parent_move;  // total move of the level above; empty = none
  for (std::ptrdiff_t k = static_cast<std::ptrdiff_t>(st.levels.size()) - 1;
       k >= -1; --k) {
    dpv::Index own = k >= 0 ? std::move(moved[k]) : dpv::Index{};
    if (!parent_move.empty()) {
      dpv::Flags& flags = k >= 0 ? st.levels[k] : st.line_seg;
      const dpv::Index runs = move_runs(ctx, flags, parent_move);
      if (k == -1) st.segs = dpv::permute(ctx, st.segs, runs);
      own = own.empty() ? runs : dpv::gather(ctx, runs, own);
    }
    parent_move = std::move(own);
  }
}

// The sweep split's quantization range over a whole processor set; the
// mean split has none.
prim::SweepRange sweep_range_for(dpv::Context& ctx,
                                 const RtreeBuildOptions& opts,
                                 const dpv::Vec<geom::Rect>& boxes) {
  return opts.split == prim::RtreeSplitAlgo::kSweep
             ? prim::sweep_range(ctx, boxes)
             : prim::SweepRange{};
}

// The rows of the overflowing groups, ascending: the frontier a split
// touches.
dpv::Index frontier_rows(dpv::Context& ctx, const prim::CapacityCheck& cc) {
  return dpv::pack(ctx, dpv::iota(ctx, cc.elem_overflow.size()),
                   cc.elem_overflow);
}

// Splits every group of a frontier at once (all of them overflow): side
// selection over the frontier's `boxes` and groups `seg`, then the
// segmented unshuffle plan, in frontier positions.  Quantizing the sweep
// keys over the whole set's `range` makes each group's split exactly the
// one the whole set would get.
prim::UnshufflePlan split_frontier(dpv::Context& ctx,
                                   const dpv::Vec<geom::Rect>& boxes,
                                   const dpv::Flags& seg,
                                   const RtreeBuildOptions& opts,
                                   const prim::SweepRange& range) {
  const prim::RtreeSplitResult split = prim::rtree_split(
      ctx, boxes, seg, dpv::constant<std::uint8_t>(ctx, boxes.size(), 1),
      opts.m, opts.M, opts.split, &range);
  return prim::plan_seg_unshuffle(ctx, split.side, seg);
}

// Appends a fresh root level whenever the current top level holds more
// than one node (the root-split completion of Figure 42).
void ensure_single_root(dpv::Context& ctx, BuildState& st) {
  if (st.levels.back().size() > 1) {
    st.levels.push_back(dpv::single_segment(ctx, 1));
  }
}

RTree assemble(dpv::Context& ctx, const BuildState& st,
               const RtreeBuildOptions& opts) {
  const std::size_t num_levels = st.levels.size();
  // Per-level MBRs, bottom-up.
  std::vector<dpv::Vec<geom::Rect>> boxes(num_levels);
  {
    dpv::Vec<geom::Rect> line_boxes = dpv::map(
        ctx, st.segs, [](const geom::Segment& s) { return s.bbox(); });
    boxes[0] = dpv::seg_reduce(ctx, geom::RectUnion{}, line_boxes, st.line_seg);
    for (std::size_t k = 0; k + 1 < num_levels; ++k) {
      boxes[k + 1] = dpv::seg_reduce(ctx, geom::RectUnion{}, boxes[k],
                                     st.levels[k]);
    }
  }

  // Node layout: root first, then level top-1, ..., level 0 (leaves).
  std::vector<std::size_t> level_base(num_levels);
  std::size_t total = 0;
  for (std::size_t l = num_levels; l-- > 0;) {
    level_base[l] = total;
    total += st.node_count(l);
  }
  std::vector<RTree::Node> nodes(total);

  // Group start offsets at each level come from the head flags.
  auto group_starts = [&](const dpv::Flags& flags) {
    std::vector<std::size_t> starts;
    for (std::size_t i = 0; i < flags.size(); ++i) {
      if (i == 0 || flags[i]) starts.push_back(i);
    }
    return starts;
  };

  // Internal levels: children ranges.
  for (std::size_t l = num_levels; l-- > 1;) {
    const std::vector<std::size_t> starts = group_starts(st.levels[l - 1]);
    const std::size_t child_count = st.node_count(l - 1);
    assert(starts.size() == st.node_count(l) && "level alignment broken");
    for (std::size_t g = 0; g < starts.size(); ++g) {
      RTree::Node& nd = nodes[level_base[l] + g];
      nd.is_leaf = false;
      nd.mbr = boxes[l][g];
      nd.first_child = static_cast<std::int32_t>(level_base[l - 1] + starts[g]);
      const std::size_t end = (g + 1 < starts.size()) ? starts[g + 1]
                                                      : child_count;
      nd.num_children = static_cast<std::int32_t>(end - starts[g]);
    }
  }
  // Leaf level: entry ranges (line groups are leaf-aligned).
  {
    const std::vector<std::size_t> starts = group_starts(st.line_seg);
    assert(starts.size() == st.node_count(0) && "leaf alignment broken");
    for (std::size_t g = 0; g < starts.size(); ++g) {
      RTree::Node& nd = nodes[level_base[0] + g];
      nd.is_leaf = true;
      nd.mbr = boxes[0][g];
      nd.first_entry = static_cast<std::uint32_t>(starts[g]);
      const std::size_t end =
          (g + 1 < starts.size()) ? starts[g + 1] : st.segs.size();
      nd.num_entries = static_cast<std::uint32_t>(end - starts[g]);
    }
  }

  const std::size_t effective_m =
      opts.split == prim::RtreeSplitAlgo::kMean ? 1 : opts.m;
  return RTree(std::move(nodes), dpv::to_std(st.segs),
               static_cast<int>(num_levels) - 1, effective_m, opts.M);
}

}  // namespace

RtreeBuildResult rtree_build(dpv::Context& ctx,
                             std::vector<geom::Segment> lines,
                             const RtreeBuildOptions& opts) {
  // The R-tree has no fixed world square; only finiteness is checkable.
  validate_segments_or_throw(lines);
  const dpv::PrimCounters before = ctx.counters();
  RtreeBuildResult res;

  if (lines.empty()) {
    std::vector<RTree::Node> nodes(1);
    nodes[0].mbr = geom::Rect::empty();
    res.tree = RTree(std::move(nodes), {}, 0, opts.m, opts.M);
    res.prims = ctx.counters() - before;
    return res;
  }

  BuildState st;
  st.line_seg = dpv::single_segment(ctx, lines.size());
  st.segs = dpv::to_vec(lines);
  st.levels.push_back(dpv::single_segment(ctx, 1));
  // The leaf split's sweep keys quantize over the whole line set, whichever
  // leaves overflow; the set only reorders, so its range is fixed.
  const prim::SweepRange leaf_range = sweep_range_for(
      ctx, opts,
      dpv::map(ctx, st.segs, [](const geom::Segment& s) { return s.bbox(); }));

  for (;;) {
    RtreeBuildRound round;

    // ---- Pass A: split overflowing leaves (Figures 39-41).  Only the
    // lines of overflowing leaves move, each within its own leaf's slots.
    {
      const prim::CapacityCheck cc =
          prim::capacity_check(ctx, st.line_seg, opts.M);
      std::size_t overflowing = 0;
      for (const auto f : cc.group_overflow) overflowing += (f != 0);
      if (overflowing > 0) {
        const dpv::Index rows = frontier_rows(ctx, cc);
        dpv::Vec<geom::Segment> segs = dpv::gather(ctx, st.segs, rows);
        const prim::UnshufflePlan plan = split_frontier(
            ctx,
            dpv::map(ctx, segs,
                     [](const geom::Segment& s) { return s.bbox(); }),
            dpv::gather(ctx, st.line_seg, rows), opts, leaf_range);
        dpv::scatter(ctx, prim::apply_unshuffle(ctx, plan, segs), rows,
                     dpv::Flags{}, st.segs);
        dpv::scatter(ctx, plan.new_seg, rows, dpv::Flags{}, st.line_seg);
        // The new leaf enters the leaf level right after the one it split
        // from, staying in the same parent's group.
        const prim::ClonePlan cp = prim::plan_clone(ctx, cc.group_overflow);
        st.levels[0] = prim::apply_clone_seg_flags(ctx, cp, st.levels[0]);
        ensure_single_root(ctx, st);
        round.leaf_splits = overflowing;
      }
    }

    // ---- Pass B: split overflowing internal nodes, bottom-up.  As in
    // pass A, only the nodes of overflowing groups move.  A level's MBRs
    // come from the level below, whose nodes are already in place; the
    // levels under a split follow in one cascade at the end of the round.
    std::vector<dpv::Index> moved;
    dpv::Vec<geom::Rect> boxes;       // MBRs of level `boxes_level`
    std::ptrdiff_t boxes_level = -1;  // -1: not computed this round
    for (std::size_t L = 0; L + 1 < st.levels.size(); ++L) {
      const prim::CapacityCheck cc =
          prim::capacity_check(ctx, st.levels[L], opts.M);
      std::size_t overflowing = 0;
      for (const auto f : cc.group_overflow) overflowing += (f != 0);
      if (overflowing == 0) continue;
      if (boxes_level < 0) {
        boxes = dpv::seg_reduce(
            ctx, geom::RectUnion{},
            dpv::map(ctx, st.segs,
                     [](const geom::Segment& s) { return s.bbox(); }),
            st.line_seg);
        boxes_level = 0;
      }
      for (; boxes_level < static_cast<std::ptrdiff_t>(L); ++boxes_level) {
        boxes = dpv::seg_reduce(ctx, geom::RectUnion{}, boxes,
                                st.levels[boxes_level]);
      }
      const dpv::Index rows = frontier_rows(ctx, cc);
      const prim::UnshufflePlan plan = split_frontier(
          ctx, dpv::gather(ctx, boxes, rows),
          dpv::gather(ctx, st.levels[L], rows), opts,
          sweep_range_for(ctx, opts, boxes));
      dpv::scatter(ctx, plan.new_seg, rows, dpv::Flags{}, st.levels[L]);
      dpv::Index dest = dpv::iota(ctx, boxes.size());
      dpv::scatter(ctx, dpv::gather(ctx, rows, plan.dest), rows, dpv::Flags{},
                   dest);
      boxes = dpv::permute(ctx, boxes, dest);
      moved.resize(L + 1);
      moved[L] = std::move(dest);
      const prim::ClonePlan cp = prim::plan_clone(ctx, cc.group_overflow);
      st.levels[L + 1] = prim::apply_clone_seg_flags(ctx, cp, st.levels[L + 1]);
      ensure_single_root(ctx, st);
      round.internal_splits += overflowing;
    }
    moved.resize(st.levels.size());
    cascade_moves(ctx, st, std::move(moved));

    assert(dpv::num_segments(st.line_seg) == st.node_count(0) &&
           "line groups must stay aligned with the leaf level");

    if (round.leaf_splits == 0 && round.internal_splits == 0) break;
    round.leaves = st.node_count(0);
    round.levels = st.levels.size();
    res.trace.push_back(round);
    ++res.rounds;
  }

  res.tree = assemble(ctx, st, opts);
  res.prims = ctx.counters() - before;
  return res;
}

}  // namespace dps::core
