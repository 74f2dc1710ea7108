#include "prim/rtree_split.hpp"

#include <cmath>
#include <limits>

namespace dps::prim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Candidate cut for the sweep split: lexicographic (overlap, perimeter)
// score with the group-local rank of the cut; Min over candidates is
// associative, identity = "no candidate".
struct Cand {
  double overlap = kInf;
  double perim = kInf;
  std::uint64_t rank = std::numeric_limits<std::uint64_t>::max();
};

struct CandMin {
  static Cand identity() { return Cand{}; }
  Cand operator()(const Cand& a, const Cand& b) const {
    if (a.overlap != b.overlap) return a.overlap < b.overlap ? a : b;
    if (a.perim != b.perim) return a.perim < b.perim ? a : b;
    return a.rank <= b.rank ? a : b;
  }
};

// Per-element group-local rank and group size, via segmented scans.
struct GroupGeometry {
  dpv::Vec<std::size_t> rank;   // position within the group
  dpv::Vec<std::size_t> count;  // group size, broadcast
};

GroupGeometry group_geometry(dpv::Context& ctx, const dpv::Flags& seg) {
  const std::size_t n = seg.size();
  GroupGeometry g;
  dpv::Vec<std::size_t> ones = dpv::constant<std::size_t>(ctx, n, 1);
  dpv::Vec<std::size_t> before = dpv::seg_scan(
      ctx, dpv::Plus<std::size_t>{}, ones, seg, dpv::Dir::kUp,
      dpv::Incl::kExclusive);
  g.rank = before;
  g.count = dpv::seg_broadcast(
      ctx,
      dpv::seg_scan(ctx, dpv::Plus<std::size_t>{}, ones, seg, dpv::Dir::kDown,
                    dpv::Incl::kInclusive),
      seg);
  return g;
}

// MBRs of the side-0 and side-1 subsets of each group, broadcast per
// element, plus the per-element overlap area of the pair.
dpv::Vec<double> split_overlap_per_elem(dpv::Context& ctx,
                                        const dpv::Vec<geom::Rect>& boxes,
                                        const dpv::Flags& seg,
                                        const dpv::Flags& side) {
  const std::size_t n = boxes.size();
  dpv::Vec<geom::Rect> left_in = dpv::tabulate(ctx, n, [&](std::size_t i) {
    return side[i] ? geom::Rect::empty() : boxes[i];
  });
  dpv::Vec<geom::Rect> right_in = dpv::tabulate(ctx, n, [&](std::size_t i) {
    return side[i] ? boxes[i] : geom::Rect::empty();
  });
  dpv::Vec<geom::Rect> left = dpv::seg_broadcast(
      ctx,
      dpv::seg_scan(ctx, geom::RectUnion{}, left_in, seg, dpv::Dir::kDown,
                    dpv::Incl::kInclusive),
      seg);
  dpv::Vec<geom::Rect> right = dpv::seg_broadcast(
      ctx,
      dpv::seg_scan(ctx, geom::RectUnion{}, right_in, seg, dpv::Dir::kDown,
                    dpv::Incl::kInclusive),
      seg);
  return dpv::zip_with(ctx, left, right, [](const geom::Rect& l,
                                            const geom::Rect& r) {
    return l.overlap_area(r);
  });
}

// The smallest legal side size for a group of `count` entries: each side
// must receive at least m/M of the entries being redistributed (sec. 4.7).
std::size_t min_side(std::size_t count, std::size_t m, std::size_t M) {
  const std::size_t frac = (count * m) / M;
  return frac == 0 ? 1 : frac;
}

// Mean split on one axis: per-element side plus per-element validity (a
// degenerate axis leaves one side empty).
struct AxisSplit {
  dpv::Flags side;
  dpv::Vec<double> overlap;  // per element, broadcast per group
  dpv::Flags valid;          // per element, broadcast per group
};

AxisSplit mean_split_axis(dpv::Context& ctx, const dpv::Vec<geom::Rect>& boxes,
                          const dpv::Flags& seg, const GroupGeometry& gg,
                          int axis) {
  const std::size_t n = boxes.size();
  dpv::Vec<double> mid = dpv::map(ctx, boxes, [axis](const geom::Rect& b) {
    const geom::Point c = b.center();
    return axis == 0 ? c.x : c.y;
  });
  dpv::Vec<double> mean = dpv::seg_broadcast(
      ctx,
      dpv::seg_scan(ctx, dpv::Plus<double>{}, mid, seg, dpv::Dir::kDown,
                    dpv::Incl::kInclusive),
      seg);
  AxisSplit out;
  out.side = dpv::tabulate(ctx, n, [&](std::size_t i) {
    const double avg = mean[i] / static_cast<double>(gg.count[i]);
    return static_cast<std::uint8_t>(mid[i] > avg);
  });
  // A side is empty iff every element landed on the other one.
  dpv::Vec<std::size_t> rights = dpv::map(
      ctx, out.side, [](std::uint8_t s) { return std::size_t{s != 0}; });
  dpv::Vec<std::size_t> right_total = dpv::seg_broadcast(
      ctx,
      dpv::seg_scan(ctx, dpv::Plus<std::size_t>{}, rights, seg,
                    dpv::Dir::kDown, dpv::Incl::kInclusive),
      seg);
  out.valid = dpv::tabulate(ctx, n, [&](std::size_t i) {
    return static_cast<std::uint8_t>(right_total[i] > 0 &&
                                     right_total[i] < gg.count[i]);
  });
  out.overlap = split_overlap_per_elem(ctx, boxes, seg, out.side);
  return out;
}

// Sweep split on one axis: sorted-by-min-edge candidate evaluation.
AxisSplit sweep_split_axis(dpv::Context& ctx,
                           const dpv::Vec<geom::Rect>& boxes,
                           const dpv::Flags& seg, const GroupGeometry& gg,
                           std::size_t m, std::size_t M,
                           const SweepRange& range, int axis) {
  const std::size_t n = boxes.size();
  // Sort each group by the bbox minimum on this axis.
  const double lo_all = range.lo[axis];
  const double hi_all = range.hi[axis];
  dpv::Vec<std::uint32_t> key = dpv::map(ctx, boxes, [&](const geom::Rect& b) {
    return dpv::quantize32(axis == 0 ? b.xmin : b.ymin, lo_all, hi_all);
  });
  dpv::Index order = dpv::seg_sort_indices(ctx, key, seg);
  dpv::Vec<geom::Rect> sorted = dpv::gather(ctx, boxes, order);

  // Figure 29: prefix MBR (inclusive up) = bbox of all entries at or before
  // the cut; suffix MBR (exclusive down) = bbox of all entries after it.
  dpv::Vec<geom::Rect> lbox = dpv::seg_scan(ctx, geom::RectUnion{}, sorted,
                                            seg, dpv::Dir::kUp,
                                            dpv::Incl::kInclusive);
  dpv::Vec<geom::Rect> rbox = dpv::seg_scan(ctx, geom::RectUnion{}, sorted,
                                            seg, dpv::Dir::kDown,
                                            dpv::Incl::kExclusive);
  // Candidate "cut after rank r": legal iff both sides get >= min_side.
  dpv::Vec<Cand> cand = dpv::tabulate(ctx, n, [&](std::size_t i) {
    const std::size_t count = gg.count[i];
    const std::size_t r = gg.rank[i];
    const std::size_t lo = min_side(count, m, M);
    if (r + 1 < lo || count - (r + 1) < lo) return Cand{};
    Cand c;
    c.overlap = lbox[i].overlap_area(rbox[i]);
    c.perim = lbox[i].perimeter() + rbox[i].perimeter();
    c.rank = r;
    return c;
  });
  dpv::Vec<Cand> best = dpv::seg_broadcast(
      ctx,
      dpv::seg_scan(ctx, CandMin{}, cand, seg, dpv::Dir::kDown,
                    dpv::Incl::kInclusive),
      seg);

  // Side in sorted space, scattered back to the caller's order.
  dpv::Flags side_sorted = dpv::tabulate(ctx, n, [&](std::size_t i) {
    return static_cast<std::uint8_t>(gg.rank[i] > best[i].rank);
  });
  AxisSplit out;
  out.side = dpv::constant<std::uint8_t>(ctx, n, 0);
  dpv::scatter(ctx, side_sorted, order, dpv::Flags{}, out.side);
  out.valid = dpv::map(ctx, best, [](const Cand& c) {
    return static_cast<std::uint8_t>(c.rank !=
                                     std::numeric_limits<std::uint64_t>::max());
  });
  out.overlap = dpv::map(ctx, best, [](const Cand& c) { return c.overlap; });
  return out;
}

}  // namespace

SweepRange sweep_range(dpv::Context& ctx, const dpv::Vec<geom::Rect>& boxes) {
  SweepRange r;
  for (int axis = 0; axis < 2; ++axis) {
    dpv::Vec<double> minc = dpv::map(ctx, boxes, [axis](const geom::Rect& b) {
      return axis == 0 ? b.xmin : b.ymin;
    });
    r.lo[axis] = dpv::reduce(ctx, dpv::Min<double>{}, minc);
    r.hi[axis] = dpv::reduce(ctx, dpv::Max<double>{}, minc);
  }
  return r;
}

RtreeSplitResult rtree_split(dpv::Context& ctx,
                             const dpv::Vec<geom::Rect>& boxes,
                             const dpv::Flags& seg,
                             const dpv::Flags& elem_overflow, std::size_t m,
                             std::size_t M, RtreeSplitAlgo algo,
                             const SweepRange* range) {
  const std::size_t n = boxes.size();
  const GroupGeometry gg = group_geometry(ctx, seg);

  AxisSplit x, y;
  if (algo == RtreeSplitAlgo::kMean) {
    x = mean_split_axis(ctx, boxes, seg, gg, 0);
    y = mean_split_axis(ctx, boxes, seg, gg, 1);
  } else {
    const SweepRange r = range != nullptr ? *range : sweep_range(ctx, boxes);
    x = sweep_split_axis(ctx, boxes, seg, gg, m, M, r, 0);
    y = sweep_split_axis(ctx, boxes, seg, gg, m, M, r, 1);
  }

  // Per group: pick the axis with the smaller resulting overlap among the
  // valid ones; fall back to a balanced rank split when neither axis
  // produced a usable partition (all geometry coincident).
  RtreeSplitResult out;
  out.side = dpv::tabulate(ctx, n, [&](std::size_t i) {
    if (!elem_overflow[i]) return std::uint8_t{0};
    const bool xv = x.valid[i] != 0;
    const bool yv = y.valid[i] != 0;
    if (xv && (!yv || x.overlap[i] <= y.overlap[i])) return x.side[i];
    if (yv) return y.side[i];
    return static_cast<std::uint8_t>(gg.rank[i] >= (gg.count[i] + 1) / 2);
  });
  dpv::Vec<std::uint8_t> axis_elem = dpv::tabulate(ctx, n, [&](std::size_t i) {
    const bool xv = x.valid[i] != 0;
    const bool yv = y.valid[i] != 0;
    return static_cast<std::uint8_t>(
        (xv && (!yv || x.overlap[i] <= y.overlap[i])) ? 0 : 1);
  });
  dpv::Vec<double> overlap_elem =
      split_overlap_per_elem(ctx, boxes, seg, out.side);
  out.group_axis = dpv::seg_heads(ctx, axis_elem, seg);
  out.group_overlap = dpv::seg_heads(ctx, overlap_elem, seg);
  return out;
}

}  // namespace dps::prim
