// Golden identity of the data-parallel builds.
//
// An FNV-1a fingerprint over every byte the PMR and R-tree builds emit --
// tree nodes, stored q-edges / entries, and the per-round traces -- for
// two maps, whole and sharded four ways, under a serial and a 4-lane
// context.  The golden values pin the builds' exact output, so a change
// that only makes a build cheaper (fewer elements per round, fewer
// copies) must leave every value here untouched.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/pmr_build.hpp"
#include "core/pmr_update.hpp"
#include "core/rtree_build.hpp"
#include "core/shard_segments.hpp"
#include "data/mapgen.hpp"

namespace dps::core {
namespace {

constexpr double kWorld = 4096.0;
constexpr std::size_t kMapLines = 6000;
constexpr std::size_t kInserted = 50;

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  void add(const geom::Rect& r) {
    add(r.xmin);
    add(r.ymin);
    add(r.xmax);
    add(r.ymax);
  }
  void add(const geom::Segment& s) {
    add(s.a.x);
    add(s.a.y);
    add(s.b.x);
    add(s.b.y);
    add(std::uint64_t{s.id});
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

void add_quad(Fnv& f, const QuadBuildResult& r) {
  f.add(std::uint64_t{r.rounds});
  f.add(std::uint64_t{r.depth_limited});
  for (const BuildRound& br : r.trace) {
    f.add(std::uint64_t{br.line_processors});
    f.add(std::uint64_t{br.groups});
    f.add(std::uint64_t{br.nodes_split});
    f.add(std::uint64_t{br.clones_made});
  }
  for (const QuadTree::Node& nd : r.tree.nodes()) {
    f.add(std::uint64_t{nd.block.depth});
    f.add(std::uint64_t{nd.block.ix});
    f.add(std::uint64_t{nd.block.iy});
    for (const std::int32_t c : nd.child) {
      f.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(c)));
    }
    f.add(std::uint64_t{nd.is_leaf});
    f.add(std::uint64_t{nd.first_edge});
    f.add(std::uint64_t{nd.num_edges});
  }
  for (const geom::Segment& s : r.tree.edges()) f.add(s);
}

void add_rtree(Fnv& f, const RtreeBuildResult& r) {
  f.add(std::uint64_t{r.rounds});
  for (const RtreeBuildRound& br : r.trace) {
    f.add(std::uint64_t{br.leaf_splits});
    f.add(std::uint64_t{br.internal_splits});
    f.add(std::uint64_t{br.leaves});
    f.add(std::uint64_t{br.levels});
  }
  f.add(static_cast<std::uint64_t>(r.tree.height()));
  for (const RTree::Node& nd : r.tree.nodes()) {
    f.add(nd.mbr);
    f.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(nd.first_child)));
    f.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(nd.num_children)));
    f.add(std::uint64_t{nd.first_entry});
    f.add(std::uint64_t{nd.num_entries});
    f.add(std::uint64_t{nd.is_leaf});
  }
  for (const geom::Segment& s : r.tree.entries()) f.add(s);
}

// Both maps, each whole and then as its four shard slices.
std::vector<std::vector<geom::Segment>> slices() {
  std::vector<std::vector<geom::Segment>> out;
  const std::vector<std::vector<geom::Segment>> maps{
      data::hierarchical_roads(kMapLines, kWorld, 1),
      data::clustered_segments(kMapLines, 8, kWorld / 32.0, kWorld, 6.0, 1)};
  for (const auto& map : maps) {
    out.push_back(map);
    ShardedSegments sharded =
        shard_segments(map, geom::Rect{0.0, 0.0, kWorld, kWorld}, 4);
    for (auto& s : sharded.shards) out.push_back(std::move(s));
  }
  return out;
}

PmrBuildOptions pmr_opts() {
  PmrBuildOptions o;
  o.world = kWorld;
  o.max_depth = 14;
  o.bucket_capacity = 8;
  return o;
}

// `kInserted` lines of the slice, strided across it, under fresh ids.
std::vector<geom::Segment> reided(const std::vector<geom::Segment>& slice) {
  std::vector<geom::Segment> out;
  if (slice.empty()) return out;
  const std::size_t stride = slice.size() / kInserted + 1;
  for (std::size_t i = 0; i < slice.size() && out.size() < kInserted;
       i += stride) {
    geom::Segment s = slice[i];
    s.id = static_cast<geom::LineId>((1u << 24) + out.size());
    out.push_back(s);
  }
  return out;
}

// Builds every slice under `ctx` and fingerprints what `which` emits.
enum class Which { kPmrBuild, kPmrInsert, kRtreeSweep, kRtreeMean };

std::string fingerprint(dpv::Context& ctx, Which which) {
  Fnv f;
  for (const auto& slice : slices()) {
    switch (which) {
      case Which::kPmrBuild:
        add_quad(f, pmr_build(ctx, slice, pmr_opts()));
        break;
      case Which::kPmrInsert: {
        const QuadBuildResult base = pmr_build(ctx, slice, pmr_opts());
        add_quad(f, pmr_insert(ctx, base.tree, reided(slice), pmr_opts()));
        break;
      }
      case Which::kRtreeSweep:
      case Which::kRtreeMean: {
        RtreeBuildOptions o;
        o.m = 2;
        o.M = 8;
        o.split = which == Which::kRtreeSweep ? prim::RtreeSplitAlgo::kSweep
                                              : prim::RtreeSplitAlgo::kMean;
        add_rtree(f, rtree_build(ctx, slice, o));
        break;
      }
    }
  }
  return f.hex();
}

// The golden values were taken from the builds that down-scanned through
// reversed copies and carried settled groups through every round.  Serial
// and 4-lane builds agree, so each test has one value.
void expect_golden(Which which, const std::string& golden) {
  dpv::Context serial;
  EXPECT_EQ(fingerprint(serial, which), golden) << "serial context";
  // A small grain so the 6000-line slices really run as four blocks.
  dpv::Context parallel(4);
  parallel.set_grain(64);
  EXPECT_EQ(fingerprint(parallel, which), golden) << "4-lane context";
}

TEST(BuildIdentity, PmrBuild) {
  expect_golden(Which::kPmrBuild, "4538dfb1a1a27bc8");
}

TEST(BuildIdentity, PmrInsert) {
  expect_golden(Which::kPmrInsert, "401063174e3b53e7");
}

TEST(BuildIdentity, RtreeSweep) {
  expect_golden(Which::kRtreeSweep, "8fc047f46379b4b4");
}

TEST(BuildIdentity, RtreeMean) {
  expect_golden(Which::kRtreeMean, "466e4b3edefa3d9d");
}

}  // namespace
}  // namespace dps::core
