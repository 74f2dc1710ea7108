#pragma once
// FNV-1a fingerprint over every byte of a built tree: nodes, then stored
// q-edges / entries.  Two trees with equal fingerprints are byte-identical
// for any practical purpose; BuildIdentity pins golden values with it and
// the cluster tests compare mounted replicas against serial builds.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/quadtree.hpp"
#include "core/rtree.hpp"
#include "geom/geom.hpp"

namespace dps::test {

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

inline void add_tree(Fnv& f, const core::QuadTree& t) {
  for (const core::QuadTree::Node& nd : t.nodes()) {
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
  for (const geom::Segment& s : t.edges()) f.add(s);
}

inline void add_tree(Fnv& f, const core::RTree& t) {
  f.add(static_cast<std::uint64_t>(t.height()));
  for (const core::RTree::Node& nd : t.nodes()) {
    f.add(nd.mbr);
    f.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(nd.first_child)));
    f.add(
        static_cast<std::uint64_t>(static_cast<std::int64_t>(nd.num_children)));
    f.add(std::uint64_t{nd.first_entry});
    f.add(std::uint64_t{nd.num_entries});
    f.add(std::uint64_t{nd.is_leaf});
  }
  for (const geom::Segment& s : t.entries()) f.add(s);
}

/// The fingerprint of one tree alone.
template <class Tree>
std::string tree_fingerprint(const Tree& t) {
  Fnv f;
  add_tree(f, t);
  return f.hex();
}

}  // namespace dps::test
