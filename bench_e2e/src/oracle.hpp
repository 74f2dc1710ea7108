#pragma once
// The oracle: a bare QueryEngine over whole-map indexes the bench builds
// itself, answering through QueryEngine::run_oracle (the sequential host
// traversal).  It shares no routing, cache, merge, or dispatch code with
// the cluster under test.
//
// Comparison rules: ids and kNN (distance^2, id) pairs match exactly;
// aggregate count and bbox match exactly, and the length / centroid sums
// within 1e-9 relative (a cluster folds shard partials in shard order, so
// the sums differ from one engine's by floating-point association).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/quadtree.hpp"
#include "core/rtree.hpp"
#include "loadgen.hpp"
#include "serve/engine.hpp"
#include "workload.hpp"

namespace e2e {

class Oracle {
 public:
  explicit Oracle(const std::vector<Segment>& lines);
  Oracle(const Oracle&) = delete;
  Oracle& operator=(const Oracle&) = delete;

  /// The exact answer to `rq`.
  dps::serve::Status answer(const dps::serve::Request& rq,
                            dps::serve::Response& out) const {
    return engine_.run_oracle(rq, out);
  }

  /// True when `got` is the exact answer to `rq` (a non-kOk `got` never
  /// matches).
  bool matches(const dps::serve::Request& rq, const Digest& got) const;

  /// Regenerates the first digests.size() requests of `stream` and counts
  /// the kOk answers that do not match; non-kOk answers are skipped (the
  /// caller counts them as failures already).  Runs on up to 4 threads.
  std::uint64_t mismatches(const Workload& wl, Stream stream,
                           const std::vector<Digest>& digests) const;

  const dps::core::QuadTree& quad() const noexcept { return quad_; }
  const dps::core::RTree& rtree() const noexcept { return rtree_; }

 private:
  dps::core::QuadTree quad_;
  dps::core::RTree rtree_;
  dps::serve::QueryEngine engine_;
};

}  // namespace e2e
