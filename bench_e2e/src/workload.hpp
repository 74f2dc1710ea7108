#pragma once
// Workloads of the end-to-end serving benchmark: the deployment under test,
// the seeded maps, and the seeded request and update streams.
//
// Every batch is a pure function of (seed, stream, batch number), so the
// oracle check regenerates the timed stream instead of storing it, and two
// runs with one seed send byte-identical traffic.

#include <cstddef>
#include <cstdint>
#include <random>
#include <string_view>
#include <vector>

#include "geom/geom.hpp"
#include "serve/cluster.hpp"
#include "serve/request.hpp"

namespace e2e {

using dps::geom::LineId;
using dps::geom::Segment;

inline constexpr double kWorld = 4096.0;

/// The deployment under test: four spatial shards, one engine lane each
/// (one replica per core on a 4-core host), every other option at its
/// default -- cache on with 4096 entries, whole-map fallback engine on,
/// hedging / breakers / backups off, kModel dispatch.
dps::serve::ClusterOptions cluster_options();
/// world 4096, PMR max_depth 14 / bucket 8, R-tree (2, 8), linear default.
dps::serve::ClusterMountOptions mount_options();

enum class Loop { kOpen, kClosed };
enum class MapKind { kRoads, kClustered };
enum class Mix { kMixed, kHot, kBulk };

struct WorkloadSpec {
  std::string_view name;
  MapKind map = MapKind::kRoads;
  std::size_t lines = 0;
  Mix mix = Mix::kMixed;
  Loop loop = Loop::kOpen;
  double rate_rps = 0.0;  // open loop only
  std::size_t batch = 16;
  std::size_t warmup_batches = 0;
};

/// The named workload; `smoke` shrinks the map to 2k lines and the warm-up
/// to a handful of batches.  Returns false for an unknown name.
bool find_workload(std::string_view name, bool smoke, WorkloadSpec& out);
const std::vector<std::string_view>& workload_names();

/// Streams of one seed: timed requests, warm-up requests, the update probe,
/// and the traced run's untraced reference phase each draw from their own.
enum class Stream : std::uint64_t {
  kTimed = 1,
  kWarmup = 2,
  kUpdate = 4,
  kReference = 5,
};

class Workload {
 public:
  Workload(const WorkloadSpec& spec, std::uint64_t seed);

  const WorkloadSpec& spec() const noexcept { return spec_; }
  std::uint64_t seed() const noexcept { return seed_; }
  const std::vector<Segment>& lines() const noexcept { return lines_; }

  /// Batch `n` of `stream`: spec().batch requests, a pure function of
  /// (seed, stream, n).
  std::vector<dps::serve::Request> batch(Stream stream, std::uint64_t n) const;

  /// Per-batch generator (also seeds the update stream).
  std::mt19937_64 rng(Stream stream, std::uint64_t n) const;

 private:
  dps::serve::Request mixed_request(std::mt19937_64& rng) const;
  dps::serve::Request bulk_request(std::mt19937_64& rng) const;
  dps::geom::Rect window_near(std::mt19937_64& rng, double lo,
                              double hi) const;
  dps::geom::Point vertex(std::mt19937_64& rng) const;

  WorkloadSpec spec_;
  std::uint64_t seed_;
  std::vector<Segment> lines_;
  // kHot: the request pool and its Zipf(s = 1) rank CDF.
  std::vector<dps::serve::Request> pool_;
  std::vector<double> zipf_cdf_;
};

/// The update probe's model of the live map: which lines exist, so deletes
/// name live ids and inserts take fresh ones.
class LiveMap {
 public:
  explicit LiveMap(const std::vector<Segment>& lines);

  /// One delete and one insert, both strictly inside `region`: a random
  /// live line lying in it goes, a street hung off its endpoint and
  /// clipped to the region comes.
  dps::serve::UpdateBatch next_in(std::mt19937_64& rng,
                                  const dps::geom::Rect& region);

 private:
  std::vector<Segment> lines_;
  LineId next_id_ = 0;
};

}  // namespace e2e
