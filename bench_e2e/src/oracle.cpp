#include "oracle.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "core/pmr_build.hpp"
#include "core/rtree_build.hpp"

namespace e2e {

namespace serve = dps::serve;

namespace {

serve::EngineOptions oracle_engine_options() {
  serve::EngineOptions o;
  o.threads = 1;
  return o;
}

bool close_rel(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({std::abs(a), std::abs(b), 1e-300});
}

}  // namespace

Oracle::Oracle(const std::vector<Segment>& lines)
    : engine_(oracle_engine_options()) {
  const serve::ClusterMountOptions mo = mount_options();
  dps::core::PmrBuildOptions po = mo.quad;
  po.world = mo.world;
  dps::dpv::Context ctx;
  quad_ = dps::core::pmr_build(ctx, lines, po).tree;
  rtree_ = dps::core::rtree_build(ctx, lines, mo.rtree).tree;
  engine_.mount(&quad_);
  engine_.mount(&rtree_);
}

bool Oracle::matches(const serve::Request& rq, const Digest& got) const {
  if (got.status != serve::Status::kOk) return false;
  serve::Response want;
  if (answer(rq, want) != serve::Status::kOk) return false;
  const Digest w = digest(rq, want);
  return w.hash == got.hash && close_rel(w.length, got.length) &&
         close_rel(w.wx, got.wx) && close_rel(w.wy, got.wy);
}

std::uint64_t Oracle::mismatches(const Workload& wl, Stream stream,
                                 const std::vector<Digest>& digests) const {
  const std::size_t per = wl.spec().batch;
  const std::size_t batches = (digests.size() + per - 1) / per;
  const std::size_t threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  std::atomic<std::uint64_t> bad{0};
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    std::uint64_t local = 0;
    for (std::size_t b = next++; b < batches; b = next++) {
      const std::vector<serve::Request> batch = wl.batch(stream, b);
      for (std::size_t i = 0; i < per && b * per + i < digests.size(); ++i) {
        const Digest& d = digests[b * per + i];
        if (d.status == serve::Status::kOk && !matches(batch[i], d)) ++local;
      }
    }
    bad += local;
  };
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(work);
    work();
  }  // joins the pool
  return bad.load();
}

}  // namespace e2e
