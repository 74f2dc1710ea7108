#include "serve/metrics.hpp"

#include <bit>
#include <chrono>
#include <cmath>
#include <ctime>

namespace dps::serve {

std::size_t LatencyHistogram::bucket_of(double us) noexcept {
  if (!(us >= 1.0)) return 0;  // sub-microsecond (and NaN) -> bucket 0
  const auto v = static_cast<std::uint64_t>(us);
  if (v < kUnitBuckets) return static_cast<std::size_t>(v);
  auto g = static_cast<std::size_t>(std::bit_width(v)) - 1;  // 2^g <= v
  if (g > kLastOctave) return kBuckets - 1;
  const std::size_t sub =
      static_cast<std::size_t>(v >> (g - kSubBits)) & ((1u << kSubBits) - 1);
  return kUnitBuckets + (g - kFirstOctave) * (std::size_t{1} << kSubBits) + sub;
}

double LatencyHistogram::bucket_lower_us(std::size_t b) noexcept {
  if (b < kUnitBuckets) return static_cast<double>(b);
  const std::size_t k = b - kUnitBuckets;
  const std::size_t g = kFirstOctave + (k >> kSubBits);
  const std::size_t sub = k & ((1u << kSubBits) - 1);
  return std::ldexp(1.0, static_cast<int>(g)) +
         static_cast<double>(sub) *
             std::ldexp(1.0, static_cast<int>(g - kSubBits));
}

double LatencyHistogram::bucket_upper_us(std::size_t b) noexcept {
  if (b < kUnitBuckets) return static_cast<double>(b) + 1.0;
  const std::size_t k = b - kUnitBuckets;
  const std::size_t g = kFirstOctave + (k >> kSubBits);
  return bucket_lower_us(b) + std::ldexp(1.0, static_cast<int>(g - kSubBits));
}

void LatencyHistogram::record(double us) noexcept { ++buckets_[bucket_of(us)]; }

std::uint64_t LatencyHistogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t c : buckets_) total += c;
  return total;
}

double LatencyHistogram::quantile_upper_us(double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(std::ceil(q * total));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= rank && buckets_[b] > 0) return bucket_upper_us(b);
  }
  return bucket_upper_us(kBuckets - 1);
}

LatencyHistogram& LatencyHistogram::operator+=(
    const LatencyHistogram& other) noexcept {
  for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  return *this;
}

StageTimes& StageTimes::operator+=(const StageTimes& other) noexcept {
  shard_ms += other.shard_ms;
  window_ms += other.window_ms;
  point_ms += other.point_ms;
  nearest_ms += other.nearest_ms;
  aggregate_ms += other.aggregate_ms;
  join_ms += other.join_ms;
  merge_ms += other.merge_ms;
  return *this;
}

ServeMetrics& ServeMetrics::operator+=(const ServeMetrics& other) {
  batches += other.batches;
  requests += other.requests;
  ok += other.ok;
  expired += other.expired;
  cancelled += other.cancelled;
  rejected += other.rejected;
  shedded += other.shedded;
  invalid += other.invalid;
  window_requests += other.window_requests;
  point_requests += other.point_requests;
  nearest_requests += other.nearest_requests;
  aggregate_requests += other.aggregate_requests;
  join_requests += other.join_requests;
  dp_groups += other.dp_groups;
  seq_groups += other.seq_groups;
  hybrid_groups += other.hybrid_groups;
  retries += other.retries;
  seq_fallbacks += other.seq_fallbacks;
  updates += other.updates;
  update_inserts += other.update_inserts;
  update_deletes += other.update_deletes;
  update_failures += other.update_failures;
  compactions += other.compactions;
  lazy_rtree_rebuilds += other.lazy_rtree_rebuilds;
  agg_annotation_builds += other.agg_annotation_builds;
  prims += other.prims;
  stages += other.stages;
  latency += other.latency;
  dpv::merge_snapshot(cost_model, other.cost_model);
  return *this;
}

double thread_cpu_us() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) * 1e6 +
           static_cast<double>(ts.tv_nsec) * 1e-3;
  }
#endif
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace dps::serve
