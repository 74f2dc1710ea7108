#include "dpv/cost_model.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>

namespace dps::dpv {
namespace {

// Cell key layout (low to high): kind:4 | index:4 | density:6 | size:6 |
// path:1.  The family is everything below the size bucket.
constexpr std::uint64_t kKindShift = 0;
constexpr std::uint64_t kIndexShift = 4;
constexpr std::uint64_t kDensityShift = 8;
constexpr std::uint64_t kSizeShift = 14;
constexpr std::uint64_t kPathShift = 20;

std::atomic<int>& forced_state() {
  static std::atomic<int> forced{-1};
  return forced;
}

}  // namespace

void merge_snapshot(CostModelSnapshot& into, const CostModelSnapshot& from) {
  for (const auto& e : from.entries) {
    auto it = std::find_if(into.entries.begin(), into.entries.end(),
                           [&](const auto& r) { return r.key == e.key; });
    if (it == into.entries.end()) {
      into.entries.push_back(e);
    } else if (e.samples > it->samples) {
      *it = e;
    }
  }
  std::sort(into.entries.begin(), into.entries.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
}

CostModel::CostModel(CostModelOptions opts) : opts_(opts) {}

void CostModel::force(CostPath p) noexcept {
  forced_state().store(static_cast<int>(p), std::memory_order_relaxed);
}

void CostModel::unforce() noexcept {
  forced_state().store(-1, std::memory_order_relaxed);
}

int CostModel::forced_path() noexcept {
  return forced_state().load(std::memory_order_relaxed);
}

int CostModel::log2_bucket(std::size_t v) noexcept {
  if (v == 0) return 0;
  return std::min(63, static_cast<int>(std::bit_width(v)) - 1);
}

std::uint64_t CostModel::family_key(const GroupShape& g) noexcept {
  const auto kind = static_cast<std::uint64_t>(g.kind & 0xF);
  const auto index = static_cast<std::uint64_t>(g.index & 0xF);
  const auto density =
      static_cast<std::uint64_t>(log2_bucket(g.map_elements));
  return (kind << kKindShift) | (index << kIndexShift) |
         (density << kDensityShift);
}

std::uint64_t CostModel::cell_key(const GroupShape& g,
                                  CostPath path) noexcept {
  const auto size = static_cast<std::uint64_t>(log2_bucket(g.group_size));
  const auto p = static_cast<std::uint64_t>(path);
  return family_key(g) | (size << kSizeShift) | (p << kPathShift);
}

void CostModel::observe(const GroupShape& g, CostPath path, double wall_us) {
  if (g.group_size == 0 || !std::isfinite(wall_us) || wall_us < 0.0) return;
  const double upq = wall_us / static_cast<double>(g.group_size);
  const std::uint64_t key = cell_key(g, path);
  std::lock_guard<std::mutex> lock(mutex_);
  Cell& cell = cells_[key];
  if (cell.samples == 0) {
    cell.us_per_query = upq;
    cell.mean_n = static_cast<double>(g.group_size);
  } else {
    const double a = opts_.ema_alpha;
    cell.us_per_query += a * (upq - cell.us_per_query);
    cell.mean_n += a * (static_cast<double>(g.group_size) - cell.mean_n);
  }
  ++cell.samples;
}

double CostModel::estimate_seq_locked(const GroupShape& g) const {
  // Sequential cost is linear per query, so every size bucket's us/query is
  // an estimate of the same coefficient: take the sample-weighted average.
  double weighted = 0.0;
  std::uint64_t samples = 0;
  GroupShape probe = g;
  for (int b = 0; b < 64; ++b) {
    probe.group_size = std::size_t{1} << b;
    const auto it = cells_.find(cell_key(probe, CostPath::kSeq));
    if (it == cells_.end()) continue;
    weighted += it->second.us_per_query *
                static_cast<double>(it->second.samples);
    samples += it->second.samples;
    if (probe.group_size > (std::size_t{1} << 40)) break;
  }
  if (samples < opts_.min_samples) return -1.0;
  return weighted / static_cast<double>(samples) *
         static_cast<double>(g.group_size);
}

double CostModel::estimate_dp_locked(const GroupShape& g) const {
  const double n = static_cast<double>(g.group_size);
  const auto exact = cells_.find(cell_key(g, CostPath::kDp));
  std::uint64_t samples = exact != cells_.end() ? exact->second.samples : 0;

  // Collect every measured size bucket of the family (totals, not
  // per-query: the dp launch term makes us/query fall with n).
  std::vector<const Cell*> cells;
  GroupShape probe = g;
  for (int b = 0; b < 64; ++b) {
    probe.group_size = std::size_t{1} << b;
    const auto it = cells_.find(cell_key(probe, CostPath::kDp));
    if (it == cells_.end()) continue;
    cells.push_back(&it->second);
    if (it->second.samples > 0 && it != exact) samples += it->second.samples;
    if (probe.group_size > (std::size_t{1} << 40)) break;
  }
  if (samples < opts_.min_samples || cells.empty()) return -1.0;

  if (exact != cells_.end() && exact->second.samples > 0) {
    return exact->second.us_per_query * n;
  }
  if (cells.size() >= 2) {
    // Least-squares T = a + b*n over the buckets' (mean_n, total_us),
    // clamped to non-negative launch and marginal terms.
    double sn = 0.0, st = 0.0, snn = 0.0, snt = 0.0;
    for (const Cell* c : cells) {
      const double total = c->us_per_query * c->mean_n;
      sn += c->mean_n;
      st += total;
      snn += c->mean_n * c->mean_n;
      snt += c->mean_n * total;
    }
    const double m = static_cast<double>(cells.size());
    const double var = snn - sn * sn / m;
    if (var > 1e-9) {
      double b = (snt - sn * st / m) / var;
      b = std::max(b, 0.0);
      const double a = std::max(st / m - b * sn / m, 0.0);
      return a + b * n;
    }
  }
  // One effective bucket: hold us/query constant going up (overestimates the
  // launch share) and total cost constant going down (the launch term does
  // not shrink with n) -- both err toward sequential.
  const Cell* c = cells.front();
  for (const Cell* cand : cells) {
    if (cand->samples > c->samples) c = cand;
  }
  if (n >= c->mean_n) return c->us_per_query * n;
  return c->us_per_query * c->mean_n;
}

double CostModel::estimate_us(const GroupShape& g, CostPath path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return path == CostPath::kDp ? estimate_dp_locked(g)
                               : estimate_seq_locked(g);
}

double CostModel::analytic_us(const GroupShape& g, CostPath path) const {
  const MachineModel& m = opts_.analytic;
  const double procs =
      static_cast<double>(std::max<std::size_t>(m.processors, 1));
  const double rounds =
      std::log2(static_cast<double>(std::max<std::size_t>(g.map_elements, 2))) +
      1.0;
  const double n = static_cast<double>(g.group_size);
  if (path == CostPath::kSeq) {
    // A pointer-chasing descent visits ~log2(map) nodes per query; the
    // per-visit constant reproduces the crossover's order of magnitude, not
    // any particular host.
    constexpr double kSeqVisitNs = 800.0;
    return n * rounds * kSeqVisitNs / 1000.0;
  }
  // Per round the descent chains ~a dozen primitives (sort passes dominate),
  // each paying launch + combine-tree startup, plus routed element work over
  // an O(n)-wide frontier.
  constexpr double kPrimsPerRound = 12.0;
  constexpr double kFrontierExpansion = 4.0;
  const double logp = std::log2(procs) + 1.0;
  const double startup_ns =
      rounds * kPrimsPerRound * (m.launch_ns + m.combine_ns * logp);
  const double work_ns = rounds * n * kFrontierExpansion / procs *
                         m.element_ns * m.traffic_factor;
  return (startup_ns + work_ns) / 1000.0;
}

CostDecision CostModel::decide(const GroupShape& g) {
  CostDecision d;
  const int forced = forced_path();
  if (forced >= 0) {
    d.use_dp = forced == static_cast<int>(CostPath::kDp);
    return d;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  d.seq_us = estimate_seq_locked(g);
  d.dp_us = estimate_dp_locked(g);
  const std::uint64_t count = ++decisions_[family_key(g)];

  if (d.seq_us >= 0.0 && d.dp_us >= 0.0) {
    d.measured = true;
    d.use_dp = d.dp_us <= d.seq_us;
    if (opts_.refresh_period != 0 && count % opts_.refresh_period == 0) {
      d.use_dp = !d.use_dp;
      d.explored = true;
    }
    return d;
  }
  if (d.seq_us >= 0.0 || d.dp_us >= 0.0) {
    if (opts_.explore_period != 0 && count % opts_.explore_period == 0) {
      d.use_dp = d.dp_us < 0.0;  // probe the unmeasured path
      d.explored = true;
      return d;
    }
  }
  if (opts_.bootstrap_min_dp_batch > 0) {
    d.use_dp = g.group_size >= opts_.bootstrap_min_dp_batch;
    return d;
  }
  d.use_dp = analytic_us(g, CostPath::kDp) <= analytic_us(g, CostPath::kSeq);
  return d;
}

CostModelSnapshot CostModel::snapshot() const {
  CostModelSnapshot snap;
  std::lock_guard<std::mutex> lock(mutex_);
  snap.entries.reserve(cells_.size());
  for (const auto& [key, cell] : cells_) {
    snap.entries.push_back({key, cell.samples, cell.us_per_query,
                            cell.mean_n});
  }
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  return snap;
}

void CostModel::warm(const CostModelSnapshot& snap) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& e : snap.entries) {
    Cell& cell = cells_[e.key];
    if (e.samples > cell.samples) {
      cell.samples = e.samples;
      cell.us_per_query = e.us_per_query;
      cell.mean_n = e.mean_n;
    }
  }
}

}  // namespace dps::dpv
