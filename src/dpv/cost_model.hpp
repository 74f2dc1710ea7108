#pragma once
// Online work/span cost model for dp-vs-sequential dispatch.
//
// The paper's scalability argument is a crossover argument: the data-parallel
// primitives win once the per-primitive launch overhead amortizes over a wide
// enough frontier, and lose below it.  The serving engine used to freeze that
// crossover into a hand-set `min_dp_batch` threshold; this class learns it
// online instead, in the style of sptl's oracle-guided granularity control.
//
// Shape of the estimator
//   A *family* is (request kind x index kind x map-density bucket); density
//   is bucketed by floor(log2).  Within a family the model keeps one cell
//   per (group-size bucket x path), where path is dp or sequential.  Each
//   cell is an EMA of measured microseconds per query plus an EMA of the
//   group sizes that fed it.  Costs come from the engine: the
//   wall-clock of a successful dp pipeline attempt (whose primitive ledger
//   the `dpv::Context` already records) or of a clean sequential sweep.
//
// Decisions
//   - both paths measured: argmin of the two extrapolated costs.  The
//     sequential path is linear in the group size, so it extrapolates as
//     us/query * n from the sample-weighted average over size buckets.  The
//     dp pipeline has a large n-independent launch term, so a same-bucket
//     cell is used directly, two or more buckets fit a T = a + b*n line, and
//     a single out-of-bucket cell extrapolates conservatively (per-query cost
//     held constant going up, total cost held constant going down -- both
//     overestimate dp and so err toward the well-understood sequential path).
//   - one path measured: the bootstrap prior decides, except that every
//     `explore_period`-th decision for the family probes the unmeasured path
//     so the model can never wedge itself one-sided.
//   - neither measured: the bootstrap prior (n >= bootstrap_min_dp_batch,
//     i.e. the demoted `min_dp_batch`), or the analytic `MachineModel` prior
//     when the bootstrap threshold is 0.
//   Every `refresh_period`-th decision re-probes the measured loser so a
//   stale measurement can be overturned.  Both probe counters are
//   deterministic (no RNG, no clock) and can be disabled by setting the
//   period to 0.
//
// Thread safety: all members are guarded by an internal mutex; decide() and
// observe() may race freely across engine shards.
//
// Override: force(kDp/kSeq) pins every decision of every model globally
// (mirroring `simd::force()`), and serve::Cluster's round fork rule with
// it; it is the only switch around the model.
// warm() installs coefficients outright, which is how tests inject forced
// coefficients and how Cluster replicas share ledgers.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "dpv/machine_model.hpp"

namespace dps::dpv {

enum class CostPath : int {
  kSeq = 0,
  kDp = 1,
};

/// The dispatch-relevant shape of one request group.  `kind` / `index` are
/// the serving layer's ordinals (the model never interprets them, they only
/// key families).
struct GroupShape {
  int kind = 0;
  int index = 0;
  std::size_t group_size = 0;
  std::size_t map_elements = 0;
};

struct CostModelOptions {
  /// The demoted `min_dp_batch`: groups at least this large take the dp
  /// pipeline until measurements exist.  0 switches the unmeasured prior to
  /// the analytic MachineModel.
  std::size_t bootstrap_min_dp_batch = 8;
  /// EMA weight of a new observation against the cell's running estimate.
  double ema_alpha = 0.25;
  /// Cells with fewer samples than this do not count as "measured".
  std::uint32_t min_samples = 3;
  /// Probe the unmeasured path every Nth family decision (0 = never).
  std::uint32_t explore_period = 32;
  /// Re-probe the measured loser every Nth family decision (0 = never).
  std::uint32_t refresh_period = 128;
  /// Analytic prior used when bootstrap_min_dp_batch == 0.
  MachineModel analytic{};
};

/// Serializable coefficients: one entry per (family x size bucket x path)
/// cell.  Snapshots merge by adopting the better-trained entry per key, so
/// repeated warms are idempotent.
struct CostModelSnapshot {
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t samples = 0;
    double us_per_query = 0.0;
    double mean_n = 0.0;
  };
  std::vector<Entry> entries;

  bool empty() const { return entries.empty(); }
};

/// Merge `from` into `into`: per key, the entry with more samples wins.
void merge_snapshot(CostModelSnapshot& into, const CostModelSnapshot& from);

struct CostDecision {
  bool use_dp = false;
  /// True when a deterministic explore/refresh probe, not an argmin or the
  /// prior, produced the decision.
  bool explored = false;
  /// True when both paths had trusted measurements (argmin decision).
  bool measured = false;
  /// Extrapolated estimates in microseconds; < 0 means unmeasured.
  double dp_us = -1.0;
  double seq_us = -1.0;
};

class CostModel {
 public:
  explicit CostModel(CostModelOptions opts = {});

  /// Pick a path for a group of shape `g`.  Bumps the family's decision
  /// counter (the explore/refresh probes key off it).
  CostDecision decide(const GroupShape& g);

  /// Record a measured group: `wall_us` of wall-clock ran `g.group_size`
  /// queries down `path`.  Non-finite / non-positive sizes are ignored.
  void observe(const GroupShape& g, CostPath path, double wall_us);

  /// Extrapolated cost estimate in microseconds, or -1 when the family has
  /// no trusted measurement for `path`.  (Introspection for tests/bench.)
  double estimate_us(const GroupShape& g, CostPath path) const;

  CostModelSnapshot snapshot() const;

  /// Install coefficients: per key, an incoming entry replaces the resident
  /// cell only when it has seen more samples.
  void warm(const CostModelSnapshot& snap);

  const CostModelOptions& options() const { return opts_; }

  // -- Global force override (mirrors simd::force). -------------------------

  /// Pin every decision of every model to `p` until unforce().
  static void force(CostPath p) noexcept;
  static void unforce() noexcept;
  /// -1 when unforced, else the CostPath ordinal.
  static int forced_path() noexcept;

  // -- Bucketing (exposed for tests). ---------------------------------------

  /// floor(log2(v)) clamped to [0, 63]; 0 for v == 0.
  static int log2_bucket(std::size_t v) noexcept;
  /// Cell key for shape `g` down `path` (family bits + size bucket + path).
  static std::uint64_t cell_key(const GroupShape& g, CostPath path) noexcept;
  /// Family key: cell key with the size bucket and path bits cleared.
  static std::uint64_t family_key(const GroupShape& g) noexcept;

  /// The analytic MachineModel prior (shape-only, used when the bootstrap
  /// threshold is 0): closed-form replay of a log2(map)-round descent.
  double analytic_us(const GroupShape& g, CostPath path) const;

 private:
  struct Cell {
    std::uint64_t samples = 0;
    double us_per_query = 0.0;
    double mean_n = 0.0;
  };

  double estimate_seq_locked(const GroupShape& g) const;
  double estimate_dp_locked(const GroupShape& g) const;

  CostModelOptions opts_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Cell> cells_;
  std::unordered_map<std::uint64_t, std::uint64_t> decisions_;
};

}  // namespace dps::dpv
