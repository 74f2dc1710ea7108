#pragma once
// Shared helpers for the test suite: serial/parallel contexts, reference
// (obviously-correct) scan implementations, and dataset shorthands.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dpv/dpv.hpp"
#include "geom/geom.hpp"

namespace dps::test {

/// A parallel context with a small grain so even tiny vectors exercise the
/// multi-block code paths.
dpv::Context make_parallel_context();

/// Reference segmented scan: straightforward per-group loop.
template <typename T, typename Op>
dpv::Vec<T> ref_seg_scan(Op op, const dpv::Vec<T>& data,
                            const dpv::Flags& flags,
                            dpv::Dir dir, dpv::Incl incl) {
  const std::size_t n = data.size();
  dpv::Vec<T> out(n);
  // Group boundaries.
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 0 || flags[i]) starts.push_back(i);
  }
  starts.push_back(n);
  for (std::size_t g = 0; g + 1 < starts.size(); ++g) {
    const std::size_t lo = starts[g], hi = starts[g + 1];
    if (dir == dpv::Dir::kUp) {
      T acc = Op::identity();
      bool have = false;
      for (std::size_t i = lo; i < hi; ++i) {
        if (incl == dpv::Incl::kExclusive) out[i] = have ? acc : Op::identity();
        acc = have ? op(acc, data[i]) : data[i];
        have = true;
        if (incl == dpv::Incl::kInclusive) out[i] = acc;
      }
    } else {
      T acc = Op::identity();
      bool have = false;
      for (std::size_t i = hi; i-- > lo;) {
        if (incl == dpv::Incl::kExclusive) out[i] = have ? acc : Op::identity();
        acc = have ? op(data[i], acc) : data[i];
        have = true;
        if (incl == dpv::Incl::kInclusive) out[i] = acc;
      }
    }
  }
  return out;
}

/// Deterministic pseudo-random vector of ints in [0, range).
dpv::Vec<int> random_ints(std::size_t n, int range, std::uint64_t seed);

/// Deterministic random segment flags with roughly n/avg_group groups.
dpv::Flags random_flags(std::size_t n, std::size_t avg_group,
                                       std::uint64_t seed);

/// Chaos-suite seed derivation: `base` as written in the test, remixed
/// with the DPS_CHAOS_SEED environment variable when it is set.  CI runs
/// the chaos suites under a small seed matrix through this hook; every
/// derived seed is still fully deterministic for its (base, env) pair.
std::uint64_t chaos_seed(std::uint64_t base);

/// dpv::CostModel::forced_path() value meaning "not forced".
inline constexpr int kUnforced = -1;

/// Pins the process-wide dispatch force (dpv::CostModel::force) for one
/// scope -- kUnforced clears it -- and restores the previous setting,
/// DPS_DISPATCH_FORCE included, on exit.  A test of the model's own
/// decisions holds an unforced scope: an environment-wide force would
/// override exactly what it checks.
class DispatchForceScope {
 public:
  explicit DispatchForceScope(int path)
      : prev_(dpv::CostModel::forced_path()) {
    set(path);
  }
  ~DispatchForceScope() { set(prev_); }
  DispatchForceScope(const DispatchForceScope&) = delete;
  DispatchForceScope& operator=(const DispatchForceScope&) = delete;

 private:
  static void set(int path) {
    if (path == kUnforced) {
      dpv::CostModel::unforce();
    } else {
      dpv::CostModel::force(static_cast<dpv::CostPath>(path));
    }
  }
  int prev_;
};

}  // namespace dps::test
