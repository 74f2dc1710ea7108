// dpv::CostModel: bucketing, bootstrap priors, convergence, exploration,
// forced coefficients, snapshot/warm round-trips, and the global force
// hook.  Everything here is synthetic -- observations are hand-fed
// microsecond figures, never wall-clock -- so the tests are exact and
// deterministic.  Tests of decide() hold an unforced scope, so they check
// the model even under DPS_DISPATCH_FORCE.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>

#include "dpv/cost_model.hpp"
#include "test_util.hpp"

namespace {

using dps::dpv::CostDecision;
using dps::dpv::CostModel;
using dps::dpv::CostModelOptions;
using dps::dpv::CostModelSnapshot;
using dps::dpv::CostPath;
using dps::dpv::GroupShape;
using dps::dpv::merge_snapshot;
using dps::test::DispatchForceScope;
using dps::test::kUnforced;

GroupShape shape(std::size_t n, std::size_t k = 0) {
  GroupShape g;
  g.kind = 2;
  g.index = 1;
  g.group_size = n;
  g.map_elements = 20000;
  g.mean_k = k;
  return g;
}

/// Options with the deterministic probes disabled, so decisions are pure
/// argmin / prior and the assertions below cannot be perturbed by an
/// explore or refresh tick.
CostModelOptions no_probe_options() {
  CostModelOptions co;
  co.explore_period = 0;
  co.refresh_period = 0;
  return co;
}

/// Feeds `model` enough samples of `path` at size `n` to clear min_samples,
/// each reporting `us_per_query` microseconds per query.
void teach(CostModel& model, const GroupShape& g, CostPath path,
           double us_per_query, int reps = 4) {
  for (int i = 0; i < reps; ++i) {
    model.observe(g, path, us_per_query * static_cast<double>(g.group_size));
  }
}

TEST(CostModel, Log2BucketFloorsAndClamps) {
  EXPECT_EQ(CostModel::log2_bucket(0), 0);
  EXPECT_EQ(CostModel::log2_bucket(1), 0);
  EXPECT_EQ(CostModel::log2_bucket(2), 1);
  EXPECT_EQ(CostModel::log2_bucket(3), 1);
  EXPECT_EQ(CostModel::log2_bucket(4), 2);
  EXPECT_EQ(CostModel::log2_bucket(1023), 9);
  EXPECT_EQ(CostModel::log2_bucket(1024), 10);
  EXPECT_EQ(CostModel::log2_bucket(~std::size_t{0}), 63);
}

TEST(CostModel, CellKeySeparatesFamiliesSizesAndPaths) {
  const GroupShape a = shape(512, 8);
  GroupShape b = a;
  b.index = 2;  // different index kind -> different family
  GroupShape c = a;
  c.group_size = 1024;  // different size bucket, same family
  GroupShape d = a;
  d.mean_k = 32;  // different k bucket -> different family

  EXPECT_NE(CostModel::family_key(a), CostModel::family_key(b));
  EXPECT_NE(CostModel::family_key(a), CostModel::family_key(d));
  EXPECT_EQ(CostModel::family_key(a), CostModel::family_key(c));
  EXPECT_NE(CostModel::cell_key(a, CostPath::kDp),
            CostModel::cell_key(c, CostPath::kDp));
  EXPECT_NE(CostModel::cell_key(a, CostPath::kDp),
            CostModel::cell_key(a, CostPath::kSeq));
  // Same-bucket sizes share a cell (257 and 260 both floor to bucket 8).
  GroupShape e = a;
  e.group_size = 257;
  GroupShape f = a;
  f.group_size = 260;
  EXPECT_EQ(CostModel::cell_key(e, CostPath::kSeq),
            CostModel::cell_key(f, CostPath::kSeq));
}

TEST(CostModel, BootstrapPriorReproducesStaticThreshold) {
  const DispatchForceScope unforced(kUnforced);
  CostModelOptions co = no_probe_options();
  co.bootstrap_min_dp_batch = 8;
  CostModel model(co);
  EXPECT_FALSE(model.decide(shape(7)).use_dp);
  EXPECT_TRUE(model.decide(shape(8)).use_dp);
  EXPECT_TRUE(model.decide(shape(500)).use_dp);
}

TEST(CostModel, AnalyticPriorTakesOverWhenBootstrapIsZero) {
  const DispatchForceScope unforced(kUnforced);
  CostModelOptions co = no_probe_options();
  co.bootstrap_min_dp_batch = 0;
  CostModel model(co);
  // The analytic prior must agree with its own closed form, whatever side
  // that lands on, and monotonically favor dp as groups widen.
  const GroupShape tiny = shape(1);
  const GroupShape huge = shape(100000);
  EXPECT_EQ(model.decide(tiny).use_dp,
            model.analytic_us(tiny, CostPath::kDp) <=
                model.analytic_us(tiny, CostPath::kSeq));
  EXPECT_EQ(model.decide(huge).use_dp,
            model.analytic_us(huge, CostPath::kDp) <=
                model.analytic_us(huge, CostPath::kSeq));
  // A 1-wide group pays the full launch tax per query; it must not beat
  // sequential under the paper's own constants.
  EXPECT_FALSE(model.decide(tiny).use_dp);
}

TEST(CostModel, ConvergesToDpWhenDpMeasuresFaster) {
  const DispatchForceScope unforced(kUnforced);
  CostModel model(no_probe_options());
  const GroupShape g = shape(256);
  teach(model, g, CostPath::kSeq, 10.0);
  teach(model, g, CostPath::kDp, 2.0);
  const CostDecision d = model.decide(g);
  EXPECT_TRUE(d.measured);
  EXPECT_TRUE(d.use_dp);
  EXPECT_LT(d.dp_us, d.seq_us);
}

TEST(CostModel, ConvergesToSeqWhenSeqMeasuresFaster) {
  const DispatchForceScope unforced(kUnforced);
  CostModel model(no_probe_options());
  // Sub-threshold group: the bootstrap prior alone would say sequential,
  // but the point is that measurements override the prior in *both*
  // directions -- here a 64-wide group where dp measured 5x slower.
  const GroupShape g = shape(64);
  teach(model, g, CostPath::kSeq, 2.0);
  teach(model, g, CostPath::kDp, 10.0);
  const CostDecision d = model.decide(g);
  EXPECT_TRUE(d.measured);
  EXPECT_FALSE(d.use_dp);
  EXPECT_LT(d.seq_us, d.dp_us);
}

TEST(CostModel, SequentialEstimateExtrapolatesLinearly) {
  CostModel model(no_probe_options());
  teach(model, shape(64), CostPath::kSeq, 3.0);
  // Never measured at 1024, but sequential cost is linear per query.
  const double est = model.estimate_us(shape(1024), CostPath::kSeq);
  EXPECT_NEAR(est, 3.0 * 1024.0, 1e-6);
}

TEST(CostModel, DpEstimateFitsLaunchPlusMarginalAcrossBuckets) {
  CostModel model(no_probe_options());
  // T = 1000 + 1*n: 1064us at n=64, 1512us at n=512.
  const auto total = [](double n) { return 1000.0 + n; };
  for (int i = 0; i < 4; ++i) {
    model.observe(shape(64), CostPath::kDp, total(64));
    model.observe(shape(512), CostPath::kDp, total(512));
  }
  // The two-bucket least-squares line recovers the launch term, so the
  // unmeasured 4096 bucket extrapolates near 1000 + 4096.
  const double est = model.estimate_us(shape(4096), CostPath::kDp);
  EXPECT_GT(est, 0.8 * total(4096));
  EXPECT_LT(est, 1.2 * total(4096));
}

TEST(CostModel, SingleBucketDpExtrapolationErrsTowardSequential) {
  CostModel model(no_probe_options());
  teach(model, shape(256), CostPath::kDp, 4.0);  // 1024us total at n=256
  // Going down, the launch term cannot shrink: total cost holds.
  EXPECT_NEAR(model.estimate_us(shape(16), CostPath::kDp), 4.0 * 256.0, 1e-6);
  // Going up, per-query cost holds (overestimates the amortized launch).
  EXPECT_NEAR(model.estimate_us(shape(2048), CostPath::kDp), 4.0 * 2048.0,
              1e-6);
}

TEST(CostModel, UnmeasuredPathReportsNegativeEstimate) {
  CostModel model(no_probe_options());
  EXPECT_LT(model.estimate_us(shape(128), CostPath::kDp), 0.0);
  teach(model, shape(128), CostPath::kDp, 1.0, 2);  // below min_samples
  EXPECT_LT(model.estimate_us(shape(128), CostPath::kDp), 0.0);
  model.observe(shape(128), CostPath::kDp, 128.0);  // third sample clears it
  EXPECT_GT(model.estimate_us(shape(128), CostPath::kDp), 0.0);
}

TEST(CostModel, ExplorationProbesTheUnmeasuredSide) {
  const DispatchForceScope unforced(kUnforced);
  CostModelOptions co = no_probe_options();
  co.explore_period = 4;
  CostModel model(co);
  const GroupShape g = shape(500);  // prior says dp
  teach(model, g, CostPath::kDp, 2.0);
  int seq_probes = 0;
  for (int i = 0; i < 16; ++i) {
    const CostDecision d = model.decide(g);
    if (!d.use_dp) {
      EXPECT_TRUE(d.explored);
      ++seq_probes;
    }
  }
  EXPECT_EQ(seq_probes, 4);  // every 4th family decision
}

TEST(CostModel, RefreshReprobesTheMeasuredLoser) {
  const DispatchForceScope unforced(kUnforced);
  CostModelOptions co = no_probe_options();
  co.refresh_period = 8;
  CostModel model(co);
  const GroupShape g = shape(256);
  teach(model, g, CostPath::kSeq, 9.0);
  teach(model, g, CostPath::kDp, 1.0);
  int flips = 0;
  for (int i = 0; i < 16; ++i) {
    const CostDecision d = model.decide(g);
    if (!d.use_dp) {
      EXPECT_TRUE(d.explored);
      ++flips;
    }
  }
  EXPECT_EQ(flips, 2);  // every 8th decision re-runs the loser
}

TEST(CostModel, WarmedCoefficientsDriveDecisions) {
  const DispatchForceScope unforced(kUnforced);
  // Forced-coefficients hook: build a snapshot by training a donor model,
  // then warm a fresh one and check it decides identically with no
  // observations of its own.
  CostModel donor(no_probe_options());
  const GroupShape g = shape(32);
  teach(donor, g, CostPath::kSeq, 1.0);
  teach(donor, g, CostPath::kDp, 50.0);
  ASSERT_FALSE(donor.decide(g).use_dp);

  CostModel fresh(no_probe_options());
  EXPECT_TRUE(fresh.decide(g).use_dp);  // prior: 32 >= 8
  fresh.warm(donor.snapshot());
  const CostDecision d = fresh.decide(g);
  EXPECT_TRUE(d.measured);
  EXPECT_FALSE(d.use_dp);
}

TEST(CostModel, SnapshotRoundTripPreservesEstimates) {
  CostModel a(no_probe_options());
  teach(a, shape(64), CostPath::kSeq, 3.0);
  teach(a, shape(64), CostPath::kDp, 7.0);
  teach(a, shape(1024, 8), CostPath::kDp, 0.5);
  const CostModelSnapshot snap = a.snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);

  CostModel b(no_probe_options());
  b.warm(snap);
  for (const auto& g : {shape(64), shape(1024, 8)}) {
    for (const auto p : {CostPath::kSeq, CostPath::kDp}) {
      EXPECT_DOUBLE_EQ(b.estimate_us(g, p), a.estimate_us(g, p));
    }
  }
  // Snapshot keys are sorted (stable serialization).
  for (std::size_t i = 1; i < snap.entries.size(); ++i) {
    EXPECT_LT(snap.entries[i - 1].key, snap.entries[i].key);
  }
}

TEST(CostModel, WarmKeepsTheBetterTrainedCell) {
  CostModel model(no_probe_options());
  const GroupShape g = shape(64);
  teach(model, g, CostPath::kSeq, 3.0, 8);  // 8 samples say 3us/q

  CostModelSnapshot stale;
  stale.entries.push_back(
      {CostModel::cell_key(g, CostPath::kSeq), 4, 99.0, 64.0});
  model.warm(stale);  // fewer samples: must not clobber
  EXPECT_NEAR(model.estimate_us(g, CostPath::kSeq), 3.0 * 64.0, 1e-6);

  CostModelSnapshot better;
  better.entries.push_back(
      {CostModel::cell_key(g, CostPath::kSeq), 100, 5.0, 64.0});
  model.warm(better);
  EXPECT_NEAR(model.estimate_us(g, CostPath::kSeq), 5.0 * 64.0, 1e-6);
}

TEST(CostModel, MergeSnapshotIsMoreSamplesWins) {
  CostModelSnapshot a, b;
  a.entries.push_back({1, 10, 2.0, 64.0});
  a.entries.push_back({2, 5, 3.0, 64.0});
  b.entries.push_back({2, 50, 4.0, 128.0});
  b.entries.push_back({3, 1, 9.0, 8.0});
  merge_snapshot(a, b);
  ASSERT_EQ(a.entries.size(), 3u);
  EXPECT_EQ(a.entries[0].key, 1u);
  EXPECT_EQ(a.entries[1].key, 2u);
  EXPECT_EQ(a.entries[1].samples, 50u);  // b's better-trained cell won
  EXPECT_DOUBLE_EQ(a.entries[1].us_per_query, 4.0);
  EXPECT_EQ(a.entries[2].key, 3u);
}

TEST(CostModel, GlobalForcePinsEveryDecision) {
  const DispatchForceScope unforced(kUnforced);
  CostModel model(no_probe_options());
  const GroupShape g = shape(500);
  teach(model, g, CostPath::kSeq, 1.0);
  teach(model, g, CostPath::kDp, 50.0);
  ASSERT_FALSE(model.decide(g).use_dp);

  CostModel::force(CostPath::kDp);
  EXPECT_EQ(CostModel::forced_path(), static_cast<int>(CostPath::kDp));
  EXPECT_TRUE(model.decide(g).use_dp);
  CostModel::force(CostPath::kSeq);
  EXPECT_FALSE(model.decide(shape(100000)).use_dp);
  CostModel::unforce();
  EXPECT_EQ(CostModel::forced_path(), -1);
  EXPECT_FALSE(model.decide(g).use_dp);  // back to the measurements
}

TEST(CostModel, ObserveIgnoresDegenerateSamples) {
  CostModel model(no_probe_options());
  const GroupShape g = shape(64);
  model.observe(shape(0), CostPath::kSeq, 100.0);
  model.observe(g, CostPath::kSeq, -5.0);
  model.observe(g, CostPath::kSeq, std::numeric_limits<double>::quiet_NaN());
  model.observe(g, CostPath::kSeq, std::numeric_limits<double>::infinity());
  EXPECT_TRUE(model.snapshot().empty());
}

}  // namespace
