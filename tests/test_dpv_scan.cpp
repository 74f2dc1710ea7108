// Scan primitive tests: the Figure 8 golden vectors plus parameterized
// equivalence sweeps against the reference implementation, across
// direction / inclusivity / operator / backend.

#include "dpv/dpv.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>

#include "geom/geom.hpp"
#include "test_util.hpp"

namespace dps::dpv {
namespace {

using test::make_parallel_context;
using test::random_flags;
using test::random_ints;
using test::ref_seg_scan;

// ---- Figure 8 golden reproduction. ----------------------------------------

struct Fig8 {
  Vec<int> data{3, 1, 2, 1, 0, 1, 2, 2, 1, 0, 3, 3};
  Flags sf{1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0};
};

TEST(ScanFigure8, UpInclusive) {
  Context ctx;
  Fig8 f;
  const Vec<int> expect{3, 4, 6, 1, 1, 2, 4, 2, 3, 0, 3, 6};
  EXPECT_EQ(seg_scan(ctx, Plus<int>{}, f.data, f.sf, Dir::kUp,
                     Incl::kInclusive),
            expect);
}

TEST(ScanFigure8, UpExclusive) {
  Context ctx;
  Fig8 f;
  const Vec<int> expect{0, 3, 4, 0, 1, 1, 2, 0, 2, 0, 0, 3};
  EXPECT_EQ(seg_scan(ctx, Plus<int>{}, f.data, f.sf, Dir::kUp,
                     Incl::kExclusive),
            expect);
}

TEST(ScanFigure8, DownInclusive) {
  Context ctx;
  Fig8 f;
  const Vec<int> expect{6, 3, 2, 4, 3, 3, 2, 3, 1, 6, 6, 3};
  EXPECT_EQ(seg_scan(ctx, Plus<int>{}, f.data, f.sf, Dir::kDown,
                     Incl::kInclusive),
            expect);
}

TEST(ScanFigure8, DownExclusive) {
  Context ctx;
  Fig8 f;
  const Vec<int> expect{3, 2, 0, 3, 3, 2, 0, 1, 0, 6, 3, 0};
  EXPECT_EQ(seg_scan(ctx, Plus<int>{}, f.data, f.sf, Dir::kDown,
                     Incl::kExclusive),
            expect);
}

TEST(ScanFigure8, ParallelBackendMatches) {
  Context ctx = make_parallel_context();
  Fig8 f;
  const Vec<int> expect{6, 3, 2, 4, 3, 3, 2, 3, 1, 6, 6, 3};
  EXPECT_EQ(seg_scan(ctx, Plus<int>{}, f.data, f.sf, Dir::kDown,
                     Incl::kInclusive),
            expect);
}

// ---- Basic unsegmented behaviour. ------------------------------------------

TEST(Scan, EmptyVector) {
  Context ctx;
  EXPECT_TRUE(scan(ctx, Plus<int>{}, Vec<int>{}).empty());
}

TEST(Scan, SingleElement) {
  Context ctx;
  EXPECT_EQ(scan(ctx, Plus<int>{}, Vec<int>{7}), (Vec<int>{7}));
  EXPECT_EQ(scan(ctx, Plus<int>{}, Vec<int>{7}, Dir::kUp, Incl::kExclusive),
            (Vec<int>{0}));
}

TEST(Scan, UpInclusivePrefixSums) {
  Context ctx;
  EXPECT_EQ(scan(ctx, Plus<int>{}, Vec<int>{1, 2, 3, 4}),
            (Vec<int>{1, 3, 6, 10}));
}

TEST(Scan, DownInclusiveSuffixSums) {
  Context ctx;
  EXPECT_EQ(scan(ctx, Plus<int>{}, Vec<int>{1, 2, 3, 4}, Dir::kDown),
            (Vec<int>{10, 9, 7, 4}));
}

TEST(Scan, MinMaxOperators) {
  Context ctx;
  EXPECT_EQ(scan(ctx, Min<int>{}, Vec<int>{5, 3, 4, 1, 2}),
            (Vec<int>{5, 3, 3, 1, 1}));
  EXPECT_EQ(scan(ctx, Max<int>{}, Vec<int>{1, 4, 2, 5, 3}),
            (Vec<int>{1, 4, 4, 5, 5}));
}

TEST(Scan, CopyOperatorBroadcastsGroupHead) {
  Context ctx;
  Vec<int> data{9, 1, 2, 7, 3, 4};
  Flags sf{1, 0, 0, 1, 0, 0};
  EXPECT_EQ(seg_broadcast(ctx, data, sf), (Vec<int>{9, 9, 9, 7, 7, 7}));
}

TEST(Scan, CountsOneScanPrimitivePerCall) {
  Context ctx;
  Vec<int> v{1, 2, 3};
  scan(ctx, Plus<int>{}, v);
  scan(ctx, Plus<int>{}, v, Dir::kDown);
  EXPECT_EQ(ctx.counters()
                .invocations[static_cast<std::size_t>(Prim::kScan)],
            2u);
}

// ---- Native down-scans against the reversed up-scan formulation. ----------
//
// The oracle is a down-scan written as reverse -> up-scan (heads remapped
// to group tails) -> reverse.  The native right-to-left scan must reproduce
// it bit for bit, including on a parallel context, where its mirrored
// blocks must regroup floating-point sums exactly as the reversed up-scan's
// blocks do.

template <typename T, typename Op>
Vec<T> reversed_up_scan_oracle(Context& ctx, Op op, const Vec<T>& data,
                               const Flags* flags, Incl incl) {
  const std::size_t n = data.size();
  Vec<T> rev(n);
  for (std::size_t i = 0; i < n; ++i) rev[i] = data[n - 1 - i];
  Vec<T> up;
  if (flags != nullptr) {
    Flags tails(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = n - 1 - i;
      tails[i] = (j + 1 == n || (*flags)[j + 1] != 0) ? 1 : 0;
    }
    up = seg_scan(ctx, op, rev, tails, Dir::kUp, incl);
  } else {
    up = scan(ctx, op, rev, Dir::kUp, incl);
  }
  Vec<T> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = up[n - 1 - i];
  return out;
}

template <typename T, typename Op, typename Gen>
void expect_down_scan_matches_oracle(Op op, Gen gen) {
  Context serial;
  Context parallel = make_parallel_context();
  for (Context* ctx : {&serial, &parallel}) {
    const std::size_t g = ctx->grain();
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, g, 2 * g + 3,
                                std::size_t{50000}}) {
      const Vec<T> data = gen(n, /*seed=*/n * 31 + 3);
      const Flags flags = random_flags(n, 7, /*seed=*/n * 11 + 9);
      for (const bool segmented : {false, true}) {
        for (const Incl incl : {Incl::kInclusive, Incl::kExclusive}) {
          const Vec<T> got =
              segmented ? seg_scan(*ctx, op, data, flags, Dir::kDown, incl)
                        : scan(*ctx, op, data, Dir::kDown, incl);
          const Vec<T> want = reversed_up_scan_oracle(
              *ctx, op, data, segmented ? &flags : nullptr, incl);
          ASSERT_EQ(got.size(), want.size());
          std::size_t differing = 0;
          for (std::size_t i = 0; i < n; ++i) {
            differing += std::memcmp(&got[i], &want[i], sizeof(T)) != 0;
          }
          EXPECT_EQ(differing, 0u)
              << "lanes=" << ctx->lanes() << " n=" << n
              << " segmented=" << segmented
              << " inclusive=" << (incl == Incl::kInclusive);
        }
      }
    }
  }
}

TEST(DpvScan, DownScanMatchesReversedUpScanPlusDouble) {
  // Magnitudes spread over 16 decades, so any regrouping of the sums
  // would change their rounding.
  expect_down_scan_matches_oracle<double>(
      Plus<double>{}, [](std::size_t n, std::uint64_t seed) {
        std::mt19937_64 rng(seed);
        std::uniform_real_distribution<double> mant(-1.0, 1.0);
        std::uniform_real_distribution<double> expo(-8.0, 8.0);
        Vec<double> v(n);
        for (auto& x : v) x = mant(rng) * std::pow(10.0, expo(rng));
        return v;
      });
}

TEST(DpvScan, DownScanMatchesReversedUpScanPlusU64) {
  expect_down_scan_matches_oracle<std::uint64_t>(
      Plus<std::uint64_t>{}, [](std::size_t n, std::uint64_t seed) {
        std::mt19937_64 rng(seed);
        Vec<std::uint64_t> v(n);
        for (auto& x : v) x = rng();
        return v;
      });
}

TEST(DpvScan, DownScanMatchesReversedUpScanRectUnion) {
  expect_down_scan_matches_oracle<geom::Rect>(
      geom::RectUnion{}, [](std::size_t n, std::uint64_t seed) {
        std::mt19937_64 rng(seed);
        std::uniform_real_distribution<double> u(-1000.0, 1000.0);
        Vec<geom::Rect> v(n);
        for (auto& r : v) {
          const double x = u(rng), y = u(rng);
          r = geom::Rect{x, y, x + std::abs(u(rng)) * 0.01,
                         y + std::abs(u(rng)) * 0.01};
        }
        return v;
      });
}

TEST(DpvScan, DownScanMatchesReversedUpScanCopy) {
  // Copy is not commutative: the carry must stay the left operand.
  expect_down_scan_matches_oracle<int>(
      Copy<int>{}, [](std::size_t n, std::uint64_t seed) {
        return random_ints(n, 1 << 20, seed);
      });
}

// ---- Parameterized equivalence sweep vs reference. --------------------------

struct ScanCase {
  std::size_t n;
  std::size_t avg_group;
  bool parallel;
  Dir dir;
  Incl incl;
};

class ScanSweep : public ::testing::TestWithParam<ScanCase> {};

TEST_P(ScanSweep, MatchesReferencePlus) {
  const ScanCase& c = GetParam();
  Context ctx = c.parallel ? make_parallel_context() : Context{};
  const auto data = random_ints(c.n, 100, /*seed=*/c.n * 7 + 1);
  const Flags flags = random_flags(c.n, c.avg_group, /*seed=*/c.n * 13 + 5);
  EXPECT_EQ(seg_scan(ctx, Plus<int>{}, data, flags, c.dir, c.incl),
            ref_seg_scan(Plus<int>{}, data, flags, c.dir, c.incl));
}

TEST_P(ScanSweep, MatchesReferenceMin) {
  const ScanCase& c = GetParam();
  Context ctx = c.parallel ? make_parallel_context() : Context{};
  const auto data = random_ints(c.n, 1000, /*seed=*/c.n * 3 + 2);
  const Flags flags = random_flags(c.n, c.avg_group, /*seed=*/c.n * 17 + 7);
  EXPECT_EQ(seg_scan(ctx, Min<int>{}, data, flags, c.dir, c.incl),
            ref_seg_scan(Min<int>{}, data, flags, c.dir, c.incl));
}

std::vector<ScanCase> scan_cases() {
  std::vector<ScanCase> cases;
  for (const std::size_t n : {1u, 2u, 7u, 64u, 1000u, 4096u}) {
    for (const std::size_t g : {1u, 4u, 1000000u}) {
      for (const bool par : {false, true}) {
        for (const Dir dir : {Dir::kUp, Dir::kDown}) {
          for (const Incl incl : {Incl::kInclusive, Incl::kExclusive}) {
            cases.push_back({n, g, par, dir, incl});
          }
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllShapes, ScanSweep,
                         ::testing::ValuesIn(scan_cases()));

}  // namespace
}  // namespace dps::dpv
