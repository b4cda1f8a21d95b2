// Unit tests for cyclic angle arithmetic (geometry/angle.hpp) — the
// foundation every orientation construction rests on.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "common/assert.hpp"
#include "geometry/angle.hpp"
#include "geometry/generators.hpp"

namespace geom = dirant::geom;
using dirant::kPi;
using dirant::kTwoPi;

TEST(Angle, NormalizeBasics) {
  EXPECT_DOUBLE_EQ(geom::norm_angle(0.0), 0.0);
  EXPECT_DOUBLE_EQ(geom::norm_angle(kTwoPi), 0.0);
  EXPECT_DOUBLE_EQ(geom::norm_angle(-kPi / 2), 1.5 * kPi);
  EXPECT_NEAR(geom::norm_angle(5 * kTwoPi + 0.25), 0.25, 1e-12);
  EXPECT_NEAR(geom::norm_angle(-7 * kTwoPi - 0.25), kTwoPi - 0.25, 1e-9);
}

TEST(Angle, NormalizeRange) {
  for (double a = -50.0; a < 50.0; a += 0.137) {
    const double n = geom::norm_angle(a);
    EXPECT_GE(n, 0.0);
    EXPECT_LT(n, kTwoPi);
  }
}

TEST(Angle, NormalizeIsBitIdenticalToTheFmodPath) {
  // The fast path for |a| < 2*pi must return exactly what the general fmod
  // path returns, bit for bit (signed zeros included).
  const auto reference = [](double a) {
    a = std::fmod(a, kTwoPi);
    if (a < 0.0) a += kTwoPi;
    if (a >= kTwoPi) a = 0.0;
    return a;
  };
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  std::vector<double> inputs = {0.0, -0.0, -1e-300, 1e-300};
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double edge : {0.0, kTwoPi, -kTwoPi}) {
    inputs.push_back(edge);
    inputs.push_back(std::nextafter(edge, kInf));
    inputs.push_back(std::nextafter(edge, -kInf));
  }
  std::mt19937_64 rng(2718);
  std::uniform_real_distribution<double> angle(-4.0 * kTwoPi, 4.0 * kTwoPi);
  for (int i = 0; i < 1000000; ++i) inputs.push_back(angle(rng));
  for (const double a : inputs) {
    ASSERT_EQ(bits(geom::norm_angle(a)), bits(reference(a))) << a;
  }
}

TEST(Angle, CcwDelta) {
  EXPECT_DOUBLE_EQ(geom::ccw_delta(0.0, kPi / 2), kPi / 2);
  EXPECT_DOUBLE_EQ(geom::ccw_delta(kPi / 2, 0.0), 1.5 * kPi);
  EXPECT_DOUBLE_EQ(geom::ccw_delta(1.0, 1.0), 0.0);
  EXPECT_NEAR(geom::ccw_delta(kTwoPi - 0.1, 0.1), 0.2, 1e-12);
}

TEST(Angle, AngularSeparationSymmetric) {
  for (double a = 0.0; a < kTwoPi; a += 0.39) {
    for (double b = 0.0; b < kTwoPi; b += 0.41) {
      const double s1 = geom::angular_separation(a, b);
      const double s2 = geom::angular_separation(b, a);
      EXPECT_NEAR(s1, s2, 1e-12);
      EXPECT_LE(s1, kPi + 1e-12);
      EXPECT_GE(s1, 0.0);
    }
  }
}

TEST(Angle, AngleOfCardinalDirections) {
  EXPECT_NEAR(geom::angle_of({1.0, 0.0}), 0.0, 1e-15);
  EXPECT_NEAR(geom::angle_of({0.0, 1.0}), kPi / 2, 1e-15);
  EXPECT_NEAR(geom::angle_of({-1.0, 0.0}), kPi, 1e-15);
  EXPECT_NEAR(geom::angle_of({0.0, -1.0}), 1.5 * kPi, 1e-15);
}

TEST(Angle, AngleOfZeroVectorThrows) {
  EXPECT_THROW(geom::angle_of({0.0, 0.0}), dirant::contract_violation);
}

TEST(Angle, InCcwInterval) {
  EXPECT_TRUE(geom::in_ccw_interval(0.5, 0.0, 1.0));
  EXPECT_TRUE(geom::in_ccw_interval(0.0, 0.0, 1.0));   // start inclusive
  EXPECT_TRUE(geom::in_ccw_interval(1.0, 0.0, 1.0));   // end inclusive
  EXPECT_FALSE(geom::in_ccw_interval(1.1, 0.0, 1.0));
  // Interval wrapping zero.
  EXPECT_TRUE(geom::in_ccw_interval(0.1, kTwoPi - 0.3, 0.5));
  EXPECT_TRUE(geom::in_ccw_interval(kTwoPi - 0.1, kTwoPi - 0.3, 0.5));
  EXPECT_FALSE(geom::in_ccw_interval(kPi, kTwoPi - 0.3, 0.5));
  // Full circle covers everything.
  EXPECT_TRUE(geom::in_ccw_interval(3.0, 1.0, kTwoPi));
}

TEST(Angle, InCcwIntervalTolerance) {
  EXPECT_TRUE(geom::in_ccw_interval(1.0 + 1e-12, 0.0, 1.0));
  EXPECT_TRUE(geom::in_ccw_interval(kTwoPi - 1e-12, 0.0, 1.0));  // just cw
  EXPECT_FALSE(geom::in_ccw_interval(1.0 + 1e-6, 0.0, 1.0));
}

TEST(Angle, SortByAngle) {
  const std::vector<double> th = {3.0, 1.0, 2.0, 0.5};
  const auto idx = geom::sort_by_angle(th);
  ASSERT_EQ(idx.size(), 4u);
  EXPECT_EQ(idx[0], 3);
  EXPECT_EQ(idx[1], 1);
  EXPECT_EQ(idx[2], 2);
  EXPECT_EQ(idx[3], 0);
}

TEST(Angle, GapsSumToFullCircle) {
  const std::vector<double> sorted = {0.1, 1.2, 2.0, 4.5, 6.0};
  const auto gaps = geom::gaps_of_sorted(sorted);
  ASSERT_EQ(gaps.size(), sorted.size());
  double total = 0.0;
  for (const auto& g : gaps) total += g.width;
  EXPECT_NEAR(total, kTwoPi, 1e-12);
}

TEST(Angle, GapsSingleRay) {
  const std::vector<double> sorted = {1.0};
  const auto gaps = geom::gaps_of_sorted(sorted);
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_DOUBLE_EQ(gaps[0].width, kTwoPi);
}

// --- min_spread_cover: the algorithmic heart of Lemma 1 -------------------

TEST(MinSpreadCover, SingleAntennaComplementOfLargestGap) {
  // Rays at 0, pi/2, pi: largest gap is pi (from pi back to 0 ccw).
  const std::vector<double> rays = {0.0, kPi / 2, kPi};
  const auto cover = geom::min_spread_cover(rays, 1);
  ASSERT_EQ(cover.arcs.size(), 1u);
  EXPECT_NEAR(cover.total_spread, kPi, 1e-12);
  EXPECT_DOUBLE_EQ(cover.arcs[0].first, 0.0);
  EXPECT_NEAR(cover.arcs[0].second, kPi, 1e-12);
}

TEST(MinSpreadCover, KAtLeastRaysGivesZeroSpread) {
  const std::vector<double> rays = {0.0, 1.0, 2.0};
  for (int k = 3; k <= 6; ++k) {
    const auto cover = geom::min_spread_cover(rays, k);
    EXPECT_DOUBLE_EQ(cover.total_spread, 0.0);
    EXPECT_EQ(cover.arcs.size(), 3u);
    for (const auto& [start, width] : cover.arcs) EXPECT_DOUBLE_EQ(width, 0.0);
  }
}

TEST(MinSpreadCover, RegularDGonNeedsLemma1Bound) {
  // Lemma 1 necessity: d rays at regular 2*pi/d spacing need exactly
  // 2*pi*(d-k)/d total spread with k antennae.
  for (int d = 2; d <= 8; ++d) {
    std::vector<double> rays(d);
    for (int i = 0; i < d; ++i) rays[i] = kTwoPi * i / d;
    for (int k = 1; k < d; ++k) {
      const auto cover = geom::min_spread_cover(rays, k);
      EXPECT_NEAR(cover.total_spread, kTwoPi * (d - k) / d, 1e-9)
          << "d=" << d << " k=" << k;
      EXPECT_LE(static_cast<int>(cover.arcs.size()), k);
    }
  }
}

TEST(MinSpreadCover, CoversAllRays) {
  geom::Rng rng{42};  // reuse the generator RNG type for determinism
  std::uniform_real_distribution<double> u(0.0, kTwoPi);
  for (int trial = 0; trial < 200; ++trial) {
    const int d = 2 + static_cast<int>(u(rng) * 7 / kTwoPi);
    std::vector<double> rays(d);
    for (auto& r : rays) r = u(rng);
    for (int k = 1; k <= d; ++k) {
      const auto cover = geom::min_spread_cover(rays, k);
      for (double r : rays) {
        bool covered = false;
        for (const auto& [start, width] : cover.arcs) {
          if (geom::in_ccw_interval(geom::norm_angle(r), start, width)) {
            covered = true;
            break;
          }
        }
        EXPECT_TRUE(covered) << "ray " << r << " uncovered with k=" << k;
      }
    }
  }
}

TEST(MinSpreadCover, OptimalVersusBruteForce) {
  // Brute force: choosing k gaps to drop == choosing the k largest.
  // Verify optimality by comparing against all subsets of dropped gaps.
  geom::Rng rng{7};
  std::uniform_real_distribution<double> u(0.0, kTwoPi);
  for (int trial = 0; trial < 100; ++trial) {
    const int d = 3 + trial % 5;
    std::vector<double> rays(d);
    for (auto& r : rays) r = u(rng);
    std::sort(rays.begin(), rays.end());
    rays.erase(std::unique(rays.begin(), rays.end()), rays.end());
    const int m = static_cast<int>(rays.size());
    const auto gaps = geom::gaps_of_sorted(rays);
    for (int k = 1; k < m; ++k) {
      const auto cover = geom::min_spread_cover(rays, k);
      double best = kTwoPi;
      for (int mask = 0; mask < (1 << m); ++mask) {
        if (__builtin_popcount(mask) != k) continue;
        double dropped = 0.0;
        for (int i = 0; i < m; ++i) {
          if (mask & (1 << i)) dropped += gaps[i].width;
        }
        best = std::min(best, kTwoPi - dropped);
      }
      EXPECT_NEAR(cover.total_spread, best, 1e-9);
    }
  }
}
