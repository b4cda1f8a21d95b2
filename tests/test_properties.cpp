// Cross-cutting property sweeps: sector containment vs brute angle math,
// spread-cover rotation invariance, CSV fuzz, routing edge cases, energy
// monotonicity, orientation invariants under rigid motions.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "antenna/transmission.hpp"
#include "common/constants.hpp"
#include "core/planner.hpp"
#include "core/validate.hpp"
#include "geometry/generators.hpp"
#include "io/csv.hpp"
#include "sim/energy.hpp"
#include "sim/routing.hpp"

namespace geom = dirant::geom;
namespace core = dirant::core;
using dirant::kPi;
using dirant::kTwoPi;

namespace {

TEST(Properties, SectorContainsMatchesBruteForce) {
  geom::Rng rng(1);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int trial = 0; trial < 3000; ++trial) {
    const geom::Point apex{u(rng) * 10 - 5, u(rng) * 10 - 5};
    const double start = u(rng) * kTwoPi;
    const double width = u(rng) * kTwoPi;
    const double radius = 0.2 + u(rng) * 3.0;
    const auto s = geom::make_arc(start, width, radius);
    const geom::Point p{apex.x + (u(rng) * 8 - 4), apex.y + (u(rng) * 8 - 4)};
    if (p == apex) continue;
    const double d = geom::dist(apex, p);
    const double theta = geom::angle_to(apex, p);
    double delta = geom::ccw_delta(start, theta);
    const bool brute =
        d <= radius + 1e-9 && (delta <= width + 1e-9 ||
                               kTwoPi - delta <= 1e-9);
    // Skip knife-edge cases where brute and tolerance legitimately differ.
    if (std::abs(d - radius) < 1e-6 || std::abs(delta - width) < 1e-6 ||
        delta > kTwoPi - 1e-6) {
      continue;
    }
    EXPECT_EQ(s.contains(apex, p), brute) << "trial " << trial;
  }
}

TEST(Properties, SpreadCoverRotationInvariant) {
  geom::Rng rng(2);
  std::uniform_real_distribution<double> u(0.0, kTwoPi);
  for (int trial = 0; trial < 300; ++trial) {
    const int d = 2 + trial % 5;
    std::vector<double> rays(d);
    for (auto& r : rays) r = u(rng);
    const double rot = u(rng);
    std::vector<double> rotated(d);
    for (int i = 0; i < d; ++i) rotated[i] = geom::norm_angle(rays[i] + rot);
    for (int k = 1; k <= d; ++k) {
      const auto a = geom::min_spread_cover(rays, k);
      const auto b = geom::min_spread_cover(rotated, k);
      EXPECT_NEAR(a.total_spread, b.total_spread, 1e-9)
          << "trial " << trial << " k=" << k;
    }
  }
}

TEST(Properties, OrientationInvariantUnderTranslation) {
  geom::Rng rng(3);
  const auto pts = geom::uniform_square(40, 6.0, rng);
  std::vector<geom::Point> shifted(pts.size());
  const geom::Vec2 offset{123.5, -77.25};
  for (size_t i = 0; i < pts.size(); ++i) shifted[i] = pts[i] + offset;
  const auto a = core::orient(pts, {2, kPi});
  const auto b = core::orient(shifted, {2, kPi});
  EXPECT_NEAR(a.measured_radius, b.measured_radius, 1e-9);
  EXPECT_NEAR(a.lmax, b.lmax, 1e-9);
  EXPECT_EQ(a.orientation.total_antennas(), b.orientation.total_antennas());
  EXPECT_TRUE(core::certify(shifted, b, {2, kPi}).ok());
}

TEST(Properties, EnergyScalesWithPathLossExponent) {
  geom::Rng rng(4);
  const auto pts = geom::uniform_square(60, 7.0, rng);
  const auto res = core::orient(pts, {3, 0.0});
  dirant::sim::EnergyModel m2{2.0, 0.05};
  dirant::sim::EnergyModel m4{4.0, 0.05};
  const auto e2 = dirant::sim::energy_report(res.orientation, m2);
  const auto e4 = dirant::sim::energy_report(res.orientation, m4);
  // With ranges > 1 (the generators produce lmax ~1.5+), beta=4 costs more.
  if (res.measured_radius > 1.0) {
    EXPECT_GT(e4.total, e2.total);
  }
  EXPECT_GT(e2.saving_factor, 1.0);
  EXPECT_GT(e4.saving_factor, 1.0);
}

TEST(Properties, CsvFuzzNeverCrashes) {
  geom::Rng rng(5);
  const char charset[] = "0123456789.,;+-eE #\t\nxyz";
  for (int trial = 0; trial < 500; ++trial) {
    std::string blob;
    const int len = 1 + static_cast<int>(rng() % 120);
    for (int i = 0; i < len; ++i) {
      blob.push_back(charset[rng() % (sizeof(charset) - 1)]);
    }
    std::istringstream in(blob);
    try {
      const auto pts = dirant::io::read_points(in);
      for (const auto& p : pts) {
        (void)p;  // parsed values may be anything; must not crash
      }
    } catch (const std::runtime_error&) {
      // structured rejection is fine
    }
  }
}

TEST(Properties, RoutingSelfAndAdjacent) {
  const std::vector<geom::Point> pts = {{0, 0}, {1, 0}, {2, 0}};
  dirant::graph::DigraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 1);
  b.add_edge(1, 0);
  const auto g = b.build();
  const auto self = dirant::sim::greedy_route(g, pts, 1, 1);
  EXPECT_TRUE(self.delivered);
  EXPECT_EQ(self.hops, 0);
  const auto hop = dirant::sim::greedy_route(g, pts, 0, 2);
  EXPECT_TRUE(hop.delivered);
  EXPECT_EQ(hop.hops, 2);
  // Unreachable: no out-edge makes progress.
  dirant::graph::DigraphBuilder b2(3);
  b2.add_edge(0, 1);
  const auto fail = dirant::sim::greedy_route(b2.build(), pts, 1, 2);
  EXPECT_FALSE(fail.delivered);
}

TEST(Properties, DeterministicAcrossRuns) {
  // The whole pipeline is seed-deterministic: same inputs, same outputs.
  for (int run = 0; run < 2; ++run) {
    geom::Rng rng(99);
    const auto pts = geom::make_instance(geom::Distribution::kClusters, 70,
                                         rng);
    const auto res = core::orient(pts, {2, 0.8 * kPi});
    static double first_radius = -1.0;
    static int first_antennas = -1;
    if (run == 0) {
      first_radius = res.measured_radius;
      first_antennas = res.orientation.total_antennas();
    } else {
      EXPECT_DOUBLE_EQ(res.measured_radius, first_radius);
      EXPECT_EQ(res.orientation.total_antennas(), first_antennas);
    }
  }
}

}  // namespace
