// Exact predicates, sectors, generators.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/constants.hpp"
#include "geometry/exact.hpp"
#include "geometry/generators.hpp"
#include "geometry/sector.hpp"

namespace geom = dirant::geom;
using dirant::kPi;
using dirant::kTwoPi;

namespace {

TEST(Exact, Orient2dBasics) {
  EXPECT_EQ(geom::orient2d_sign({0, 0}, {1, 0}, {0, 1}), 1);
  EXPECT_EQ(geom::orient2d_sign({0, 0}, {0, 1}, {1, 0}), -1);
  EXPECT_EQ(geom::orient2d_sign({0, 0}, {1, 1}, {2, 2}), 0);
}

TEST(Exact, Orient2dNearDegenerate) {
  // At |x| = 1e16 the double ULP is 2: an offset of 2 is the smallest
  // representable deviation from the diagonal, and the naive determinant
  // (~1e16 * 2 against cancellation of 1e32 terms) is pure noise there.
  const geom::Point a{0.0, 0.0};
  const geom::Point b{1e16, 1e16};
  const geom::Point c{1e16 + 2.0, 1e16};
  EXPECT_EQ(geom::orient2d_sign(a, b, c), -1);  // c lies below the diagonal
  EXPECT_EQ(geom::orient2d_sign(b, a, c), 1);
  // Offsets that round back onto b itself are genuinely degenerate.
  EXPECT_EQ(geom::orient2d_sign(a, b, {1e16 + 1.0, 1e16}), 0);
  // Exactly collinear with huge coordinates.
  EXPECT_EQ(geom::orient2d_sign({1e17, 1e17}, {2e17, 2e17}, {3e17, 3e17}), 0);
}

TEST(Exact, Orient2dConsistentUnderRotation) {
  geom::Rng rng(12);
  std::uniform_real_distribution<double> u(-100.0, 100.0);
  for (int t = 0; t < 500; ++t) {
    const geom::Point a{u(rng), u(rng)}, b{u(rng), u(rng)}, c{u(rng), u(rng)};
    const int s = geom::orient2d_sign(a, b, c);
    EXPECT_EQ(geom::orient2d_sign(b, c, a), s);
    EXPECT_EQ(geom::orient2d_sign(c, a, b), s);
    EXPECT_EQ(geom::orient2d_sign(a, c, b), -s);
  }
}

TEST(Exact, IncircleBasics) {
  // Unit circle through (1,0),(0,1),(-1,0); origin strictly inside.
  EXPECT_EQ(geom::incircle_sign({1, 0}, {0, 1}, {-1, 0}, {0, 0}), 1);
  EXPECT_EQ(geom::incircle_sign({1, 0}, {0, 1}, {-1, 0}, {0, -2}), -1);
  // Cocircular: fourth point on the same circle.
  EXPECT_EQ(geom::incircle_sign({1, 0}, {0, 1}, {-1, 0}, {0, -1}), 0);
}

TEST(Exact, PointInTriangle) {
  const geom::Point a{0, 0}, b{4, 0}, c{0, 4};
  EXPECT_TRUE(geom::point_in_triangle({1, 1}, a, b, c));
  EXPECT_TRUE(geom::point_in_triangle({2, 0}, a, b, c));  // on edge
  EXPECT_TRUE(geom::point_in_triangle({0, 0}, a, b, c));  // corner
  EXPECT_FALSE(geom::point_in_triangle({3, 3}, a, b, c));
  // Clockwise triangle must work too.
  EXPECT_TRUE(geom::point_in_triangle({1, 1}, a, c, b));
}

TEST(Sector, ContainsBasics) {
  const auto s = geom::make_arc(0.0, kPi / 2, 2.0);
  EXPECT_TRUE(s.contains({0, 0}, {1, 0}));
  EXPECT_TRUE(s.contains({0, 0}, {0, 1}));
  EXPECT_TRUE(s.contains({0, 0}, {1, 1}));
  EXPECT_FALSE(s.contains({0, 0}, {-1, 0}));   // wrong direction
  EXPECT_FALSE(s.contains({0, 0}, {3, 0}));    // too far
  EXPECT_FALSE(s.contains({0, 0}, {0, 0}));    // apex excluded
  EXPECT_TRUE(s.contains({0, 0}, {2, 0}));     // boundary radius inclusive
}

TEST(Sector, ZeroWidthBeamHitsExactTarget) {
  const geom::Point apex{1, 1};
  const geom::Point target{4, 5};
  const auto beam = geom::beam_to(apex, target);
  EXPECT_TRUE(beam.contains(apex, target));
  EXPECT_DOUBLE_EQ(beam.width, 0.0);
  EXPECT_NEAR(beam.radius, 5.0, 1e-12);
  EXPECT_FALSE(beam.contains(apex, {4, 6}));
  // A nearer point on the same ray is covered.
  EXPECT_TRUE(beam.contains(apex, geom::lerp(apex, target, 0.5)));
}

TEST(Sector, WrappingInterval) {
  const auto s = geom::make_arc(kTwoPi - 0.5, 1.0, 10.0);
  EXPECT_TRUE(s.contains({0, 0}, {1, 0.0}));  // angle 0 inside the wrap
  EXPECT_TRUE(s.contains({0, 0}, geom::from_polar(1.0, kTwoPi - 0.3)));
  EXPECT_TRUE(s.contains({0, 0}, geom::from_polar(1.0, 0.4)));
  EXPECT_FALSE(s.contains({0, 0}, geom::from_polar(1.0, 1.0)));
}

TEST(Generators, SizesAndDeterminism) {
  for (auto dist : geom::kAllDistributions) {
    geom::Rng rng1(77), rng2(77);
    const auto a = geom::make_instance(dist, 64, rng1);
    const auto b = geom::make_instance(dist, 64, rng2);
    EXPECT_EQ(a.size(), b.size()) << to_string(dist);
    EXPECT_GE(a.size(), 60u) << to_string(dist);  // grid may trim slightly
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(Generators, TriangularLatticeHasSixtyDegreeStructure) {
  const auto pts = geom::triangular_lattice(4, 4, 2.0);
  EXPECT_EQ(pts.size(), 16u);
  // Nearest neighbours at exactly the spacing.
  double closest = 1e300;
  for (size_t i = 0; i < pts.size(); ++i) {
    for (size_t j = i + 1; j < pts.size(); ++j) {
      closest = std::min(closest, geom::dist(pts[i], pts[j]));
    }
  }
  EXPECT_NEAR(closest, 2.0, 1e-12);
}

TEST(Generators, StarWithCenterGeometry) {
  const auto pts = geom::star_with_center(5, 3.0);
  ASSERT_EQ(pts.size(), 6u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(geom::dist(pts[i], pts[5]), 3.0, 1e-12);
  }
}

TEST(Generators, DedupeMinSeparation) {
  std::vector<geom::Point> pts = {{0, 0}, {0.001, 0}, {1, 0}, {1.0005, 0}};
  const auto out = geom::dedupe_min_separation(pts, 0.01);
  EXPECT_EQ(out.size(), 2u);
}

TEST(Generators, PerimeterBandStaysInBandAndReachesAllSides) {
  geom::Rng rng(314);
  const double side = 20.0, band = 2.0;
  const auto pts = geom::perimeter_band(2000, side, band, rng);
  ASSERT_EQ(pts.size(), 2000u);
  int bottom = 0, top = 0, left = 0, right = 0;
  for (const auto& p : pts) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, side);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, side);
    const double margin = std::min(std::min(p.x, side - p.x),
                                   std::min(p.y, side - p.y));
    EXPECT_LE(margin, band + 1e-12) << "interior point at (" << p.x << ", "
                                    << p.y << ")";
    bottom += p.y <= band;
    top += p.y >= side - band;
    left += p.x <= band;
    right += p.x >= side - band;
  }
  // All four sides populated (strips are area-weighted).
  EXPECT_GT(bottom, 100);
  EXPECT_GT(top, 100);
  EXPECT_GT(left, 100);
  EXPECT_GT(right, 100);
}

TEST(Generators, AnnulusStaysInRadiusBand) {
  geom::Rng rng(315);
  const auto pts = geom::annulus(500, 3.0, 5.0, rng);
  for (const auto& p : pts) {
    const double r = std::sqrt(p.x * p.x + p.y * p.y);
    EXPECT_GE(r, 3.0 - 1e-12);
    EXPECT_LE(r, 5.0 + 1e-12);
  }
}

TEST(Generators, MakeInstanceCoversNewDistributions) {
  geom::Rng rng(316);
  const auto peri =
      geom::make_instance(geom::Distribution::kPerimeter, 200, rng);
  EXPECT_EQ(peri.size(), 200u);
  EXPECT_EQ(to_string(geom::Distribution::kPerimeter), "perimeter");
  const auto ann = geom::make_instance(geom::Distribution::kAnnulus, 200, rng);
  EXPECT_EQ(ann.size(), 200u);
  EXPECT_EQ(to_string(geom::Distribution::kAnnulus), "annulus");
}

}  // namespace
