// Spatial index: the grid, validated against brute force oracles.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <vector>

#include "common/constants.hpp"
#include "geometry/angle.hpp"
#include "geometry/generators.hpp"
#include "spatial/grid_index.hpp"

namespace geom = dirant::geom;
namespace spatial = dirant::spatial;

namespace {

TEST(GridIndex, WithinMatchesBruteForce) {
  geom::Rng rng(5);
  const auto pts = geom::make_instance(geom::Distribution::kClusters, 250, rng);
  spatial::GridIndex grid(pts, 1.0);
  std::uniform_real_distribution<double> u(-5.0, 25.0);
  for (int q = 0; q < 100; ++q) {
    const geom::Point query{u(rng), u(rng)};
    for (double r : {0.5, 1.7, 4.0}) {
      std::vector<int> want;
      for (int i = 0; i < static_cast<int>(pts.size()); ++i) {
        if (geom::dist2(query, pts[i]) <= r * r) want.push_back(i);
      }
      auto got = grid.within(query, r);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want);
    }
  }
}

TEST(GridIndex, ExclusionHonoured) {
  const std::vector<geom::Point> pts = {{0, 0}, {0.1, 0}, {5, 5}};
  spatial::GridIndex grid(pts, 1.0);
  const auto hits = grid.within({0, 0}, 1.0, 0);
  EXPECT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 1);
}

TEST(GridIndex, AppendingWithinReusesBuffer) {
  geom::Rng rng(8);
  const auto pts = geom::uniform_square(120, 6.0, rng);
  spatial::GridIndex grid(pts, 0.7);
  std::vector<int> buf;
  for (int u = 0; u < 5; ++u) {
    buf.clear();
    grid.within(pts[u], 1.3, u, buf);
    auto fresh = grid.within(pts[u], 1.3, u);
    std::sort(buf.begin(), buf.end());
    std::sort(fresh.begin(), fresh.end());
    EXPECT_EQ(buf, fresh);
  }
}

// Brute-force reference for the Yao-cone query: nearest point per ccw cone.
static void brute_cone_nearest(const std::vector<geom::Point>& pts,
                               const geom::Point& q, int k, double phase,
                               int exclude, std::vector<int>& out) {
  out.assign(k, -1);
  std::vector<double> best(k, std::numeric_limits<double>::infinity());
  const double cone = dirant::kTwoPi / k;
  for (int v = 0; v < static_cast<int>(pts.size()); ++v) {
    if (v == exclude || (pts[v].x == q.x && pts[v].y == q.y)) continue;
    const double theta = geom::ccw_delta(phase, geom::angle_to(q, pts[v]));
    int c = static_cast<int>(theta / cone);
    if (c >= k) c = k - 1;
    const double d2 = geom::dist2(q, pts[v]);
    if (d2 < best[c]) {
      best[c] = d2;
      out[c] = v;
    }
  }
}

TEST(GridIndex, ConeNearestMatchesBruteForce) {
  for (int seed = 0; seed < 6; ++seed) {
    geom::Rng rng(100 + seed);
    const auto pts = geom::make_instance(
        geom::kAllDistributions[seed % geom::kAllDistributions.size()], 90,
        rng);
    spatial::GridIndex grid(pts, 0.8);
    std::vector<int> got, want;
    for (int k : {1, 2, 6, 9}) {
      const double phase = 0.37 * seed;
      for (int u = 0; u < static_cast<int>(pts.size()); u += 7) {
        grid.cone_nearest(pts[u], k, phase, u, got);
        brute_cone_nearest(pts, pts[u], k, phase, u, want);
        ASSERT_EQ(got.size(), want.size());
        for (int c = 0; c < k; ++c) {
          // Equal distance ties may resolve to different indices.
          if (got[c] == want[c]) continue;
          ASSERT_NE(want[c], -1) << "cone " << c << " should be empty";
          ASSERT_NE(got[c], -1) << "cone " << c << " should be non-empty";
          EXPECT_NEAR(geom::dist2(pts[u], pts[got[c]]),
                      geom::dist2(pts[u], pts[want[c]]), 1e-12);
        }
      }
    }
  }
}

// A recycled index must be indistinguishable from a freshly constructed
// one — same within() hit sets, same cone_nearest answers (which also
// exercises cone_reach against the rebuilt bounding box).
void expect_rebuild_matches_fresh(const spatial::GridIndex& rebuilt,
                                  const std::vector<geom::Point>& pts,
                                  double cell, unsigned seed) {
  const spatial::GridIndex fresh(pts, cell);
  ASSERT_EQ(rebuilt.size(), fresh.size());
  geom::Rng rng(seed);
  std::uniform_real_distribution<double> u(-2.0, 12.0);
  std::vector<int> hits_a, hits_b;
  spatial::GridIndex::ConeScratch cone_a, cone_b;
  std::vector<int> near_a, near_b;
  for (int q = 0; q < 40; ++q) {
    const geom::Point query{u(rng), u(rng)};
    for (double r : {0.4, 1.3, 5.0}) {
      hits_a.clear();
      hits_b.clear();
      rebuilt.within(query, r, -1, hits_a);
      fresh.within(query, r, -1, hits_b);
      std::sort(hits_a.begin(), hits_a.end());
      std::sort(hits_b.begin(), hits_b.end());
      EXPECT_EQ(hits_a, hits_b) << "radius " << r;
    }
    for (int k : {1, 4, 7}) {
      rebuilt.cone_nearest(query, k, 0.3, -1, near_a, cone_a);
      fresh.cone_nearest(query, k, 0.3, -1, near_b, cone_b);
      EXPECT_EQ(near_a, near_b) << "k " << k;
    }
  }
}

TEST(GridIndex, RebuildMatchesFreshAcrossInstances) {
  // One index recycled through instances of different distributions, sizes
  // (shrinking AND growing, so stale tails must be invisible), cell sizes,
  // and a duplicate-heavy degenerate set.
  spatial::GridIndex grid;
  unsigned seed = 900;
  struct Step {
    geom::Distribution dist;
    int n;
    double cell;
  };
  const std::vector<Step> steps = {
      {geom::Distribution::kUniformSquare, 220, 0.9},
      {geom::Distribution::kClusters, 300, 0.5},
      {geom::Distribution::kUniformSquare, 60, 1.7},  // shrink
      {geom::Distribution::kClusters, 260, 0.8},      // regrow
  };
  for (const auto& step : steps) {
    geom::Rng rng(++seed);
    const auto pts = geom::make_instance(step.dist, step.n, rng);
    grid.rebuild(pts, step.cell);
    expect_rebuild_matches_fresh(grid, pts, step.cell, seed * 31);
  }

  // Duplicate points: several exact copies per site, rebuilt over a grid
  // that previously held a larger spread-out instance.
  std::vector<geom::Point> dupes;
  for (int i = 0; i < 50; ++i) {
    dupes.push_back({static_cast<double>(i % 5), static_cast<double>(i % 3)});
  }
  grid.rebuild(dupes, 1.0);
  expect_rebuild_matches_fresh(grid, dupes, 1.0, 777);

  // Empty rebuild: queries must come back clean, not crash or hit stale
  // data.
  grid.rebuild({}, 1.0);
  EXPECT_EQ(grid.size(), 0);
  EXPECT_TRUE(grid.within({0, 0}, 5.0).empty());
}

TEST(GridIndex, SameSizeRebuildIsStable) {
  // The certify steady state: rebuild over same-size instances again and
  // again; answers must match a fresh index every time (warm buffers, no
  // stale cell boundaries).
  spatial::GridIndex grid;
  for (int round = 0; round < 4; ++round) {
    geom::Rng rng(4400 + round);
    const auto pts =
        geom::make_instance(geom::Distribution::kUniformSquare, 180, rng);
    grid.rebuild(pts, 0.75);
    expect_rebuild_matches_fresh(grid, pts, 0.75, 500 + round);
  }
}

// n points along y = x with a tiny jitter off the line, x ascending: the
// bounding box is a unit square that the points barely fill, so a cell
// sized to their spacing would make a grid quadratic in n.
std::vector<geom::Point> diagonal_line(int n, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<geom::Point> pts(n);
  for (int i = 0; i < n; ++i) {
    const double x = (i + 0.5 * u(rng)) / n;
    pts[i] = {x, x + 1e-9 * u(rng)};
  }
  return pts;
}

TEST(GridIndex, CellCapKeepsADiagonalLineLinear) {
  // A third of the spacing per cell would be ~ (3n)^2 cells; the cap
  // doubles the cell until nx*ny <= 4n + 1024, and queries stay exact.
  const int n = 4000;
  const auto pts = diagonal_line(n, 29);
  const double cell = 0.3 / n;
  const spatial::GridIndex grid(pts, cell);
  EXPECT_LE(grid.cell_count(), 4u * n + 1024);
  EXPECT_GT(grid.cell(), cell);
  std::mt19937_64 rng(30);
  std::uniform_int_distribution<int> pick(0, n - 1);
  for (int q = 0; q < 50; ++q) {
    const int c = pick(rng);
    for (const double r : {0.5 / n, 3.0 / n, 40.0 / n}) {
      std::vector<int> want;
      for (int i = 0; i < n; ++i) {
        if (i != c && geom::dist2(pts[c], pts[i]) <= r * r) want.push_back(i);
      }
      auto got = grid.within(pts[c], r, c);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want) << "query " << c << " radius " << r;
    }
  }
  // A masked rebuild caps by its alive count.
  std::vector<char> alive(n, 0);
  for (int i = 0; i < n; i += 8) alive[i] = 1;
  spatial::GridIndex masked;
  masked.rebuild(pts, cell, alive);
  EXPECT_LE(masked.cell_count(), 4u * (n / 8) + 1024);
  EXPECT_GT(masked.cell(), grid.cell());
}

TEST(GridIndex, FreshGeometryTracksTheCellCap) {
  // Erasing members lowers the cap 4*live + 1024 and inserting raises it:
  // fresh_geometry() turns false exactly when a rebuild over the members
  // would pick another cell.  Only interior points move, so the bounding
  // box (points 0 and n-1) never does.
  const int n = 600;
  const auto pts = diagonal_line(n, 31);
  const double cell = 1e-4;
  std::vector<char> alive(n, 1);
  spatial::GridIndex grid, fresh;
  grid.rebuild(pts, cell, alive);
  int i = 1;
  for (; i + 1 < n && grid.fresh_geometry(); ++i) {
    grid.erase(i, pts[i]);
    alive[i] = 0;
    fresh.rebuild(pts, cell, alive);
    EXPECT_EQ(grid.fresh_geometry(), fresh.cell() == grid.cell())
        << "erase " << i;
  }
  ASSERT_FALSE(grid.fresh_geometry()) << "erasing never crossed the cap";
  // From the shrunken member set, re-inserting crosses it the other way.
  grid.rebuild(pts, cell, alive);
  for (int j = i - 1; j >= 1 && grid.fresh_geometry(); --j) {
    grid.insert(j, pts[j]);
    alive[j] = 1;
    fresh.rebuild(pts, cell, alive);
    EXPECT_EQ(grid.fresh_geometry(), fresh.cell() == grid.cell())
        << "insert " << j;
  }
  EXPECT_FALSE(grid.fresh_geometry()) << "inserting never crossed the cap";
}

TEST(GridIndex, ConeNearestEmptyOutwardCones) {
  // A corner point of a grid layout: the outward cones must come back
  // empty without scanning forever (reach bound), the inward ones full.
  std::vector<geom::Point> pts;
  for (int x = 0; x < 10; ++x) {
    for (int y = 0; y < 10; ++y) {
      pts.push_back({static_cast<double>(x), static_cast<double>(y)});
    }
  }
  spatial::GridIndex grid(pts, 1.0);
  std::vector<int> got, want;
  grid.cone_nearest(pts[0], 8, 0.0, 0, got);
  brute_cone_nearest(pts, pts[0], 8, 0.0, 0, want);
  for (int c = 0; c < 8; ++c) {
    EXPECT_EQ(got[c] == -1, want[c] == -1) << c;
  }
}

}  // namespace
