// Spatial index: the grid, validated against brute force oracles.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

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
