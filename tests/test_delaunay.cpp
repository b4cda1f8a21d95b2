// Delaunay triangulation: structural validity, the empty-circumcircle
// property (via exact predicates), the EMST it exists to serve (edge for
// edge, on every instance family), and the radix sort behind its insertion
// order and Kruskal's edge order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/radix_sort.hpp"
#include "delaunay/delaunay.hpp"
#include "geometry/exact.hpp"
#include "geometry/generators.hpp"
#include "mst/emst.hpp"

namespace geom = dirant::geom;
namespace delaunay = dirant::delaunay;
namespace mst = dirant::mst;

namespace {

std::set<std::pair<int, int>> edge_set(
    const std::vector<std::pair<int, int>>& edges) {
  return {edges.begin(), edges.end()};
}

TEST(Delaunay, TinyInputs) {
  EXPECT_TRUE(delaunay::triangulate(std::vector<geom::Point>{}).edges.empty());
  EXPECT_TRUE(
      delaunay::triangulate(std::vector<geom::Point>{{0, 0}}).edges.empty());
  const auto two =
      delaunay::triangulate(std::vector<geom::Point>{{0, 0}, {1, 0}});
  ASSERT_EQ(two.edges.size(), 1u);
  EXPECT_EQ(two.edges[0], std::make_pair(0, 1));
}

TEST(Delaunay, TriangleAndSquare) {
  const auto tri =
      delaunay::triangulate(std::vector<geom::Point>{{0, 0}, {1, 0}, {0, 1}});
  EXPECT_EQ(tri.triangles.size(), 1u);
  EXPECT_EQ(tri.edges.size(), 3u);

  const auto sq = delaunay::triangulate(
      std::vector<geom::Point>{{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  EXPECT_EQ(sq.triangles.size(), 2u);
  EXPECT_EQ(sq.edges.size(), 5u);  // 4 sides + 1 diagonal
}

TEST(Delaunay, CollinearPointsYieldPath) {
  std::vector<geom::Point> pts;
  for (int i = 0; i < 10; ++i) pts.push_back({static_cast<double>(i), 0.0});
  const auto t = delaunay::triangulate(pts);
  EXPECT_TRUE(t.triangles.empty());
  const auto es = edge_set(t.edges);
  for (int i = 0; i + 1 < 10; ++i) {
    EXPECT_TRUE(es.count({i, i + 1})) << i;
  }
}

TEST(Delaunay, DuplicatesBridged) {
  const std::vector<geom::Point> pts = {{0, 0}, {1, 0}, {0, 0}, {2, 2}};
  const auto t = delaunay::triangulate(pts);
  const auto es = edge_set(t.edges);
  EXPECT_TRUE(es.count({0, 2}));  // duplicate linked to representative
}

class DelaunaySweep : public ::testing::TestWithParam<int> {};

TEST_P(DelaunaySweep, EmptyCircumcircleProperty) {
  const int n = GetParam();
  geom::Rng rng(n);
  const auto pts = geom::uniform_square(n, std::sqrt(n), rng);
  const auto t = delaunay::triangulate(pts);
  ASSERT_FALSE(t.triangles.empty());
  // Spot-check every triangle against every point (exact incircle).
  int violations = 0;
  for (const auto& tri : t.triangles) {
    const auto &a = pts[tri[0]], &b = pts[tri[1]], &c = pts[tri[2]];
    const bool ccw = geom::orient2d_sign(a, b, c) > 0;
    for (int p = 0; p < n; ++p) {
      if (p == tri[0] || p == tri[1] || p == tri[2]) continue;
      const int s = ccw ? geom::incircle_sign(a, b, c, pts[p])
                        : geom::incircle_sign(a, c, b, pts[p]);
      if (s > 0) ++violations;
    }
  }
  EXPECT_EQ(violations, 0);
}

TEST_P(DelaunaySweep, ContainsEmst) {
  const int n = GetParam();
  geom::Rng rng(2 * n + 1);
  const auto pts = geom::uniform_square(n, std::sqrt(n), rng);
  const auto dt = delaunay::triangulate(pts);
  const auto tree = mst::prim_emst(pts);
  const auto es = edge_set(dt.edges);
  for (const auto& e : tree.edges) {
    const auto key = std::make_pair(std::min(e.u, e.v), std::max(e.u, e.v));
    EXPECT_TRUE(es.count(key)) << e.u << "-" << e.v;
  }
}

TEST_P(DelaunaySweep, EulerFormula) {
  const int n = GetParam();
  geom::Rng rng(3 * n + 7);
  const auto pts = geom::uniform_disk(n, std::sqrt(n), rng);
  const auto t = delaunay::triangulate(pts);
  // v - e + f = 2 with f = triangles + outer face.
  const int v = n;
  const int e = static_cast<int>(t.edges.size());
  const int f = static_cast<int>(t.triangles.size()) + 1;
  EXPECT_EQ(v - e + f, 2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DelaunaySweep,
                         ::testing::Values(10, 60, 250, 900));

// --- The EMST contract -------------------------------------------------------
// The insertion order decides which diagonal a cocircular quadruple gets, so
// the edge set on tie-heavy inputs is not part of the contract; the EMST
// drawn from it is.  Every family the engine can meet, plus the exact
// lattices, cocircular and collinear sets and duplicate-heavy sets.

enum class Family {
  kDistribution,  // one of geom::kAllDistributions
  kExactGrid,
  kTriangularLattice,
  kRegularPolygon,
  kExactCollinear,
  kDuplicateHeavy,
};

std::vector<geom::Point> family_instance(Family f, geom::Distribution d, int n,
                                         geom::Rng& rng) {
  const int side = static_cast<int>(std::ceil(std::sqrt(n)));
  std::vector<geom::Point> pts;
  switch (f) {
    case Family::kDistribution:
      return geom::make_instance(d, n, rng);
    case Family::kExactGrid:
      pts = geom::grid_points(side, side, 1.0, 0.0, rng);
      break;
    case Family::kTriangularLattice:
      pts = geom::triangular_lattice(side, side, 1.0);
      break;
    case Family::kRegularPolygon:
      return geom::regular_polygon(n, std::sqrt(n), {3.0, -2.0}, 0.1);
    case Family::kExactCollinear:
      for (int i = 0; i < n; ++i) {
        const int j = static_cast<int>(rng() % (4 * n));  // shuffled, gaps
        pts.push_back({0.5 * j, 0.25 * j + 7.0});
      }
      std::sort(pts.begin(), pts.end(), [](const auto& a, const auto& b) {
        return a.x < b.x;
      });
      pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
      std::shuffle(pts.begin(), pts.end(), rng);
      return pts;
    case Family::kDuplicateHeavy: {
      pts = geom::uniform_square((n + 2) / 3, std::sqrt(n), rng);
      const size_t uniques = pts.size();
      while (static_cast<int>(pts.size()) < n) {
        pts.push_back(pts[rng() % uniques]);
      }
      std::shuffle(pts.begin(), pts.end(), rng);
      return pts;
    }
  }
  pts.resize(n);
  return pts;
}

// Canonical edge list of a tree: sorted (min, max) pairs.
std::vector<std::pair<int, int>> tree_key(const mst::Tree& t) {
  std::vector<std::pair<int, int>> k;
  for (const auto& e : t.edges) {
    k.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v));
  }
  std::sort(k.begin(), k.end());
  return k;
}

// O(n^2) Prim that picks the minimum crossing edge under the library's
// strict (d2, min, max) order: the unique MST under that order, built with
// neither a triangulation nor a sort.  On tie-free inputs it is prim_emst's
// tree; on lattices and duplicates it also fixes which tied edges win,
// where prim_emst's own tie-breaking may pick another MST.
std::vector<std::pair<int, int>> ordered_prim(
    const std::vector<geom::Point>& pts) {
  struct Key {
    double d2;
    int lo, hi;
    bool operator<(const Key& o) const {
      if (d2 != o.d2) return d2 < o.d2;
      return lo != o.lo ? lo < o.lo : hi < o.hi;
    }
  };
  const int n = static_cast<int>(pts.size());
  std::vector<Key> best(n, {std::numeric_limits<double>::infinity(), n, n});
  std::vector<char> in_tree(n, 0);
  std::vector<std::pair<int, int>> edges;
  int cur = 0;
  in_tree[0] = 1;
  for (int added = 1; added < n; ++added) {
    int next = -1;
    for (int v = 0; v < n; ++v) {
      if (in_tree[v]) continue;
      const Key k{geom::dist2(pts[cur], pts[v]), std::min(cur, v),
                  std::max(cur, v)};
      if (k < best[v]) best[v] = k;
      if (next == -1 || best[v] < best[next]) next = v;
    }
    in_tree[next] = 1;
    edges.emplace_back(best[next].lo, best[next].hi);
    cur = next;
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

class FrontEndContract
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FrontEndContract, DelaunayKruskalIsThePrimTree) {
  const auto [family_index, n] = GetParam();
  const int num_dist = static_cast<int>(geom::kAllDistributions.size());
  const Family family = family_index < num_dist
                            ? Family::kDistribution
                            : static_cast<Family>(family_index - num_dist + 1);
  const geom::Distribution dist =
      geom::kAllDistributions[std::min(family_index, num_dist - 1)];
  delaunay::Triangulator triangulator;  // one warm builder across seeds
  delaunay::Triangulation dt;
  mst::KruskalScratch scratch;
  mst::Tree tree;
  for (int seed = 1; seed <= 4; ++seed) {
    geom::Rng rng(7919 * seed + 31 * n + family_index);
    const auto pts = family_instance(family, dist, n, rng);
    const int m = static_cast<int>(pts.size());
    triangulator.triangulate(pts, dt);
    ASSERT_FALSE(dt.edges.empty()) << "triangulation failed, seed " << seed;
    mst::kruskal_emst(pts, dt.edges, tree, scratch);
    if (family == Family::kDistribution &&
        dist != geom::Distribution::kGrid) {
      // No length ties: the MST is unique and prim_emst builds it.
      EXPECT_EQ(tree_key(tree), tree_key(mst::prim_emst(pts)))
          << "seed " << seed;
    } else {
      EXPECT_EQ(tree_key(tree), ordered_prim(pts))
          << "seed " << seed << ", m " << m;
    }
  }
}

std::string front_end_name(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static constexpr const char* kExtra[5] = {
      "exact_grid", "triangular_lattice", "regular_polygon", "exact_collinear",
      "duplicate_heavy"};
  const int f = std::get<0>(info.param);
  const int num_dist = static_cast<int>(geom::kAllDistributions.size());
  std::string name = f < num_dist ? to_string(geom::kAllDistributions[f])
                                  : std::string(kExtra[f - num_dist]);
  name += "_n" + std::to_string(std::get<1>(info.param));
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Families, FrontEndContract,
    ::testing::Combine(
        ::testing::Range(0, static_cast<int>(geom::kAllDistributions.size()) +
                                5),
        ::testing::Values(50, 500, 3000)),
    front_end_name);

// Convex hull vertex count (Andrew's monotone chain, exact turns; points
// on a hull edge are not vertices).
int hull_size(std::vector<geom::Point> pts) {
  std::sort(pts.begin(), pts.end(), [](const auto& a, const auto& b) {
    return a.x != b.x ? a.x < b.x : a.y < b.y;
  });
  std::vector<geom::Point> h(2 * pts.size());
  size_t k = 0;
  for (size_t i = 0; i < pts.size(); ++i) {
    while (k >= 2 && geom::orient2d_sign(h[k - 2], h[k - 1], pts[i]) <= 0) --k;
    h[k++] = pts[i];
  }
  for (size_t i = pts.size() - 1, lo = k + 1; i-- > 0;) {
    while (k >= lo && geom::orient2d_sign(h[k - 2], h[k - 1], pts[i]) <= 0) {
      --k;
    }
    h[k++] = pts[i];
  }
  return static_cast<int>(k) - 1;
}

TEST(DelaunayContract, TriangleCountIsTwoNMinusTwoMinusHull) {
  delaunay::Triangulator triangulator;
  delaunay::Triangulation dt;
  for (const auto d : {geom::Distribution::kUniformSquare,
                       geom::Distribution::kUniformDisk,
                       geom::Distribution::kClusters,
                       geom::Distribution::kAnnulus}) {
    for (int n : {3, 50, 700, 5000}) {
      geom::Rng rng(n + 11 * static_cast<int>(d));
      const auto pts = geom::make_instance(d, n, rng);
      triangulator.triangulate(pts, dt);
      EXPECT_EQ(static_cast<int>(dt.triangles.size()),
                2 * n - 2 - hull_size(pts))
          << to_string(d) << " n=" << n;
      // Euler: every triangle is ccw over distinct input ids.
      for (const auto& t : dt.triangles) {
        ASSERT_GT(geom::orient2d_sign(pts[t[0]], pts[t[1]], pts[t[2]]), 0);
      }
    }
  }
}

TEST(DelaunayContract, LocalDelaunayPropertyAtTwentyThousand) {
  const int n = 20000;
  geom::Rng rng(20000);
  const auto pts = geom::uniform_square(n, std::sqrt(n), rng);
  const auto dt = delaunay::triangulate(pts);
  ASSERT_EQ(static_cast<int>(dt.triangles.size()),
            2 * n - 2 - hull_size(pts));
  // Half-edges keyed by their undirected edge; the two triangles sharing
  // an interior edge sit next to each other after the sort.
  struct Half {
    int lo, hi, tri, opposite;
  };
  std::vector<Half> halves;
  for (int t = 0; t < static_cast<int>(dt.triangles.size()); ++t) {
    const auto& v = dt.triangles[t];
    for (int i = 0; i < 3; ++i) {
      const int a = v[(i + 1) % 3], b = v[(i + 2) % 3];
      halves.push_back({std::min(a, b), std::max(a, b), t, v[i]});
    }
  }
  std::sort(halves.begin(), halves.end(), [](const Half& x, const Half& y) {
    return std::tie(x.lo, x.hi, x.tri) < std::tie(y.lo, y.hi, y.tri);
  });
  int interior = 0, violations = 0;
  for (size_t i = 0; i + 1 < halves.size(); ++i) {
    const Half& x = halves[i];
    const Half& y = halves[i + 1];
    if (x.lo != y.lo || x.hi != y.hi) continue;
    ++interior;
    const auto& tx = dt.triangles[x.tri];
    const auto& ty = dt.triangles[y.tri];
    if (geom::incircle_sign(pts[tx[0]], pts[tx[1]], pts[tx[2]],
                            pts[y.opposite]) > 0 ||
        geom::incircle_sign(pts[ty[0]], pts[ty[1]], pts[ty[2]],
                            pts[x.opposite]) > 0) {
      ++violations;
    }
  }
  EXPECT_EQ(violations, 0);
  // Every edge of the output is a triangle edge, and each interior one is
  // shared by exactly two triangles: 3T = 2E - h.
  EXPECT_EQ(static_cast<size_t>(interior),
            dt.edges.size() - static_cast<size_t>(hull_size(pts)));
}

// --- The radix sort ----------------------------------------------------------

void expect_radix_matches(std::vector<std::uint64_t> keys, int shift,
                          dirant::RadixScratch& scratch) {
  std::vector<std::uint64_t> expected = keys;
  std::stable_sort(expected.begin(), expected.end(),
                   [shift](std::uint64_t a, std::uint64_t b) {
                     return (a >> shift) < (b >> shift);
                   });
  dirant::radix_sort(keys, shift, scratch);
  EXPECT_EQ(keys, expected) << "shift " << shift << ", size " << keys.size();
}

TEST(RadixSort, MatchesStableSortOnEveryShape) {
  dirant::RadixScratch scratch;
  std::mt19937_64 rng(99);
  for (const int shift : {0, 20, 29}) {
    expect_radix_matches({}, shift, scratch);
    expect_radix_matches({rng()}, shift, scratch);
    for (const size_t n : {2u, 37u, 1000u, 70000u}) {
      std::vector<std::uint64_t> keys(n);
      for (auto& k : keys) k = rng();
      expect_radix_matches(keys, shift, scratch);
      // Few distinct sort values over random payloads: stability shows.
      for (auto& k : keys) k = (rng() % 5) << 50 | (rng() & 0xfffff);
      expect_radix_matches(keys, shift, scratch);
      // All equal, and every digit but one constant (skipped passes).
      std::fill(keys.begin(), keys.end(), rng());
      expect_radix_matches(keys, shift, scratch);
      for (auto& k : keys) k = 0xabcdef0123456789ull ^ ((rng() & 0x7ff) << 33);
      expect_radix_matches(keys, shift, scratch);
    }
  }
  // With a unique index below `shift` the order is std::sort's.
  std::vector<std::uint64_t> keys(5000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = (rng() % 300) << 20 | i;
  std::vector<std::uint64_t> expected = keys;
  std::sort(expected.begin(), expected.end());
  dirant::radix_sort(keys, 20, scratch);
  EXPECT_EQ(keys, expected);
}

}  // namespace
