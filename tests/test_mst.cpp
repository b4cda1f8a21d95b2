// EMST builders, degree-5 repair, rooted trees, and the paper's Fact 1 /
// Fact 2 geometry (Figure 2).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/constants.hpp"
#include "delaunay/delaunay.hpp"
#include "geometry/point.hpp"
#include "graph/union_find.hpp"
#include "geometry/generators.hpp"
#include "common/workspace.hpp"
#include "mst/degree5.hpp"
#include "mst/emst.hpp"
#include "mst/engine.hpp"
#include "mst/facts.hpp"
#include "mst/rooted.hpp"
#include "reference_degree_repair.hpp"

namespace geom = dirant::geom;
namespace mst = dirant::mst;
using dirant::kPi;
using dirant::Workspace;

namespace {

std::vector<std::pair<int, int>> complete_graph_edges(int n) {
  std::vector<std::pair<int, int>> e;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) e.emplace_back(i, j);
  }
  return e;
}

class EmstSweep
    : public ::testing::TestWithParam<std::tuple<geom::Distribution, int>> {};

TEST_P(EmstSweep, PrimMatchesKruskalWeight) {
  const auto [dist, n] = GetParam();
  geom::Rng rng(42 + n);
  const auto pts = geom::make_instance(dist, n, rng);
  const auto prim = mst::prim_emst(pts);
  const auto kruskal = mst::kruskal_emst(pts, complete_graph_edges(n));
  prim.validate(pts);
  kruskal.validate(pts);
  EXPECT_NEAR(prim.total_weight(), kruskal.total_weight(),
              1e-9 * (1.0 + prim.total_weight()));
  EXPECT_NEAR(prim.lmax(), kruskal.lmax(), 1e-9);
}

TEST_P(EmstSweep, AutoEngineAgreesWithPrim) {
  const auto [dist, n] = GetParam();
  geom::Rng rng(7 + n);
  const auto pts = geom::make_instance(dist, n, rng);
  const auto prim = mst::prim_emst(pts);
  const auto autot =  // prim_cutoff 1 forces Delaunay+Kruskal
      mst::EmstEngine({mst::EngineKind::kAuto, /*prim_cutoff=*/1}).emst(pts);
  autot.validate(pts);
  EXPECT_NEAR(prim.total_weight(), autot.total_weight(),
              1e-9 * (1.0 + prim.total_weight()));
}

INSTANTIATE_TEST_SUITE_P(
    Families, EmstSweep,
    ::testing::Combine(::testing::ValuesIn(geom::kAllDistributions),
                       ::testing::Values(8, 40, 160)),
    [](const auto& info) {
      std::string name = to_string(std::get<0>(info.param)) + "_n" +
                         std::to_string(std::get<1>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --- EmstEngine property tests ---------------------------------------------
// The facade must agree with the Prim reference on total weight and lmax
// over every instance family it can meet in production: random, clustered,
// collinear, duplicate-heavy and fully doubled inputs (the collinear and
// duplicate families exercise the degenerate-input fallbacks), and the
// tie-heavy triangular and square lattices, where every edge length repeats
// many times.

class EngineEquivalence : public ::testing::TestWithParam<int> {};

namespace {

std::vector<geom::Point> equivalence_instance(int family, int n,
                                              geom::Rng& rng) {
  switch (family) {
    case 0:
      return geom::uniform_square(n, 10.0, rng);
    case 1:
      return geom::gaussian_clusters(n, 5, 12.0, 0.4, rng);
    case 2:
      return geom::collinear_points(n, 0.5, 0.0, rng);
    case 4:
    case 5: {
      // Tie-heavy lattices, truncated to n points.
      const int side = static_cast<int>(std::ceil(std::sqrt(n)));
      auto pts = family == 4 ? geom::triangular_lattice(side, side, 1.0)
                             : geom::grid_points(side, side, 1.0, 0.0, rng);
      pts.resize(n);
      return pts;
    }
    case 6: {
      // Every point exactly twice: a zero-length tie per point.
      auto pts = geom::uniform_square((n + 1) / 2, 8.0, rng);
      pts.insert(pts.end(), pts.begin(), pts.end());
      pts.resize(n);
      return pts;
    }
    default: {
      // Duplicate-heavy: half the points are exact copies of earlier ones.
      auto pts = geom::uniform_square((n + 1) / 2, 8.0, rng);
      const size_t uniques = pts.size();
      while (static_cast<int>(pts.size()) < n) {
        pts.push_back(pts[rng() % uniques]);
      }
      return pts;
    }
  }
}

/// Canonical edge set: exact identity, not just matching weights.
std::vector<std::pair<int, int>> edge_key(const mst::Tree& t) {
  std::vector<std::pair<int, int>> k;
  for (const auto& e : t.edges) {
    k.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v));
  }
  std::sort(k.begin(), k.end());
  return k;
}

void expect_tree_equivalent(const std::vector<geom::Point>& pts,
                            const mst::Tree& reference,
                            const mst::Tree& candidate, const char* what) {
  candidate.validate(pts);
  EXPECT_NEAR(reference.total_weight(), candidate.total_weight(),
              1e-9 * (1.0 + reference.total_weight()))
      << what;
  EXPECT_NEAR(reference.lmax(), candidate.lmax(), 1e-9) << what;
}

}  // namespace

TEST_P(EngineEquivalence, MatchesPrimOnAllFamilies) {
  const int family = GetParam();
  for (int n : {2, 3, 17, 120}) {
    geom::Rng rng(1000 * family + n);
    const auto pts = equivalence_instance(family, n, rng);
    const auto reference = mst::prim_emst(pts);
    // Forced Delaunay+Kruskal (with its internal degenerate fallbacks).
    const mst::EmstEngine dk({mst::EngineKind::kDelaunayKruskal});
    mst::Tree dk_tree;
    mst::EmstScratch dk_scratch;
    dk.emst(pts, dk_tree, dk_scratch);
    expect_tree_equivalent(pts, reference, dk_tree, "delaunay-kruskal");
    if (dk_scratch.last_kind == mst::EngineKind::kDelaunayKruskal) {
      // Kruskal accepts edges under the strict (d2, min, max) order, so its
      // tree is THE unique MST under that order: over the Delaunay
      // candidates it must be the same edge set as over the complete graph,
      // ties and zero-length duplicates included.
      EXPECT_EQ(edge_key(dk_tree),
                edge_key(mst::kruskal_emst(pts, complete_graph_edges(n))))
          << "n=" << n;
    }
    // The auto policy, whatever it selects at this size.
    expect_tree_equivalent(pts, reference, mst::EmstEngine::shared().emst(pts),
                           "auto");
    EXPECT_NEAR(mst::EmstEngine::shared().lmax(pts), reference.lmax(), 1e-9);
  }
}

namespace {
std::string equivalence_family_name(const ::testing::TestParamInfo<int>& info) {
  static constexpr const char* kNames[7] = {
      "random",  "clustered", "collinear", "duplicates",
      "lattice", "grid",      "doubled"};
  return kNames[info.param];
}
}  // namespace

INSTANTIATE_TEST_SUITE_P(Families, EngineEquivalence,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6),
                         equivalence_family_name);

TEST(EmstEngine, SelectionPolicy) {
  const mst::EmstEngine& aut = mst::EmstEngine::shared();
  EXPECT_EQ(aut.selected(2), mst::EngineKind::kPrim);
  EXPECT_EQ(aut.selected(aut.config().prim_cutoff - 1), mst::EngineKind::kPrim);
  EXPECT_EQ(aut.selected(aut.config().prim_cutoff),
            mst::EngineKind::kDelaunayKruskal);
  EXPECT_EQ(aut.selected(100000), mst::EngineKind::kDelaunayKruskal);
  const mst::EmstEngine prim({mst::EngineKind::kPrim});
  EXPECT_EQ(prim.selected(100000), mst::EngineKind::kPrim);
}

TEST(EmstEngine, Degree5MatchesSharedPath) {
  geom::Rng rng(77);
  const auto pts = geom::uniform_square(200, 10.0, rng);
  const auto viaEngine = mst::EmstEngine::shared().degree5(pts);
  const auto viaHelper = mst::degree5_emst(pts);
  viaEngine.validate(pts);
  EXPECT_LE(viaEngine.max_degree(), 5);
  EXPECT_NEAR(viaEngine.total_weight(), viaHelper.total_weight(), 1e-12);
  EXPECT_NEAR(viaEngine.lmax(), viaHelper.lmax(), 1e-12);
}

TEST(Kruskal, WideIndexMatchesAReferenceSort) {
  // ~1.2M Delaunay candidates: more than a 20-bit index holds, so the
  // packed keys widen the index field and shorten the dist2 prefix.  The
  // refinement of equal-prefix runs must still yield exactly the edges, in
  // exactly the order, of a plain Kruskal over a comparison sort by
  // (d2, min, max) — with the candidates in triangulation order and
  // shuffled.
  const int n = 400000;
  geom::Rng rng(400);
  const auto pts = geom::uniform_square(n, std::sqrt(n), rng);
  auto candidates = dirant::delaunay::triangulate(pts).edges;
  ASSERT_GT(candidates.size(), size_t{1} << 20);
  mst::KruskalScratch scratch;
  mst::Tree tree;
  for (const bool shuffled : {false, true}) {
    if (shuffled) std::shuffle(candidates.begin(), candidates.end(), rng);
    std::vector<int> order(candidates.size());
    std::iota(order.begin(), order.end(), 0);
    std::vector<double> d2(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      d2[i] = geom::dist2(pts[candidates[i].first], pts[candidates[i].second]);
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      if (d2[a] != d2[b]) return d2[a] < d2[b];
      const auto [a1, a2] = candidates[a];
      const auto [b1, b2] = candidates[b];
      if (std::min(a1, a2) != std::min(b1, b2)) {
        return std::min(a1, a2) < std::min(b1, b2);
      }
      return std::max(a1, a2) < std::max(b1, b2);
    });
    dirant::graph::UnionFind uf(n);
    std::vector<std::pair<int, int>> expected;
    for (const int i : order) {
      if (uf.unite(candidates[i].first, candidates[i].second)) {
        expected.push_back(candidates[i]);
      }
    }
    mst::kruskal_emst(pts, candidates, tree, scratch);
    std::vector<std::pair<int, int>> got;
    for (const auto& e : tree.edges) got.emplace_back(e.u, e.v);
    EXPECT_EQ(got, expected) << (shuffled ? "shuffled" : "triangulation order");
  }
}

TEST(Emst, SinglePointAndPair) {
  const std::vector<geom::Point> one = {{0, 0}};
  const auto t1 = mst::prim_emst(one);
  EXPECT_EQ(t1.n, 1);
  EXPECT_TRUE(t1.edges.empty());
  const std::vector<geom::Point> two = {{0, 0}, {3, 4}};
  const auto t2 = mst::prim_emst(two);
  ASSERT_EQ(t2.edges.size(), 1u);
  EXPECT_DOUBLE_EQ(t2.lmax(), 5.0);
}

TEST(Emst, MaxDegreeNeverExceedsSix) {
  for (int seed = 0; seed < 20; ++seed) {
    geom::Rng rng(seed);
    const auto pts = geom::uniform_square(100, 10.0, rng);
    EXPECT_LE(mst::prim_emst(pts).max_degree(), 6);
  }
}

TEST(Degree5, RepairsTriangularLattice) {
  const auto pts = geom::triangular_lattice(8, 8, 1.0);
  const auto raw = mst::prim_emst(pts);
  const auto fixed = mst::enforce_max_degree(pts, raw, 5);
  fixed.validate(pts);
  EXPECT_LE(fixed.max_degree(), 5);
  EXPECT_LE(fixed.total_weight(), raw.total_weight() + 1e-9);
  EXPECT_LE(fixed.lmax(), raw.lmax() + 1e-9);
}

TEST(Degree5, StarWithManyEquidistantPoints) {
  // Centre + regular hexagon: the centre may reach degree 6.
  const auto pts = geom::star_with_center(6, 1.0);
  const auto fixed = mst::degree5_emst(pts);
  fixed.validate(pts);
  EXPECT_LE(fixed.max_degree(), 5);
}

TEST(Degree5, NoOpOnGenericInputs) {
  for (int seed = 0; seed < 10; ++seed) {
    geom::Rng rng(seed);
    const auto pts = geom::uniform_square(80, 9.0, rng);
    const auto raw = mst::prim_emst(pts);
    const auto fixed = mst::enforce_max_degree(pts, raw, 5);
    EXPECT_NEAR(raw.total_weight(), fixed.total_weight(), 1e-9);
  }
}

/// Run the library repair and the always-build reference on `raw`; both
/// must produce the same tree edge for edge, or both refuse.  Returns true
/// when the raw tree exceeded `max_degree` (the repair path ran).
bool expect_repair_matches_reference(const std::vector<geom::Point>& pts,
                                     const mst::Tree& raw, int max_degree,
                                     const std::string& where) {
  mst::Tree got = raw, want;
  bool got_threw = false, want_threw = false;
  mst::DegreeRepairScratch scratch;
  try {
    mst::enforce_max_degree(pts, got, max_degree, scratch);
  } catch (const dirant::contract_violation&) {
    got_threw = true;
  }
  try {
    want = dirant::test::reference_enforce_max_degree(pts, raw, max_degree);
  } catch (const dirant::contract_violation&) {
    want_threw = true;
  }
  EXPECT_EQ(got_threw, want_threw) << where;
  if (!got_threw && !want_threw) {
    EXPECT_EQ(got.n, want.n) << where;
    EXPECT_EQ(got.edges.size(), want.edges.size()) << where;
    for (size_t i = 0; i < std::min(got.edges.size(), want.edges.size());
         ++i) {
      EXPECT_TRUE(got.edges[i].u == want.edges[i].u &&
                  got.edges[i].v == want.edges[i].v &&
                  got.edges[i].length == want.edges[i].length)
          << where << " edge " << i;
    }
  }
  return raw.max_degree() > max_degree;
}

/// A minimum spanning tree of a tie-heavy instance with the highest degrees
/// the ties allow: BFS from `root` over the pairs at (floating-point)
/// minimum distance.  On a triangular lattice every such pair is a unit
/// edge, so any spanning tree of them is an EMST up to rounding, and the
/// BFS one gives the root and many interior vertices degree 6.
mst::Tree bfs_tie_tree(const std::vector<geom::Point>& pts, int root,
                       double unit) {
  const int n = static_cast<int>(pts.size());
  mst::Tree t;
  t.n = n;
  std::vector<char> seen(n, 0);
  std::vector<int> queue{root};
  seen[root] = 1;
  for (size_t h = 0; h < queue.size(); ++h) {
    const int u = queue[h];
    for (int v = 0; v < n; ++v) {
      if (seen[v] || geom::dist(pts[u], pts[v]) > unit * (1.0 + 1e-9)) {
        continue;
      }
      seen[v] = 1;
      t.edges.push_back({u, v, geom::dist(pts[u], pts[v])});
      queue.push_back(v);
    }
  }
  return t;
}

TEST(Degree5, RepairMatchesAlwaysBuildReference) {
  // Families with degree-6 (or higher) minimum spanning tree vertices:
  // triangular lattices, regular polygons around their centre, and
  // duplicate-heavy clouds (a run of coincident copies is a zero-length
  // star).  Most instances take the repair path (38 of the 52; a lattice
  // BFS from a boundary root may stay within the bound), and every
  // repaired tree must equal the reference's edge for edge.
  int repaired = 0;
  for (int side = 3; side <= 12; ++side) {
    const auto pts = geom::triangular_lattice(side, side + 1, 1.0);
    const int n = static_cast<int>(pts.size());
    for (const int root : {n / 2, n / 3 + 1, side + 1}) {
      repaired += expect_repair_matches_reference(
          pts, bfs_tie_tree(pts, root, 1.0), 5,
          "lattice " + std::to_string(side) + " root " +
              std::to_string(root));
    }
  }
  for (int d = 6; d <= 9; ++d) {
    for (const double phase : {0.0, 0.1, 0.7}) {
      // The centre comes last; the star of spokes (each a unit edge).
      const auto pts = geom::star_with_center(d, 1.0, phase);
      mst::Tree star;
      star.n = static_cast<int>(pts.size());
      const int centre = star.n - 1;
      for (int i = 0; i < centre; ++i) {
        star.edges.push_back({centre, i, geom::dist(pts[centre], pts[i])});
      }
      repaired += expect_repair_matches_reference(
          pts, star, 5,
          "star " + std::to_string(d) + " phase " + std::to_string(phase));
    }
  }
  for (int seed = 0; seed < 12; ++seed) {
    geom::Rng rng(seed);
    auto pts = geom::uniform_square(20, 6.0, rng);
    const size_t uniques = pts.size();
    while (pts.size() < 80) pts.push_back(pts[rng() % uniques]);
    repaired += expect_repair_matches_reference(
        pts, mst::EmstEngine::shared().emst(pts), 5,
        "duplicates seed " + std::to_string(seed));
  }
  EXPECT_GE(repaired, 38) << "too few instances exercised the repair path";
}

TEST(Degree5, EarlyReturnLeavesUniformTreesUntouched) {
  // No vertex of a uniform instance's EMST exceeds degree 5, so the repair
  // returns the tree bit for bit, without building any adjacency.
  for (int seed = 0; seed < 10; ++seed) {
    geom::Rng rng(seed);
    const auto pts = geom::uniform_square(2000, 40.0, rng);
    const auto raw = mst::EmstEngine::shared().emst(pts);
    ASSERT_LE(raw.max_degree(), 5);
    mst::Tree t = raw;
    mst::DegreeRepairScratch scratch;
    mst::enforce_max_degree(pts, t, 5, scratch);
    ASSERT_EQ(t.edges.size(), raw.edges.size());
    for (size_t i = 0; i < raw.edges.size(); ++i) {
      EXPECT_TRUE(t.edges[i].u == raw.edges[i].u &&
                  t.edges[i].v == raw.edges[i].v &&
                  t.edges[i].length == raw.edges[i].length);
    }
    EXPECT_TRUE(scratch.adj.empty()) << "adjacency built on the no-op path";
    expect_repair_matches_reference(pts, raw, 5,
                                    "uniform seed " + std::to_string(seed));
  }
}

TEST(Degree5, TighterBoundsAlsoConverge) {
  // max_degree = 4 is not guaranteed by theory for EMSTs, but the repair
  // must still either converge or throw — never loop forever.
  geom::Rng rng(3);
  const auto pts = geom::uniform_square(60, 8.0, rng);
  const auto raw = mst::prim_emst(pts);
  try {
    const auto fixed = mst::enforce_max_degree(pts, raw, 4);
    EXPECT_LE(fixed.max_degree(), 4);
    fixed.validate(pts);
  } catch (const dirant::contract_violation&) {
    SUCCEED();  // legitimate refusal
  }
}

TEST(RootedTree, ParentChildConsistency) {
  geom::Rng rng(1);
  const auto pts = geom::uniform_square(50, 7.0, rng);
  const auto t = mst::prim_emst(pts);
  Workspace ws;
  Workspace::Frame frame(ws);
  mst::RootedTree rt;
  rt.rebuild(t, -1, ws);
  EXPECT_EQ(rt.parent[rt.root], -1);
  ASSERT_EQ(static_cast<int>(rt.order.size()), t.n);
  EXPECT_EQ(rt.order.front(), rt.root);
  int child_count = 0;
  for (int u = 0; u < t.n; ++u) {
    for (int c : rt.children(u)) {
      EXPECT_EQ(rt.parent[c], u);
      ++child_count;
    }
  }
  EXPECT_EQ(child_count, t.n - 1);
  // Root is the first leaf.
  const auto deg = t.degrees();
  EXPECT_EQ(deg[rt.root], 1);
  for (int v = 0; v < rt.root; ++v) EXPECT_NE(deg[v], 1);
}

TEST(RootedTree, BfsBlocksFollowEdgeOrder) {
  // Over every family: `order` is a BFS numbering whose child blocks are
  // contiguous, `pos_of` inverts it, parents agree with the blocks, and
  // each block lists the vertex's neighbours in edge order minus its parent.
  for (const auto dist : geom::kAllDistributions) {
    geom::Rng rng(7);
    const auto pts = geom::make_instance(dist, 300, rng);
    const auto t = mst::degree5_emst(pts);
    Workspace ws;
    Workspace::Frame frame(ws);
    mst::RootedTree rt;
    rt.rebuild(t, t.n / 2, ws);
    const auto adj = t.adjacency();
    ASSERT_EQ(static_cast<int>(rt.first_child.size()), t.n + 1);
    EXPECT_EQ(rt.order[0], rt.root);
    EXPECT_EQ(rt.first_child[0], 1);
    EXPECT_EQ(rt.first_child[t.n], t.n);
    for (int i = 0; i < t.n; ++i) {
      const int u = rt.order[i];
      EXPECT_EQ(rt.pos_of[u], i) << to_string(dist);
      EXPECT_LE(rt.first_child[i], rt.first_child[i + 1]);
      std::vector<int> expect;
      for (int v : adj[u]) {
        if (v != rt.parent[u]) expect.push_back(v);
      }
      const auto kids = rt.children(u);
      EXPECT_EQ(std::vector<int>(kids.begin(), kids.end()), expect)
          << to_string(dist) << " vertex " << u;
      for (int c = rt.first_child[i]; c < rt.first_child[i + 1]; ++c) {
        EXPECT_GT(c, i);  // children sit after their parent
        EXPECT_EQ(rt.parent[rt.order[c]], u);
      }
    }
  }
}

TEST(RootedTree, ChildrenCcwOrderFromReference) {
  // Node at origin with children at known angles; reference pointing at 0.
  const std::vector<geom::Point> pts = {
      {0, 0}, {1, 1}, {-1, 1}, {-1, -1}, {1, -1}, {10, 0}};
  mst::Tree t;
  t.n = 6;
  for (int v : {3, 1, 4, 2}) {
    t.edges.push_back({0, v, geom::dist(pts[0], pts[v])});
  }
  t.edges.push_back({0, 5, 10.0});
  Workspace ws;
  Workspace::Frame frame(ws);
  mst::RootedTree rt;
  rt.rebuild(t, 5, ws);
  // Children of 0 ordered ccw starting from the ray towards vertex 5 (+x).
  const auto children = rt.children(0);
  ASSERT_EQ(children.size(), 4u);
  int kids[4];
  double angle[4], off[4];
  mst::sort_ccw(pts, 0, 0.0, children, kids, angle, off);
  EXPECT_EQ(kids[0], 1);  // 45 deg
  EXPECT_EQ(kids[1], 2);  // 135 deg
  EXPECT_EQ(kids[2], 3);  // 225 deg
  EXPECT_EQ(kids[3], 4);  // 315 deg
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(angle[i], (2 * i + 1) * kPi / 4.0);
    EXPECT_EQ(off[i], angle[i]);
  }
}

TEST(RootedTree, CcwSortIsStableAndPutsTheReferenceRayLast) {
  // Two children on one ray keep their input order; a child exactly on the
  // reference ray sorts last with offset 2*pi.
  const std::vector<geom::Point> pts = {{0, 0}, {2, 0}, {0, 1}, {0, 2}};
  const int in[3] = {1, 3, 2};
  int kids[3];
  double angle[3], off[3];
  mst::sort_ccw(pts, 0, 0.0, in, kids, angle, off);
  EXPECT_EQ(kids[0], 3);
  EXPECT_EQ(kids[1], 2);
  EXPECT_EQ(kids[2], 1);
  EXPECT_EQ(off[2], dirant::kTwoPi);
  EXPECT_EQ(angle[2], 0.0);
}

// --- Fact 1 / Fact 2 (Figure 2) -------------------------------------------

class FactsSweep : public ::testing::TestWithParam<geom::Distribution> {};

TEST_P(FactsSweep, MstAngleFactsHold) {
  const auto dist = GetParam();
  for (int seed = 0; seed < 5; ++seed) {
    geom::Rng rng(100 + seed);
    const auto pts = geom::make_instance(dist, 150, rng);
    const auto t = mst::degree5_emst(pts);
    const auto st = mst::fact_stats(pts, t, /*check_triangles=*/seed == 0);
    // Fact 1.1: adjacent MST neighbours subtend >= pi/3 (tolerance for
    // exact lattice ties).
    if (st.min_consecutive > 0.0) {
      EXPECT_GE(st.min_consecutive, kPi / 3.0 - 1e-9) << to_string(dist);
    }
    // Fact 2.2: one-apart angles at degree-5 vertices within [2pi/3, pi].
    if (st.degree5_vertices > 0) {
      EXPECT_GE(st.min_one_apart, 2.0 * kPi / 3.0 - 1e-9);
      // One-apart angles can exceed pi only if some *other* pair dips below
      // 2pi/3, so the max complements to:
      EXPECT_LE(st.min_one_apart, kPi + 1e-9);
    }
    EXPECT_EQ(st.chord_violations, 0);
    if (seed == 0) {
      EXPECT_EQ(st.nonempty_triangles, 0) << to_string(dist);
      EXPECT_GT(st.checked_triangles, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, FactsSweep,
                         ::testing::ValuesIn(geom::kAllDistributions),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(Facts, Degree5VerticesExist) {
  // Engineered degree-5 vertex: centre + regular pentagon, far satellites.
  auto pts = geom::star_with_center(5, 1.0);
  const auto t = mst::degree5_emst(pts);
  const auto st = mst::fact_stats(pts, t, true);
  EXPECT_EQ(st.degree5_vertices, 1);
  EXPECT_NEAR(st.min_one_apart, 4.0 * kPi / 5.0, 1e-9);
  EXPECT_NEAR(st.max_one_apart, 4.0 * kPi / 5.0, 1e-9);
}

}  // namespace
