// Graph substrate: CSR storage, SCC, traversal, biconnectivity,
// Hamiltonicity engines.

#include <gtest/gtest.h>

#include "graph/digraph.hpp"
#include "graph/hamiltonian.hpp"
#include "graph/scc.hpp"
#include "graph/traversal.hpp"
#include "graph/union_find.hpp"

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

namespace graph = dirant::graph;

namespace {

graph::Digraph cycle_digraph(int n) {
  graph::DigraphBuilder b(n);
  for (int i = 0; i < n; ++i) b.add_edge(i, (i + 1) % n);
  return b.build();
}

TEST(Scc, SingleVertexAndEmpty) {
  EXPECT_TRUE(graph::is_strongly_connected(graph::Digraph(0)));
  EXPECT_TRUE(graph::is_strongly_connected(graph::Digraph(1)));
  const auto r = graph::strongly_connected_components(graph::Digraph(3));
  EXPECT_EQ(r.count, 3);
}

TEST(Scc, DirectedCycleIsStrong) {
  const auto g = cycle_digraph(5);
  EXPECT_TRUE(graph::is_strongly_connected(g));
  EXPECT_EQ(graph::strongly_connected_components(g).count, 1);
}

TEST(Scc, PathIsNotStrong) {
  graph::DigraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  const auto g = b.build();
  EXPECT_FALSE(graph::is_strongly_connected(g));
  EXPECT_EQ(graph::strongly_connected_components(g).count, 4);
}

TEST(Scc, TwoComponents) {
  graph::DigraphBuilder b(6);
  // Cycle {0,1,2} and cycle {3,4,5} with a one-way bridge.
  for (int i = 0; i < 3; ++i) b.add_edge(i, (i + 1) % 3);
  for (int i = 3; i < 6; ++i) b.add_edge(i, 3 + (i - 2) % 3);
  b.add_edge(0, 3);
  const auto r = graph::strongly_connected_components(b.build());
  EXPECT_EQ(r.count, 2);
  EXPECT_EQ(r.component[0], r.component[1]);
  EXPECT_EQ(r.component[3], r.component[5]);
  EXPECT_NE(r.component[0], r.component[3]);
}

TEST(Scc, CondensationOrderIsReverseTopological) {
  graph::DigraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 1);
  b.add_edge(2, 3);
  const auto r = graph::strongly_connected_components(b.build());
  EXPECT_EQ(r.count, 3);
  // Tarjan emits sinks first.
  EXPECT_LT(r.component[3], r.component[1]);
  EXPECT_LT(r.component[1], r.component[0]);
}

TEST(Scc, ScratchReuseAcrossSizes) {
  // One scratch across graphs of different sizes must give the same answers
  // as fresh decompositions (stale buffer contents must not leak through).
  graph::SccScratch scratch;
  graph::SccResult res;
  graph::strongly_connected_components(cycle_digraph(12), scratch, res);
  EXPECT_EQ(res.count, 1);
  graph::DigraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const auto g2 = b.build();
  graph::strongly_connected_components(g2, scratch, res);
  EXPECT_EQ(res.count, 5);
  EXPECT_EQ(res.component.size(), 5u);
  graph::strongly_connected_components(graph::Digraph(0), scratch, res);
  EXPECT_EQ(res.count, 0);
}

/// Brute-force SCC oracle: BFS from every vertex gives the reachability
/// matrix, and two vertices share a component iff each reaches the other.
/// Checks Tarjan's count and labels against it — same partition, ids in
/// [0, count), and reverse topological ids (a vertex reaching another
/// component carries a larger id) — plus the count-only pass.  One scratch
/// streams through every call, so stale state would leak between inputs.
void expect_matches_reachability(const graph::Digraph& g, const char* label) {
  static graph::SccScratch scratch;
  const int n = g.size();
  std::vector<std::vector<char>> reach(n, std::vector<char>(n, 0));
  for (int s = 0; s < n; ++s) {
    std::vector<int> stack = {s};
    reach[s][s] = 1;
    while (!stack.empty()) {
      const int u = stack.back();
      stack.pop_back();
      for (int v : g.out(u)) {
        if (!reach[s][v]) {
          reach[s][v] = 1;
          stack.push_back(v);
        }
      }
    }
  }
  int classes = 0;
  for (int u = 0; u < n; ++u) {
    bool first = true;  // u is the smallest vertex of its class
    for (int v = 0; v < u && first; ++v) first = !(reach[u][v] && reach[v][u]);
    classes += first;
  }
  graph::SccResult res;
  graph::strongly_connected_components(g, scratch, res);
  ASSERT_EQ(res.count, classes) << label;
  ASSERT_EQ(static_cast<int>(res.component.size()), n) << label;
  EXPECT_EQ(graph::scc_count(g, scratch), classes) << label;
  for (int u = 0; u < n; ++u) {
    ASSERT_GE(res.component[u], 0) << label;
    ASSERT_LT(res.component[u], res.count) << label;
    for (int v = 0; v < n; ++v) {
      const bool same = reach[u][v] && reach[v][u];
      ASSERT_EQ(res.component[u] == res.component[v], same)
          << label << " u=" << u << " v=" << v;
      if (reach[u][v] && !same) {
        ASSERT_GT(res.component[u], res.component[v])
            << label << " u=" << u << " v=" << v;
      }
    }
  }
}

graph::Digraph random_digraph(int n, double edge_prob, unsigned seed,
                              bool self_loops = false) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  graph::DigraphBuilder b(n);
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      if (u == v && !self_loops) continue;
      if (coin(rng) < edge_prob) b.add_edge(u, v);
    }
  }
  return b.build();
}

TEST(Scc, RandomDigraphsMatchReachability) {
  // Density sweep: sub-critical (many small SCCs), near-critical, and
  // dense (one giant SCC).
  for (const auto& [n, prob] : {std::pair{120, 0.005}, std::pair{120, 0.02},
                                std::pair{90, 0.10}}) {
    expect_matches_reachability(
        random_digraph(n, prob, 7000 + n + static_cast<int>(prob * 1000)),
        "random");
  }
}

TEST(Scc, ClusteredDigraphMatchesReachability) {
  // Four dense clusters joined by one-way bridges: medium SCCs with a
  // non-trivial condensation.
  const int k = 4, per = 30, n = k * per;
  std::mt19937 rng(4100);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  graph::DigraphBuilder b(n);
  for (int c = 0; c < k; ++c) {
    for (int i = 0; i < per; ++i) {
      for (int j = 0; j < per; ++j) {
        if (i != j && coin(rng) < 0.25) b.add_edge(c * per + i, c * per + j);
      }
    }
  }
  for (int c = 0; c + 1 < k; ++c) {
    for (int e = 0; e < 3; ++e) b.add_edge(c * per + e, (c + 1) * per + e);
  }
  expect_matches_reachability(b.build(), "clustered");
}

TEST(Scc, LongCycleAndChordsMatchReachability) {
  // One 400-cycle (a single SCC, DFS depth n), then with chords that keep
  // it one SCC.
  const int n = 400;
  expect_matches_reachability(cycle_digraph(n), "cycle");
  graph::DigraphBuilder chord(n);
  for (int i = 0; i < n; ++i) {
    chord.add_edge(i, (i + 1) % n);
    if (i % 7 == 0) chord.add_edge(i, (i + n / 3) % n);
  }
  expect_matches_reachability(chord.build(), "cycle+chords");
}

TEST(Scc, DagChainMatchesReachability) {
  // Chain plus forward jumps: every SCC is a singleton.
  const int n = 300;
  graph::DigraphBuilder b(n);
  for (int i = 0; i + 1 < n; ++i) b.add_edge(i, i + 1);
  for (int i = 0; i + 10 < n; i += 3) b.add_edge(i, i + 10);
  const auto g = b.build();
  expect_matches_reachability(g, "dag-chain");
  EXPECT_EQ(graph::strongly_connected_components(g).count, n);
}

TEST(Scc, DisconnectedAndIsolatedMatchReachability) {
  // Three disjoint cycles of different sizes plus 38 isolated vertices.
  const int n = 100;
  graph::DigraphBuilder b(n);
  int base = 0;
  for (const int len : {5, 17, 40}) {
    for (int i = 0; i < len; ++i) b.add_edge(base + i, base + (i + 1) % len);
    base += len;
  }
  const auto g = b.build();
  expect_matches_reachability(g, "disconnected");
  EXPECT_EQ(graph::strongly_connected_components(g).count, 3 + (n - base));
}

TEST(Scc, SelfLoopsMatchReachability) {
  // Self-loops never merge components; mix them into a sparse random graph.
  expect_matches_reachability(random_digraph(80, 0.01, 991,
                                             /*self_loops=*/true),
                              "self-loops");
}

TEST(Scc, DegenerateSizesMatchReachability) {
  expect_matches_reachability(graph::Digraph(0), "empty");
  expect_matches_reachability(graph::Digraph(1), "single");
  graph::DigraphBuilder two(2);
  two.add_edge(0, 1);
  two.add_edge(1, 0);
  expect_matches_reachability(two.build(), "two-cycle");
}

TEST(Traversal, BfsDistances) {
  graph::DigraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 3);
  const auto g = b.build();
  const auto d = graph::bfs_distances(g, 0);
  EXPECT_EQ(d[0], 0);
  EXPECT_EQ(d[1], 1);
  EXPECT_EQ(d[2], 2);
  EXPECT_EQ(d[3], 1);
  EXPECT_EQ(d[4], -1);
  // Scratch overload agrees with the allocating wrapper.
  std::vector<int> dist;
  graph::BfsScratch scratch;
  graph::bfs_distances(g, 0, dist, scratch);
  EXPECT_EQ(dist, d);
  graph::bfs_distances(g, 3, dist, scratch);  // reuse for another source
  EXPECT_EQ(dist[3], 0);
  EXPECT_EQ(dist[0], -1);
}

TEST(Traversal, Biconnectivity) {
  // Triangle: biconnected.
  graph::GraphBuilder tri(3);
  tri.add_edge(0, 1);
  tri.add_edge(1, 2);
  tri.add_edge(2, 0);
  EXPECT_TRUE(graph::is_biconnected(tri.build()));
  // Path: not.
  graph::GraphBuilder path(3);
  path.add_edge(0, 1);
  path.add_edge(1, 2);
  EXPECT_FALSE(graph::is_biconnected(path.build()));
  // Two triangles sharing a vertex: articulation.
  graph::GraphBuilder bowtie(5);
  bowtie.add_edge(0, 1);
  bowtie.add_edge(1, 2);
  bowtie.add_edge(2, 0);
  bowtie.add_edge(2, 3);
  bowtie.add_edge(3, 4);
  bowtie.add_edge(4, 2);
  EXPECT_FALSE(graph::is_biconnected(bowtie.build()));
}

TEST(UnionFind, Basics) {
  graph::UnionFind uf(5);
  EXPECT_EQ(uf.components(), 5);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_TRUE(uf.same(0, 1));
  EXPECT_FALSE(uf.same(0, 2));
  uf.unite(2, 3);
  uf.unite(0, 3);
  EXPECT_EQ(uf.components(), 2);
}

TEST(Hamiltonian, CycleGraphHasCycle) {
  graph::GraphBuilder b(6);
  for (int i = 0; i < 6; ++i) b.add_edge(i, (i + 1) % 6);
  const auto g = b.build();
  const auto exact = graph::hamiltonian_cycle_exact(g);
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(exact->size(), 6u);
  const auto bt = graph::hamiltonian_cycle_backtracking(g, 100000);
  ASSERT_TRUE(bt.has_value());
  EXPECT_EQ(bt->size(), 6u);
}

TEST(Hamiltonian, StarHasNone) {
  graph::GraphBuilder b(5);
  for (int i = 1; i < 5; ++i) b.add_edge(0, i);
  const auto g = b.build();
  EXPECT_FALSE(graph::hamiltonian_cycle_exact(g).has_value());
  EXPECT_FALSE(graph::hamiltonian_cycle_backtracking(g, 100000).has_value());
}

TEST(Hamiltonian, PetersenGraphHasNoCycle) {
  // The canonical hypohamiltonian graph.
  graph::GraphBuilder b(10);
  for (int i = 0; i < 5; ++i) {
    b.add_edge(i, (i + 1) % 5);          // outer pentagon
    b.add_edge(5 + i, 5 + (i + 2) % 5);  // inner pentagram
    b.add_edge(i, 5 + i);                // spokes
  }
  EXPECT_FALSE(graph::hamiltonian_cycle_exact(b.build()).has_value());
}

TEST(Hamiltonian, ExactAndBacktrackingAgreeOnRandomGraphs) {
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 5 + static_cast<int>(rng() % 7);
    graph::GraphBuilder b(n);
    std::vector<std::pair<int, int>> possible;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) possible.emplace_back(i, j);
    }
    for (const auto& [i, j] : possible) {
      if (rng() % 100 < 45) b.add_edge(i, j);
    }
    const auto g = b.build();
    const bool exact = graph::hamiltonian_cycle_exact(g).has_value();
    const auto bt = graph::hamiltonian_cycle_backtracking(g, 5'000'000);
    if (exact) {
      ASSERT_TRUE(bt.has_value()) << "backtracking missed a cycle, n=" << n;
      // Verify it is a genuine Hamiltonian cycle.
      std::vector<char> seen(n, 0);
      for (size_t idx = 0; idx < bt->size(); ++idx) {
        const int u = (*bt)[idx];
        const int v = (*bt)[(idx + 1) % bt->size()];
        EXPECT_FALSE(seen[u]);
        seen[u] = 1;
        bool adjacent = false;
        for (int w : g.neighbors(u)) adjacent |= (w == v);
        EXPECT_TRUE(adjacent);
      }
    } else {
      EXPECT_FALSE(bt.has_value());
    }
  }
}

TEST(Digraph, ReversedAndDegrees) {
  graph::DigraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(1, 2);
  const auto g = b.build();
  EXPECT_EQ(g.max_out_degree(), 2);
  const auto r = g.reversed();
  EXPECT_EQ(r.out(2).size(), 2u);
  EXPECT_EQ(r.out(0).size(), 0u);
  EXPECT_EQ(r.edge_count(), 3);
  // Double transpose restores the edge set row by row.
  const auto rr = r.reversed();
  for (int u = 0; u < 3; ++u) {
    std::vector<int> a(g.out(u).begin(), g.out(u).end());
    std::vector<int> c(rr.out(u).begin(), rr.out(u).end());
    std::sort(a.begin(), a.end());
    std::sort(c.begin(), c.end());
    EXPECT_EQ(a, c) << "row " << u;
  }
}

TEST(Digraph, BuilderPreservesOrderAndMultiplicity) {
  // The counting sort is stable: each row keeps insertion order, and
  // parallel edges are kept (the certifier counts real sector coverage).
  graph::DigraphBuilder b(4);
  b.add_edge(2, 3);
  b.add_edge(0, 2);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const auto g = b.build();
  ASSERT_EQ(g.edge_count(), 4);
  ASSERT_EQ(g.out_degree(0), 2);
  EXPECT_EQ(g.out(0)[0], 2);
  EXPECT_EQ(g.out(0)[1], 1);
  ASSERT_EQ(g.out_degree(2), 2);
  EXPECT_EQ(g.out(2)[0], 3);
  EXPECT_EQ(g.out(2)[1], 3);
  EXPECT_EQ(g.out_degree(1), 0);
  EXPECT_EQ(g.out_degree(3), 0);
}

TEST(Digraph, AdoptAndReleaseRoundTrip) {
  // The streaming producers hand CSR buffers in and take them back out.
  std::vector<int> offsets = {0, 2, 3, 4};
  std::vector<int> targets = {1, 2, 2, 0};
  graph::Digraph g(std::move(offsets), std::move(targets));
  EXPECT_EQ(g.size(), 3);
  EXPECT_EQ(g.edge_count(), 4);
  EXPECT_EQ(g.out(0).size(), 2u);
  EXPECT_TRUE(graph::is_strongly_connected(g));
  std::move(g).release(offsets, targets);
  EXPECT_EQ(offsets.size(), 4u);
  EXPECT_EQ(targets.size(), 4u);
  EXPECT_EQ(targets[3], 0);
}

TEST(Graph, CsrDegreesAndNeighbors) {
  graph::GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(1, 3);
  const auto g = b.build();
  EXPECT_EQ(g.edge_count(), 3);
  EXPECT_EQ(g.degree(1), 3);
  EXPECT_EQ(g.max_degree(), 3);
  std::vector<int> nb(g.neighbors(1).begin(), g.neighbors(1).end());
  std::sort(nb.begin(), nb.end());
  EXPECT_EQ(nb, (std::vector<int>{0, 2, 3}));
}

}  // namespace
