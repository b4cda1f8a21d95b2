// mst::EulerTourForest against a from-scratch oracle: after every link or
// cut of a randomized sequence, its connectivity and tree sizes must equal
// BFS component labels over the same edge set — including after an O(n)
// `build` from an adjacency, and across forests of every shape the
// sequences reach (paths, stars, isolated vertices, one spanning tree).

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "mst/euler_tour.hpp"

namespace mst = dirant::mst;

namespace {

// The oracle's forest: edge handle -> endpoints, plus BFS labels.
struct Oracle {
  int n;
  std::vector<std::pair<int, int>> edges;  ///< live (u, v)
  std::vector<int> handles;                ///< the forest's handle per edge

  std::vector<int> labels(std::vector<int>& sizes) const {
    std::vector<std::vector<int>> adj(n);
    for (const auto& [u, v] : edges) {
      adj[u].push_back(v);
      adj[v].push_back(u);
    }
    std::vector<int> label(n, -1);
    sizes.clear();
    for (int s = 0; s < n; ++s) {
      if (label[s] >= 0) continue;
      const int c = static_cast<int>(sizes.size());
      std::vector<int> queue{s};
      label[s] = c;
      for (size_t i = 0; i < queue.size(); ++i) {
        for (int y : adj[queue[i]]) {
          if (label[y] >= 0) continue;
          label[y] = c;
          queue.push_back(y);
        }
      }
      sizes.push_back(static_cast<int>(queue.size()));
    }
    return label;
  }
};

void expect_matches(const mst::EulerTourForest& f, const Oracle& o,
                    int step) {
  std::vector<int> sizes;
  const auto label = o.labels(sizes);
  // Same partition: tree ids agree exactly where labels agree.
  std::vector<int> id_of_label(sizes.size(), -1);
  for (int u = 0; u < o.n; ++u) {
    ASSERT_EQ(f.tree_size(u), sizes[label[u]]) << "step " << step << " u " << u;
    int& id = id_of_label[label[u]];
    if (id < 0) id = f.tree_id(u);
    ASSERT_EQ(f.tree_id(u), id) << "step " << step << " u " << u;
  }
  std::vector<int> ids = id_of_label;
  std::sort(ids.begin(), ids.end());
  ASSERT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end())
      << "step " << step << ": two components share a tree id";
}

// Random link/cut walk: links join two random vertices in different trees,
// cuts drop a random live edge; `link_bias` steers the forest between
// sparse and spanning.
void random_walk(int n, int ops, double link_bias, std::uint32_t seed) {
  std::mt19937 rng(seed);
  mst::EulerTourForest f;
  f.reset(n);
  Oracle o{n, {}, {}};
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<int> pick(0, n - 1);
  for (int step = 0; step < ops; ++step) {
    const bool try_link =
        o.edges.empty() || (static_cast<int>(o.edges.size()) < n - 1 &&
                            coin(rng) < link_bias);
    if (try_link) {
      int u = pick(rng), v = pick(rng);
      if (u == v || f.connected(u, v)) continue;
      o.handles.push_back(f.link(u, v));
      o.edges.emplace_back(u, v);
    } else {
      std::uniform_int_distribution<int> which(
          0, static_cast<int>(o.edges.size()) - 1);
      const int k = which(rng);
      f.cut(o.handles[k]);
      o.edges[k] = o.edges.back();
      o.edges.pop_back();
      o.handles[k] = o.handles.back();
      o.handles.pop_back();
    }
    expect_matches(f, o, step);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace

TEST(EulerTourForest, SingletonsAfterReset) {
  mst::EulerTourForest f;
  f.reset(5);
  for (int u = 0; u < 5; ++u) {
    EXPECT_EQ(f.tree_size(u), 1);
    for (int v = 0; v < 5; ++v) EXPECT_EQ(f.connected(u, v), u == v);
  }
}

TEST(EulerTourForest, PathLinkAndCutInTheMiddle) {
  mst::EulerTourForest f;
  f.reset(6);
  std::vector<int> e;
  for (int u = 0; u + 1 < 6; ++u) e.push_back(f.link(u, u + 1));
  EXPECT_EQ(f.tree_size(3), 6);
  f.cut(e[2]);  // 0-1-2 | 3-4-5
  EXPECT_EQ(f.tree_size(0), 3);
  EXPECT_EQ(f.tree_size(5), 3);
  EXPECT_FALSE(f.connected(2, 3));
  EXPECT_TRUE(f.connected(0, 2));
  f.link(5, 0);  // 3-4-5-0-1-2
  EXPECT_EQ(f.tree_size(3), 6);
  EXPECT_TRUE(f.connected(2, 3));
}

TEST(EulerTourForest, LinkInsideOneTreeIsAContractViolation) {
  mst::EulerTourForest f;
  f.reset(3);
  f.link(0, 1);
  f.link(1, 2);
  EXPECT_THROW(f.link(0, 2), dirant::contract_violation);
}

TEST(EulerTourForest, RandomLinkCutMatchesBfsLabels) {
  // Sparse (many small trees), balanced, and near-spanning regimes.
  random_walk(40, 2000, 0.3, 1);
  random_walk(40, 2000, 0.6, 2);
  random_walk(64, 3000, 0.9, 3);
  random_walk(300, 1500, 0.7, 4);
}

TEST(EulerTourForest, BuildFromAdjacencyThenChurn) {
  // A random spanning forest built in one pass, then random churn on it:
  // the handles `build` reports must be the ones `cut` accepts.
  std::mt19937 rng(7);
  for (int round = 0; round < 6; ++round) {
    const int n = 50 + 40 * round;
    std::vector<std::vector<int>> adj(n);
    Oracle o{n, {}, {}};
    for (int v = 1; v < n; ++v) {
      if (rng() % 7 == 0) continue;  // leave some vertices isolated / roots
      const int u = static_cast<int>(rng() % v);
      adj[u].push_back(v);
      adj[v].push_back(u);
    }
    mst::EulerTourForest f;
    f.build(
        n, [&](int u) { return std::span<const int>(adj[u]); },
        [&](int u, int v, int e) {
          o.edges.emplace_back(u, v);
          o.handles.push_back(e);
        });
    expect_matches(f, o, -1);
    for (int step = 0; step < 200 && !o.edges.empty(); ++step) {
      const int k = static_cast<int>(rng() % o.edges.size());
      f.cut(o.handles[k]);
      const auto [a, b] = o.edges[k];
      o.edges[k] = o.edges.back();
      o.edges.pop_back();
      o.handles[k] = o.handles.back();
      o.handles.pop_back();
      // Half the time, hang a's side somewhere outside it (b's side at
      // worst).
      if (rng() % 2 == 0) {
        int v = static_cast<int>(rng() % n);
        if (f.connected(a, v)) v = b;
        o.handles.push_back(f.link(a, v));
        o.edges.emplace_back(a, v);
      }
      expect_matches(f, o, step);
      if (HasFatalFailure()) return;
    }
  }
}
