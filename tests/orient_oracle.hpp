#pragma once
// Bit-identity oracle for the Theorem 3 orienter: the BFS sweep behind
// core::orient_two_antennae against the DFS traversal of
// core::orient_two_antennae_incremental run on empty memory (every vertex
// re-plans).  Both share the per-vertex planner, so any difference comes
// from the sweep's order, gathered arrays or target hand-down.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "antenna/orientation.hpp"
#include "core/session.hpp"
#include "core/two_antennae.hpp"
#include "geometry/point.hpp"
#include "mst/tree.hpp"

namespace dirant::testing {

inline void expect_same_plans(std::span<const geom::Point> pts,
                              const mst::Tree& tree, double phi,
                              const std::string& what) {
  const int n = static_cast<int>(pts.size());
  core::Result bfs;
  core::OrienterScratch bfs_scratch;
  core::orient_two_antennae(pts, tree, phi, bfs_scratch, bfs);

  std::vector<int> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  const std::vector<char> unchanged(n, 0);
  const antenna::Orientation no_prev(n);
  core::TwoAntennaeMemory mem;  // invalid: the DFS re-plans every vertex
  core::Result dfs;
  core::OrienterScratch dfs_scratch;
  core::orient_two_antennae_incremental(pts, tree, phi, dfs_scratch, mem, ids,
                                        ids, unchanged, no_prev, dfs);

  ASSERT_EQ(bfs.orientation.size(), n) << what;
  ASSERT_EQ(dfs.orientation.size(), n) << what;
  for (int u = 0; u < n; ++u) {
    ASSERT_TRUE(bfs.orientation.node_equals(u, dfs.orientation, u))
        << what << ": vertex " << u;
  }
  using Counts = std::vector<std::pair<std::string, int>>;
  EXPECT_EQ(Counts(bfs.cases.counts.begin(), bfs.cases.counts.end()),
            Counts(dfs.cases.counts.begin(), dfs.cases.counts.end()))
      << what;
  EXPECT_EQ(bfs.cases.fallback_plans, dfs.cases.fallback_plans) << what;
  EXPECT_EQ(bfs.measured_radius, dfs.measured_radius) << what;
  EXPECT_EQ(bfs.lmax, dfs.lmax) << what;
  EXPECT_EQ(bfs.bound_factor, dfs.bound_factor) << what;
  EXPECT_EQ(bfs.algorithm, dfs.algorithm) << what;
}

/// Run the oracle on `tree` and on a copy with its edge list reversed: the
/// copy roots at the same leaf but numbers the BFS blocks differently, so a
/// vertex's parent seldom sits right before it in either numbering.
inline void expect_matches_dfs_oracle(std::span<const geom::Point> pts,
                                      const mst::Tree& tree, double phi,
                                      const std::string& what) {
  expect_same_plans(pts, tree, phi, what);
  mst::Tree reversed = tree;
  std::reverse(reversed.edges.begin(), reversed.edges.end());
  expect_same_plans(pts, reversed, phi, what + " (edges reversed)");
}

}  // namespace dirant::testing
