#pragma once
// Bit-identity oracle for the Theorem 3 sweep behind
// core::orient_two_antennae: the warm frontier orienter re-planning every
// vertex of the tree the sweep recorded.  The sweep's memory is recorded,
// every row of a second plan starts empty, and orient_two_antennae_warm
// runs with no edge delta and every vertex moved — so its depth-first
// Phase D re-plans the whole tree, deriving each vertex's child order and
// every hand-down target itself.  Both share the per-vertex planner, so
// any difference comes from the sweep's BFS order, gathered arrays or
// target hand-down.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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
  core::Result sweep;
  core::OrienterScratch sweep_scratch;
  core::orient_two_antennae(pts, tree, phi, sweep_scratch, sweep);

  std::vector<int> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  core::TwoAntennaeMemory mem;
  core::record_two_antennae_memory(phi, sweep_scratch, sweep, ids, n, mem);
  ASSERT_TRUE(mem.valid) << what;

  std::vector<int> deg;
  tree.degrees_into(deg);
  const std::vector<std::uint8_t> degree(deg.begin(), deg.end());
  const std::vector<char> alive(n, 1);
  const core::OrientWarmDelta every_vertex_moved{
      pts, alive, n, {}, {}, ids, degree, tree.lmax()};
  core::Result warm;
  warm.orientation.reset(n, 2);  // every row empty
  core::OrienterScratch warm_scratch;
  ASSERT_TRUE(core::orient_two_antennae_warm(phi, warm_scratch, mem,
                                             every_vertex_moved, warm))
      << what;
  ASSERT_EQ(static_cast<int>(mem.planned.size()), n) << what;

  ASSERT_EQ(sweep.orientation.size(), n) << what;
  ASSERT_EQ(warm.orientation.size(), n) << what;
  for (int u = 0; u < n; ++u) {
    ASSERT_TRUE(sweep.orientation.node_equals(u, warm.orientation, u))
        << what << ": vertex " << u;
  }
  using Counts = std::vector<std::pair<std::string, int>>;
  EXPECT_EQ(Counts(sweep.cases.counts.begin(), sweep.cases.counts.end()),
            Counts(warm.cases.counts.begin(), warm.cases.counts.end()))
      << what;
  EXPECT_EQ(sweep.cases.fallback_plans, warm.cases.fallback_plans) << what;
  EXPECT_EQ(sweep.measured_radius, warm.orientation.max_radius()) << what;
  EXPECT_EQ(sweep.lmax, warm.lmax) << what;
  EXPECT_EQ(sweep.bound_factor, warm.bound_factor) << what;
  EXPECT_EQ(sweep.algorithm, warm.algorithm) << what;
}

/// Run the oracle on `tree` and on a copy with its edge list reversed: the
/// copy roots at the same leaf but numbers the BFS blocks differently, so a
/// vertex's parent seldom sits right before it in either numbering.
inline void expect_matches_warm_oracle(std::span<const geom::Point> pts,
                                       const mst::Tree& tree, double phi,
                                       const std::string& what) {
  expect_same_plans(pts, tree, phi, what);
  mst::Tree reversed = tree;
  std::reverse(reversed.edges.begin(), reversed.edges.end());
  expect_same_plans(pts, reversed, phi, what + " (edges reversed)");
}

}  // namespace dirant::testing
