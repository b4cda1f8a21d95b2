// The Theorem 3 sweep is bit-identical to the warm frontier orienter
// re-planning every vertex of the tree the sweep recorded: every vertex's
// sectors, the case counts, the measured radius and lmax agree on every
// instance family, at both parts of the theorem, over many seeds (the
// handcrafted rare-case fixtures run the same oracle in
// test_two_antennae_cases.cpp).

#include <gtest/gtest.h>

#include <string>

#include "common/constants.hpp"
#include "geometry/generators.hpp"
#include "mst/degree5.hpp"
#include "orient_oracle.hpp"

namespace geom = dirant::geom;
namespace mst = dirant::mst;
using dirant::kPi;
using dirant::testing::expect_matches_warm_oracle;

namespace {

TEST(OrientParity, SweepMatchesWarmReplanOnEveryFamily) {
  for (const auto dist : geom::kAllDistributions) {
    for (int seed = 0; seed < 8; ++seed) {
      geom::Rng rng(4000 + seed);
      const auto pts = geom::make_instance(dist, 120 + 37 * seed, rng);
      const auto tree = mst::degree5_emst(pts);
      for (const double phi : {kPi, 5.0 * kPi / 6.0, 2.0 * kPi / 3.0}) {
        expect_matches_warm_oracle(pts, tree, phi,
                                  geom::to_string(dist) + " seed " +
                                      std::to_string(seed) + " phi " +
                                      std::to_string(phi));
      }
    }
  }
}

TEST(OrientParity, DegreeFiveStarMatchesWarmReplan) {
  for (const double phase : {0.0, 0.3, 1.1}) {
    const auto pts = geom::star_with_center(5, 1.0, phase);
    const auto tree = mst::degree5_emst(pts);
    ASSERT_EQ(tree.max_degree(), 5);
    for (const double phi : {kPi, 5.0 * kPi / 6.0, 2.0 * kPi / 3.0}) {
      expect_matches_warm_oracle(pts, tree, phi,
                                "star phase " + std::to_string(phase));
    }
  }
}

TEST(OrientParity, TinyTreesMatchWarmReplan) {
  const std::vector<geom::Point> two = {{0.0, 0.0}, {1.0, 0.5}};
  expect_matches_warm_oracle(two, mst::degree5_emst(two), kPi, "n=2");
  const std::vector<geom::Point> path = {{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.1}};
  expect_matches_warm_oracle(path, mst::degree5_emst(path), kPi, "n=3");
}

}  // namespace
