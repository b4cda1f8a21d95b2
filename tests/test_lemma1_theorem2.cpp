// Lemma 1 (sufficiency + necessity on the regular d-gon) and Theorem 2
// (phi_k >= 2pi(5-k)/5 => range 1), plus the k=5 folklore row.

#include <gtest/gtest.h>

#include <cmath>

#include "common/constants.hpp"
#include "core/lemma1.hpp"
#include "core/theorem2.hpp"
#include "core/validate.hpp"
#include "geometry/generators.hpp"
#include "mst/degree5.hpp"
#include "mst/emst.hpp"

namespace geom = dirant::geom;
namespace core = dirant::core;
using dirant::kPi;
using dirant::kTwoPi;

namespace {

TEST(Lemma1, SufficientSpreadFormula) {
  EXPECT_DOUBLE_EQ(core::lemma1_sufficient_spread(5, 1), 8 * kPi / 5);
  EXPECT_DOUBLE_EQ(core::lemma1_sufficient_spread(5, 2), 6 * kPi / 5);
  EXPECT_DOUBLE_EQ(core::lemma1_sufficient_spread(5, 5), 0.0);
  EXPECT_DOUBLE_EQ(core::lemma1_sufficient_spread(3, 7), 0.0);
  EXPECT_DOUBLE_EQ(core::lemma1_sufficient_spread(4, 2), kPi);
}

TEST(Lemma1, RegularDGonNecessityIsTight) {
  // On the regular d-gon the optimal cover uses exactly 2pi(d-k)/d — the
  // paper's necessity construction (Figure 1).
  for (int d = 2; d <= 8; ++d) {
    const auto targets = geom::regular_polygon(d, 1.0);
    for (int k = 1; k <= d; ++k) {
      const auto sectors = core::lemma1_cover({0.0, 0.0}, targets, k);
      double total = 0.0;
      for (const auto& s : sectors) total += s.width;
      EXPECT_NEAR(total, core::lemma1_sufficient_spread(d, k), 1e-9)
          << "d=" << d << " k=" << k;
      EXPECT_LE(static_cast<int>(sectors.size()), k);
    }
  }
}

TEST(Lemma1, CoverReachesEveryTarget) {
  geom::Rng rng(3);
  for (int trial = 0; trial < 120; ++trial) {
    const int d = 2 + trial % 6;
    auto targets = geom::uniform_disk(d, 2.0, rng);
    // Keep targets away from the apex.
    for (auto& t : targets) {
      if (geom::norm(t) < 1e-6) t = {1.0, 0.0};
    }
    for (int k = 1; k <= d; ++k) {
      const auto sectors = core::lemma1_cover({0.0, 0.0}, targets, k);
      for (const auto& t : targets) {
        bool covered = false;
        for (const auto& s : sectors) covered |= s.contains({0.0, 0.0}, t);
        EXPECT_TRUE(covered) << "trial " << trial << " k=" << k;
      }
      // Radius never exceeds the farthest target.
      double far = 0.0;
      for (const auto& t : targets) far = std::max(far, geom::norm(t));
      for (const auto& s : sectors) EXPECT_LE(s.radius, far + 1e-12);
    }
  }
}

TEST(Lemma1, SpreadNeverExceedsSufficientBound) {
  geom::Rng rng(17);
  for (int trial = 0; trial < 150; ++trial) {
    const int d = 2 + trial % 5;
    auto targets = geom::uniform_disk(d, 3.0, rng);
    for (auto& t : targets) {
      if (geom::norm(t) < 1e-6) t = {1.0, 0.0};
    }
    for (int k = 1; k <= d; ++k) {
      const auto sectors = core::lemma1_cover({0.0, 0.0}, targets, k);
      double total = 0.0;
      for (const auto& s : sectors) total += s.width;
      EXPECT_LE(total, core::lemma1_sufficient_spread(d, k) + 1e-9);
    }
  }
}

class Theorem2Sweep : public ::testing::TestWithParam<int> {};

TEST_P(Theorem2Sweep, RangeOneAtThresholdBudget) {
  const int k = GetParam();
  const double phi = 2.0 * kPi * (5 - k) / 5.0;
  for (auto dist : {geom::Distribution::kUniformSquare,
                    geom::Distribution::kClusters, geom::Distribution::kGrid}) {
    geom::Rng rng(100 * k + static_cast<int>(dist));
    const auto pts = geom::make_instance(dist, 130, rng);
    const auto tree = dirant::mst::degree5_emst(pts);
    const auto res = core::orient_theorem2(pts, tree, k);
    // Range exactly lmax (some antenna must reach the longest MST edge).
    EXPECT_NEAR(res.measured_radius, res.lmax, 1e-9);
    const auto cert = core::certify(pts, res, {k, phi});
    EXPECT_TRUE(cert.ok()) << "k=" << k << " " << to_string(dist)
                           << " spread=" << cert.max_spread_sum
                           << " budget=" << phi;
  }
}

INSTANTIATE_TEST_SUITE_P(K, Theorem2Sweep, ::testing::Values(1, 2, 3, 4, 5),
                         [](const auto& info) {
                           // Two-step concat: operator+(const char*,
                           // string&&) trips GCC 12's -Wrestrict false
                           // positive through the gtest name generator.
                           std::string name = "k";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(Theorem2, WorstCaseSpreadReachedOnStars) {
  // On the d-star the per-node spread equals the Lemma 1 bound exactly.
  for (int d = 3; d <= 5; ++d) {
    const auto pts = geom::star_with_center(d, 1.0);
    const auto tree = dirant::mst::degree5_emst(pts);
    for (int k = 1; k < d; ++k) {
      const auto res = core::orient_theorem2(pts, tree, k);
      EXPECT_NEAR(res.orientation.max_spread_sum(),
                  core::lemma1_sufficient_spread(d, k), 1e-9)
          << "d=" << d << " k=" << k;
    }
  }
}

TEST(Theorem2, FiveAntennaeAllBeams) {
  geom::Rng rng(6);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 100, rng);
  const auto tree = dirant::mst::degree5_emst(pts);
  const auto res = core::orient_five_antennae(pts, tree);
  EXPECT_EQ(res.algorithm, core::Algorithm::kFiveZero);
  EXPECT_DOUBLE_EQ(res.orientation.max_spread_sum(), 0.0);
  EXPECT_LE(res.orientation.max_antennas_per_node(), 5);
  // Exactly one beam per tree edge per direction.
  EXPECT_EQ(res.orientation.total_antennas(), 2 * (tree.n - 1));
  EXPECT_TRUE(core::certify(pts, res, {5, 0.0}).ok());
}

TEST(Theorem2, RejectsDegreeSixTrees) {
  const auto pts = geom::star_with_center(6, 1.0);
  const auto raw = dirant::mst::prim_emst(pts);
  if (raw.max_degree() >= 6) {
    EXPECT_THROW(core::orient_theorem2(pts, raw, 2),
                 dirant::contract_violation);
  }
}

}  // namespace
