// Theorem 3 in detail: the phi = pi bound 2 sin(2pi/9), the phi-sweep bound
// 2 sin(pi/2 - phi/4), delegation structure (out-degree), proof-case
// coverage, and monotonicity of the trade-off.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "antenna/transmission.hpp"
#include "common/constants.hpp"
#include "core/session.hpp"
#include "core/two_antennae.hpp"
#include "core/validate.hpp"
#include "geometry/generators.hpp"
#include "graph/scc.hpp"
#include "mst/degree5.hpp"

namespace geom = dirant::geom;
namespace core = dirant::core;
using dirant::kPi;
using dirant::kTwoPi;

namespace {

TEST(Theorem3, BoundFactorFormula) {
  EXPECT_NEAR(core::theorem3_bound_factor(kPi), 2.0 * std::sin(2.0 * kPi / 9.0),
              1e-15);
  EXPECT_NEAR(core::theorem3_bound_factor(2.0 * kPi / 3.0), std::sqrt(3.0),
              1e-12);
  // Approaching pi from below tends to sqrt(2), then jumps down at pi.
  EXPECT_NEAR(core::theorem3_bound_factor(kPi - 1e-9), std::sqrt(2.0), 1e-6);
  EXPECT_LT(core::theorem3_bound_factor(kPi),
            core::theorem3_bound_factor(kPi - 1e-9));
}

TEST(Theorem3, BoundFactorMonotoneInPhi) {
  double prev = core::theorem3_bound_factor(2.0 * kPi / 3.0);
  for (double phi = 2.0 * kPi / 3.0 + 0.01; phi < kPi; phi += 0.01) {
    const double cur = core::theorem3_bound_factor(phi);
    EXPECT_LE(cur, prev + 1e-12);
    prev = cur;
  }
}

class Theorem3PhiSweep : public ::testing::TestWithParam<double> {};

TEST_P(Theorem3PhiSweep, CertifiesAcrossFamilies) {
  const double phi = GetParam();
  const core::ProblemSpec spec{2, phi};
  for (auto dist : geom::kAllDistributions) {
    geom::Rng rng(std::hash<double>{}(phi) ^ 1234567u);
    const auto pts = geom::make_instance(dist, 90, rng);
    const auto tree = dirant::mst::degree5_emst(pts);
    const auto res = core::orient_two_antennae(pts, tree, phi);
    const auto cert = core::certify(pts, res, spec);
    EXPECT_TRUE(cert.ok())
        << to_string(dist) << " phi=" << phi
        << " sc=" << cert.strongly_connected
        << " spread=" << cert.max_spread_sum
        << " r=" << res.measured_radius << "/" << res.bound_factor * res.lmax;
    EXPECT_EQ(res.cases.fallback_plans, 0) << to_string(dist) << " " << phi;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Phi, Theorem3PhiSweep,
    ::testing::Values(2 * kPi / 3, 0.70 * kPi, 0.75 * kPi, 0.80 * kPi,
                      0.85 * kPi, 0.90 * kPi, 0.95 * kPi, 0.999 * kPi, kPi,
                      1.05 * kPi, 1.19 * kPi),
    [](const auto& info) {
      return "phi" + std::to_string(static_cast<int>(
                         std::round(info.param / kPi * 1000)));
    });

TEST(Theorem3, OutDegreeAtMostTwoAntennas) {
  geom::Rng rng(5);
  const auto pts = geom::make_instance(geom::Distribution::kUniformSquare, 200,
                                       rng);
  const auto tree = dirant::mst::degree5_emst(pts);
  const auto res = core::orient_two_antennae(pts, tree, kPi);
  EXPECT_LE(res.orientation.max_antennas_per_node(), 2);
}

TEST(Theorem3, CaseCoverageOverManySeeds) {
  // Across a few hundred instances the proof's major cases must all fire:
  // degrees 1-4 plus the degree-5 sub-cases.  (Degree-5 MST vertices are
  // rare in uniform data; engineered stars below complete the sweep.)
  core::CaseStats agg;
  for (int seed = 0; seed < 60; ++seed) {
    geom::Rng rng(seed);
    const auto pts = geom::make_instance(geom::Distribution::kUniformSquare,
                                         120, rng);
    const auto tree = dirant::mst::degree5_emst(pts);
    for (double phi : {kPi, 0.8 * kPi, 0.7 * kPi}) {
      const auto res = core::orient_two_antennae(pts, tree, phi);
      agg.merge(res.cases);
    }
  }
  EXPECT_EQ(agg.fallback_plans, 0);
  EXPECT_GT(agg.counts["leaf"], 0);
  EXPECT_GT(agg.counts["deg2"], 0);
  EXPECT_GT(agg.counts["deg3"], 0);
  // At least one of the degree-4 shapes must appear.
  int deg4 = 0;
  for (const auto& [k, v] : agg.counts) {
    if (k.rfind("deg4", 0) == 0) deg4 += v;
  }
  EXPECT_GT(deg4, 0);
}

TEST(Theorem3, Degree5StarExercisesCaseA) {
  // Centre of a regular pentagon star has tree degree 5; parent/target rays
  // land inside [c4, c1], forcing the case-A machinery.
  for (double phase = 0.0; phase < kTwoPi / 5; phase += 0.37) {
    auto pts = geom::star_with_center(5, 1.0, phase);
    // Hang a satellite off one pentagon vertex so the centre is internal.
    pts.push_back(geom::from_polar(1.9, phase));
    const auto tree = dirant::mst::degree5_emst(pts);
    if (tree.max_degree() < 5) continue;
    for (double phi : {kPi, 0.9 * kPi, 0.75 * kPi, 2 * kPi / 3}) {
      const auto res = core::orient_two_antennae(pts, tree, phi);
      const auto cert = core::certify(pts, res, {2, phi});
      EXPECT_TRUE(cert.ok()) << "phase=" << phase << " phi=" << phi;
      EXPECT_EQ(res.cases.fallback_plans, 0);
    }
  }
}

TEST(Theorem3, Degree5CaseStatsAppear) {
  // Randomized perturbed stars accumulate degree-5 case labels.
  core::CaseStats agg;
  geom::Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    auto pts = geom::star_with_center(5, 1.0, 0.01 * trial);
    pts.push_back(geom::from_polar(1.85, 0.01 * trial + 0.4));
    pts = geom::perturbed(std::move(pts), 0.08, rng);
    const auto tree = dirant::mst::degree5_emst(pts);
    if (tree.max_degree() < 5) continue;
    for (double phi : {kPi, 0.85 * kPi, 0.70 * kPi}) {
      const auto res = core::orient_two_antennae(pts, tree, phi);
      agg.merge(res.cases);
      const auto cert = core::certify(pts, res, {2, phi});
      ASSERT_TRUE(cert.ok()) << trial;
    }
  }
  EXPECT_EQ(agg.fallback_plans, 0);
  int deg5 = 0;
  for (const auto& [k, v] : agg.counts) {
    if (k.rfind("deg5", 0) == 0) deg5 += v;
  }
  EXPECT_GT(deg5, 0) << "no degree-5 cases reached";
}

TEST(Theorem3, MeasuredRadiusTracksBoundAcrossPhi) {
  // The measured radius must degrade gracefully as phi shrinks (the paper's
  // central trade-off, Figure 4 regime).
  geom::Rng rng(11);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 150, rng);
  const auto tree = dirant::mst::degree5_emst(pts);
  double prev_bound = 0.0;
  for (double phi = kPi; phi >= 2 * kPi / 3 - 1e-12; phi -= kPi / 24) {
    const auto res = core::orient_two_antennae(pts, tree, phi);
    EXPECT_LE(res.measured_radius,
              res.bound_factor * res.lmax * (1 + 1e-9) + 1e-9);
    EXPECT_GE(res.bound_factor, prev_bound - 1e-9);  // shrinking phi, larger R
    prev_bound = phi == kPi ? 0.0 : res.bound_factor;
  }
}

TEST(Theorem3, TransmissionGraphFastEqualsBrute) {
  geom::Rng rng(31);
  const auto pts =
      geom::make_instance(geom::Distribution::kClusters, 100, rng);
  const auto tree = dirant::mst::degree5_emst(pts);
  const auto res = core::orient_two_antennae(pts, tree, kPi);
  const auto slow = dirant::antenna::induced_digraph(pts, res.orientation);
  const auto fast =
      dirant::antenna::induced_digraph_fast(pts, res.orientation);
  ASSERT_EQ(slow.size(), fast.size());
  for (int u = 0; u < slow.size(); ++u) {
    std::multiset<int> a(slow.out(u).begin(), slow.out(u).end());
    std::multiset<int> b(fast.out(u).begin(), fast.out(u).end());
    EXPECT_EQ(a, b) << u;
  }
}

TEST(Theorem3, RequiresPhiAtLeastTwoThirdsPi) {
  EXPECT_THROW(core::theorem3_bound_factor(0.5 * kPi),
               dirant::contract_violation);
}

// The Theorem 3 regimes need distinct positions: a beam or a ccw sort at a
// point coincident with its target has no direction.  Exact duplicates are
// a structured contract violation (never an abort or a hang), at both parts
// of the theorem and on a session that has planned before.
TEST(Theorem3, DuplicatePositionsAreAContractViolation) {
  const std::vector<geom::Point> pair = {{0.0, 0.0}, {0.0, 0.0}};
  const std::vector<geom::Point> two_pairs = {{0.0, 0.0}, {0.0, 0.0},
                                              {1.0, 0.0}, {2.0, 1.0},
                                              {2.0, 1.0}, {0.0, 3.0}};
  geom::Rng rng(3);
  const auto clean = geom::uniform_square(200, 10.0, rng);
  for (const double phi : {kPi, 5.0 * kPi / 6.0}) {
    core::PlanSession session;
    session.orient(clean, {2, phi});
    EXPECT_TRUE(session.certify(clean, {2, phi}).ok());
    EXPECT_THROW(session.orient(pair, {2, phi}), dirant::contract_violation);
    EXPECT_THROW(session.orient(two_pairs, {2, phi}),
                 dirant::contract_violation);
    // The session stays usable after the throw.
    session.orient(clean, {2, phi});
    EXPECT_TRUE(session.certify(clean, {2, phi}).ok());
  }
}

}  // namespace
