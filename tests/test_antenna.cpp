// Antenna substrate: orientation accounting, induced digraphs, interference
// metrics.

#include <gtest/gtest.h>

#include "antenna/metrics.hpp"
#include "antenna/orientation.hpp"
#include "antenna/transmission.hpp"
#include "common/constants.hpp"
#include "core/planner.hpp"
#include "geometry/generators.hpp"

namespace geom = dirant::geom;
namespace antenna = dirant::antenna;
using dirant::kPi;

namespace {

TEST(Orientation, Accounting) {
  antenna::Orientation o(3);
  o.add(0, geom::make_arc({0, 0}, 0.0, kPi / 2, 2.0));
  o.add(0, geom::beam_to({0, 0}, {1, 1}));
  o.add(2, geom::make_arc({5, 5}, 1.0, kPi, 3.0));
  EXPECT_EQ(o.total_antennas(), 3);
  EXPECT_EQ(o.max_antennas_per_node(), 2);
  EXPECT_NEAR(o.spread_sum(0), kPi / 2, 1e-12);
  EXPECT_NEAR(o.max_spread_sum(), kPi, 1e-12);
  EXPECT_NEAR(o.max_radius(), 3.0, 1e-12);
}

TEST(Transmission, EdgeSemantics) {
  // u covers v but not vice versa: exactly one directed edge.
  const std::vector<geom::Point> pts = {{0, 0}, {1, 0}};
  antenna::Orientation o(2);
  o.add(0, geom::beam_to(pts[0], pts[1]));
  o.add(1, geom::beam_to(pts[1], {2, 0}));  // aims away
  const auto g = antenna::induced_digraph(pts, o);
  EXPECT_EQ(g.out(0).size(), 1u);
  EXPECT_TRUE(g.out(1).empty());
}

TEST(Transmission, RadiusCutoff) {
  const std::vector<geom::Point> pts = {{0, 0}, {3, 0}};
  antenna::Orientation o(2);
  o.add(0, geom::make_arc(pts[0], 0.0, kPi, 2.9));
  const auto g = antenna::induced_digraph(pts, o);
  EXPECT_TRUE(g.out(0).empty());
}

TEST(Transmission, UnitDiskSymmetric) {
  geom::Rng rng(10);
  const auto pts = geom::uniform_square(60, 6.0, rng);
  const auto g = antenna::unit_disk_digraph(pts, 1.5);
  for (int u = 0; u < g.size(); ++u) {
    for (int v : g.out(u)) {
      bool back = false;
      for (int w : g.out(v)) back |= (w == u);
      EXPECT_TRUE(back) << u << "->" << v;
    }
  }
}

TEST(Metrics, DirectionalReducesInterference) {
  geom::Rng rng(11);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 200, rng);
  const auto res = dirant::core::orient(pts, {4, 0.0});  // narrow beams
  const auto st = antenna::interference_stats(pts, res.orientation);
  EXPECT_GT(st.interference_reduction, 1.0);
  EXPECT_GT(st.mean_receivers_omni, st.mean_receivers_per_antenna);
}

TEST(Metrics, CapacityGainModelMatchesYiPeiKalyanaraman) {
  // With all antennas at spread alpha, the model gain is sqrt(2pi/alpha).
  antenna::Orientation o(2);
  const std::vector<geom::Point> pts = {{0, 0}, {0.5, 0}};
  o.add(0, geom::make_arc(pts[0], 0.0, kPi / 4, 1.0));
  o.add(1, geom::make_arc(pts[1], kPi, kPi / 4, 1.0));
  const auto st = antenna::interference_stats(pts, o);
  EXPECT_NEAR(st.capacity_gain_model, std::sqrt(dirant::kTwoPi / (kPi / 4)),
              1e-12);
}

}  // namespace
