// Simulator (flooding, stretch, c-connectivity, energy) and I/O (CSV, SVG).

#include <gtest/gtest.h>

#include <sstream>

#include "common/constants.hpp"
#include "core/planner.hpp"
#include "geometry/generators.hpp"
#include "io/csv.hpp"
#include "io/svg.hpp"
#include "mst/degree5.hpp"
#include "sim/audit.hpp"
#include "sim/energy.hpp"

namespace geom = dirant::geom;
namespace core = dirant::core;
namespace sim = dirant::sim;
namespace io = dirant::io;
namespace graph = dirant::graph;
using dirant::kPi;

namespace {

// Flood / c-level of a caller-owned digraph through a fresh session.
sim::BroadcastResult flood_of(const graph::Digraph& g, int source) {
  sim::AuditSession audit;
  audit.bind(g);
  return audit.flood(source);
}

int level_of(const graph::Digraph& g) {
  sim::AuditSession audit;
  audit.bind(g);
  return audit.strong_connectivity_level();
}

TEST(Broadcast, FullDeliveryOnStrongOrientation) {
  geom::Rng rng(1);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 100, rng);
  const auto res = core::orient(pts, {2, kPi});
  sim::AuditSession audit;
  audit.load(pts, res.orientation);
  for (int s : {0, 17, 55, 99}) {
    const auto b = audit.flood(s);
    EXPECT_EQ(b.reached, 100);
    EXPECT_DOUBLE_EQ(b.delivery_ratio, 1.0);
    EXPECT_GT(b.rounds, 0);
  }
}

TEST(Broadcast, PartialDeliveryOnBrokenOrientation) {
  graph::DigraphBuilder gb(4);
  gb.add_edge(0, 1);
  gb.add_edge(1, 0);
  gb.add_edge(2, 3);  // island
  const auto b = flood_of(gb.build(), 0);
  EXPECT_EQ(b.reached, 2);
  EXPECT_LT(b.delivery_ratio, 1.0);
}

TEST(Broadcast, RoundsHopsAndUnreachedOnATree) {
  // 0 -> 1 -> 2 and 0 -> 3, vertex 4 unreachable: the flood from 0 takes
  // 2 rounds, its reached nodes sit (1 + 2 + 1) / 3 hops out on average,
  // and exactly one node never hears it.
  graph::DigraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 3);
  const auto f = flood_of(b.build(), 0);
  EXPECT_EQ(f.rounds, 2);
  EXPECT_DOUBLE_EQ(f.mean_hops, 4.0 / 3.0);
  EXPECT_EQ(5 - f.reached, 1);
  EXPECT_DOUBLE_EQ(f.delivery_ratio, 0.8);
}

TEST(Broadcast, TransmissionsCountForwardingNodesOnly) {
  // Path 0 -> 1 -> 2: node 2 is a sink (out-degree 0), so it receives but
  // never forwards — 3 reached, 2 transmissions.
  graph::DigraphBuilder pb(3);
  pb.add_edge(0, 1);
  pb.add_edge(1, 2);
  const auto path = flood_of(pb.build(), 0);
  EXPECT_EQ(path.reached, 3);
  EXPECT_EQ(path.transmissions, 2);
  // Directed cycle: every reached node forwards exactly once.
  graph::DigraphBuilder cb(5);
  for (int i = 0; i < 5; ++i) cb.add_edge(i, (i + 1) % 5);
  const auto cyc = flood_of(cb.build(), 2);
  EXPECT_EQ(cyc.reached, 5);
  EXPECT_EQ(cyc.transmissions, 5);
}

TEST(Broadcast, TransmissionInvariantOnOrientedInstance) {
  // On any flood: transmissions == reached nodes with out-degree > 0, and
  // never exceeds reached.
  geom::Rng rng(8);
  const auto pts =
      geom::make_instance(geom::Distribution::kClusters, 90, rng);
  const auto res = core::orient(pts, {2, kPi});
  sim::AuditSession audit;
  const auto& g = audit.load(pts, res.orientation);
  for (int s : {0, 13, 89}) {
    const auto b = audit.flood(s);
    const auto dist = graph::bfs_distances(g, s);
    long long forwarding = 0;
    for (int v = 0; v < g.size(); ++v) {
      if (dist[v] >= 0 && g.out_degree(v) > 0) ++forwarding;
    }
    EXPECT_EQ(b.transmissions, forwarding);
    EXPECT_LE(b.transmissions, b.reached);
  }
}

TEST(Broadcast, HopStretchAgainstOmni) {
  geom::Rng rng(2);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 120, rng);
  const auto res = core::orient(pts, {2, kPi});
  sim::AuditSession audit;
  audit.load(pts, res.orientation);
  const auto& omni = audit.load_omni(pts, res.measured_radius);
  const auto st = audit.hop_stretch(omni);
  EXPECT_GT(st.sampled_pairs, 0);
  EXPECT_GE(st.mean_stretch, 1.0 - 1e-9);  // directional cannot beat omni
  EXPECT_LT(st.mean_stretch, 50.0);
}

TEST(Connectivity, LevelsOnKnownGraphs) {
  // Directed cycle: strongly connected but a single deletion ... still
  // strongly connected on the survivors? Removing one vertex of a directed
  // cycle leaves a path — not strong.  Level 1.
  graph::DigraphBuilder cyc(5);
  for (int i = 0; i < 5; ++i) cyc.add_edge(i, (i + 1) % 5);
  EXPECT_EQ(level_of(cyc.build()), 1);
  // Bidirected complete graph on 4 vertices: survives any two deletions.
  graph::DigraphBuilder k4(4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      if (i != j) k4.add_edge(i, j);
    }
  }
  EXPECT_EQ(level_of(k4.build()), 3);
  // Non-strong graph: level 0.
  graph::DigraphBuilder path(3);
  path.add_edge(0, 1);
  path.add_edge(1, 2);
  EXPECT_EQ(level_of(path.build()), 0);
}

TEST(Connectivity, MstOrientationsAreLevelOne) {
  // Tree-based orientations die with one articulation sensor — exactly the
  // weakness the paper's open problem points at.
  geom::Rng rng(9);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 40, rng);
  const auto res = core::orient(pts, {2, kPi});
  sim::AuditSession audit;
  audit.load(pts, res.orientation);
  EXPECT_GE(audit.strong_connectivity_level(), 1);
}

TEST(Audit, LoadOmniRebuildInvalidatesCachedTranspose) {
  // Regression: rebuilding the omni digraph in place while the session is
  // bound to it must invalidate the cached transpose — the second
  // strongly_connected() would otherwise sweep the OLD graph's transpose.
  sim::AuditSession audit;
  const std::vector<geom::Point> chain = {{0, 0}, {0.8, 0}, {1.6, 0}};
  audit.bind(audit.load_omni(chain, 1.0));
  EXPECT_TRUE(audit.strongly_connected());
  const std::vector<geom::Point> split = {
      {0, 0}, {0.8, 0}, {10, 0}, {10.8, 0}};
  audit.load_omni(split, 1.0);  // rebuild in place, no rebind
  EXPECT_FALSE(audit.strongly_connected());
}

TEST(Energy, DirectionalBeatsOmni) {
  geom::Rng rng(3);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 150, rng);
  for (double phi : {kPi, 2 * kPi / 3}) {
    const auto res = core::orient(pts, {2, phi});
    const auto rep = sim::energy_report(res.orientation);
    EXPECT_GT(rep.total, 0.0);
    EXPECT_GT(rep.saving_factor, 1.0) << "phi=" << phi;
    EXPECT_GE(rep.max_per_node, rep.mean_per_node);
  }
}

TEST(Energy, NarrowerBudgetUsesLessAngularEnergyPerNode) {
  geom::Rng rng(4);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 150, rng);
  const auto wide = core::orient(pts, {5, 0.0});   // 5 beams, range lmax
  const auto mid = core::orient(pts, {2, kPi});    // 2 antennae, wider beams
  const auto rep_wide = sim::energy_report(wide.orientation);
  const auto rep_mid = sim::energy_report(mid.orientation);
  EXPECT_GT(rep_wide.total, 0.0);
  EXPECT_GT(rep_mid.total, 0.0);
}

TEST(Energy, DrainBatteryClampsAtZero) {
  double charge = 1.0;
  EXPECT_DOUBLE_EQ(sim::drain_battery(charge, 0.4), 0.4);
  EXPECT_DOUBLE_EQ(charge, 0.6);
  // Draining past empty clamps: only what was left comes out.
  EXPECT_DOUBLE_EQ(sim::drain_battery(charge, 2.0), 0.6);
  EXPECT_DOUBLE_EQ(charge, 0.0);
  EXPECT_DOUBLE_EQ(sim::drain_battery(charge, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(charge, 0.0);
  // Non-positive costs drain nothing.
  charge = 0.5;
  EXPECT_DOUBLE_EQ(sim::drain_battery(charge, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(charge, 0.5);
}

TEST(Energy, NodeTransmitEnergySumsToReportTotal) {
  geom::Rng rng(11);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 40, rng);
  const auto res = core::orient(pts, {2, kPi});
  const auto rep = sim::energy_report(res.orientation);
  double sum = 0.0;
  for (int u = 0; u < 40; ++u) {
    sum += sim::node_transmit_energy(res.orientation, u);
  }
  EXPECT_DOUBLE_EQ(sum, rep.total);
}

TEST(Csv, RoundTrip) {
  const std::vector<geom::Point> pts = {{0.5, -1.25}, {3.0, 4.0}, {1e-3, 9.75}};
  std::ostringstream out;
  io::write_points(out, pts);
  std::istringstream in(out.str());
  const auto back = io::read_points(in);
  ASSERT_EQ(back.size(), pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_DOUBLE_EQ(back[i].x, pts[i].x);
    EXPECT_DOUBLE_EQ(back[i].y, pts[i].y);
  }
}

TEST(Csv, CommentsSeparatorsAndErrors) {
  std::istringstream ok("# header\n1,2\n3;4\n\n5\t6\n");
  const auto pts = io::read_points(ok);
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_DOUBLE_EQ(pts[1].x, 3.0);

  std::istringstream missing("1.0\n");
  EXPECT_THROW(io::read_points(missing), std::runtime_error);
  std::istringstream extra("1 2 3\n");
  EXPECT_THROW(io::read_points(extra), std::runtime_error);
}

// Hardening regressions: malformed fixtures must die with a structured
// (file, line, reason) error instead of poisoning the geometry layer.
// The old istream-extraction parser silently SKIPPED "nan nan" rows (>>
// does not parse "nan"), which is how garbage used to reach Delaunay.
TEST(Csv, RejectsNonFiniteCoordinates) {
  std::istringstream nan_row("0 0\nnan nan\n1 1\n");
  EXPECT_THROW(io::read_points(nan_row), io::CsvError);

  std::istringstream inf_row("0 0\n1 inf\n");
  try {
    io::read_points(inf_row);
    FAIL() << "inf coordinate must throw";
  } catch (const io::CsvError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.reason(), "non-finite coordinate");
    EXPECT_NE(std::string(e.what()).find(":2: "), std::string::npos);
  }

  std::istringstream neg_inf("-inf 0\n");
  EXPECT_THROW(io::read_points(neg_inf), io::CsvError);
}

TEST(Csv, RejectsGarbageTokens) {
  // A non-blank unparseable line is an error, not a silent skip.
  std::istringstream words("0 0\nhello world\n");
  EXPECT_THROW(io::read_points(words), io::CsvError);
  std::istringstream trailing("1x 2\n");
  EXPECT_THROW(io::read_points(trailing), io::CsvError);
}

TEST(Csv, InstanceAntennaCounts) {
  std::istringstream ok("# x y k\n0 0 1\n1 0 5\n2 0 2\n");
  const auto inst = io::read_instance(ok, "fixture.csv");
  ASSERT_EQ(inst.points.size(), 3u);
  ASSERT_EQ(inst.antenna_counts.size(), 3u);
  EXPECT_EQ(inst.antenna_counts[1], 5);

  // Out-of-range and fractional antenna counts are structured errors.
  std::istringstream zero("0 0 0\n");
  EXPECT_THROW(io::read_instance(zero), io::CsvError);
  std::istringstream six("0 0 6\n");
  try {
    io::read_instance(six, "bad.csv");
    FAIL() << "k=6 must throw";
  } catch (const io::CsvError& e) {
    EXPECT_EQ(e.file(), "bad.csv");
    EXPECT_EQ(e.line(), 1);
    EXPECT_NE(e.reason().find("out of range"), std::string::npos);
  }
  std::istringstream frac("0 0 1.5\n");
  EXPECT_THROW(io::read_instance(frac), io::CsvError);

  // Mixing 2- and 3-column rows is an error either way around.
  std::istringstream widens("0 0\n1 1 2\n");
  EXPECT_THROW(io::read_instance(widens), io::CsvError);
  std::istringstream narrows("0 0 2\n1 1\n");
  EXPECT_THROW(io::read_instance(narrows), io::CsvError);

  // Two-column files parse as an instance with no per-node counts.
  std::istringstream plain("0 0\n1 1\n");
  const auto uniform = io::read_instance(plain);
  EXPECT_EQ(uniform.points.size(), 2u);
  EXPECT_TRUE(uniform.antenna_counts.empty());
}

TEST(Svg, RendersAllElementKinds) {
  geom::Rng rng(5);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 30, rng);
  const auto tree = dirant::mst::degree5_emst(pts);
  const auto res = core::orient_on_tree(pts, tree, {2, kPi});
  const auto svg = io::render_svg(pts, &res.orientation, &tree);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("<circle"), std::string::npos);  // sensors
  EXPECT_NE(svg.find("<line"), std::string::npos);    // tree edges / beams
  EXPECT_NE(svg.find("<path"), std::string::npos);    // at least one wedge
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(Svg, HandlesDegenerateExtent) {
  const std::vector<geom::Point> pts = {{1, 1}, {1, 1}};
  const auto svg = io::render_svg(pts, nullptr, nullptr);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
}

}  // namespace
