// Antenna substrate: orientation accounting, induced digraphs, interference
// metrics.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "antenna/metrics.hpp"
#include "antenna/orientation.hpp"
#include "antenna/transmission.hpp"
#include "common/constants.hpp"
#include "core/planner.hpp"
#include "geometry/generators.hpp"
#include "reference_orientation.hpp"

namespace geom = dirant::geom;
namespace antenna = dirant::antenna;
using dirant::kPi;

namespace {

TEST(Orientation, Accounting) {
  antenna::Orientation o(3);
  o.add(0, geom::make_arc(0.0, kPi / 2, 2.0));
  o.add(0, geom::beam_to({0, 0}, {1, 1}));
  o.add(2, geom::make_arc(1.0, kPi, 3.0));
  EXPECT_EQ(o.total_antennas(), 3);
  EXPECT_EQ(o.max_antennas_per_node(), 2);
  EXPECT_NEAR(o.spread_sum(0), kPi / 2, 1e-12);
  EXPECT_NEAR(o.max_spread_sum(), kPi, 1e-12);
  EXPECT_NEAR(o.max_radius(), 3.0, 1e-12);
}

// ---- Fixed-stride table vs the per-sensor bucket oracle -----------------

using RefOrientation = dirant::test::ReferenceOrientation;

/// Every observable of `o` equals the oracle's: rows (sectors and boundary
/// directions, bit for bit), accounting, and node_equals on every pair.
void expect_same_table(const antenna::Orientation& o, const RefOrientation& r,
                       const antenna::Orientation& o2,
                       const RefOrientation& r2, const std::string& where) {
  ASSERT_EQ(o.size(), r.size()) << where;
  EXPECT_EQ(o.total_antennas(), r.total_antennas()) << where;
  EXPECT_EQ(o.max_antennas_per_node(), r.max_antennas_per_node()) << where;
  EXPECT_EQ(o.max_radius(), r.max_radius()) << where;
  EXPECT_EQ(o.max_spread_sum(), r.max_spread_sum()) << where;
  for (int u = 0; u < o.size(); ++u) {
    const auto a = o.antennas(u);
    const auto& b = r.antennas(u);
    const auto da = o.boundary_dirs(u);
    const auto& db = r.boundary_dirs(u);
    ASSERT_EQ(a.size(), b.size()) << where << " row " << u;
    ASSERT_EQ(da.size(), db.size()) << where << " row " << u;
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_TRUE(a[j].start == b[j].start &&
                  a[j].width == b[j].width && a[j].radius == b[j].radius)
          << where << " row " << u << " sector " << j;
      EXPECT_TRUE(da[j].sx == db[j].sx && da[j].sy == db[j].sy &&
                  da[j].ex == db[j].ex && da[j].ey == db[j].ey)
          << where << " row " << u << " dirs " << j;
    }
    EXPECT_EQ(o.spread_sum(u), r.spread_sum(u)) << where << " row " << u;
    for (int v = 0; v < o.size(); ++v) {
      EXPECT_EQ(o.node_equals(u, o, v), r.node_equals(u, r, v))
          << where << " rows " << u << "," << v;
    }
    for (int v = 0; v < o2.size(); ++v) {
      EXPECT_EQ(o.node_equals(u, o2, v), r.node_equals(u, r2, v))
          << where << " rows " << u << ", other " << v;
    }
  }
}

TEST(OrientationTable, RandomizedOpsMatchBucketOracle) {
  // A small pool of sectors (beams, proper wedges, wide and full ones), so
  // rows repeat and node_equals / sync_node see both outcomes.
  const std::vector<geom::Sector> pool = {
      geom::beam_to({0, 0}, {1, 1}),
      geom::beam_to({0, 0}, {-2, 0.5}),
      geom::make_arc(0.3, kPi / 3, 1.5),
      geom::make_arc(5.9, 1.2 * kPi, 0.7),
      geom::make_arc(0.0, dirant::kTwoPi, 2.5),
      geom::make_arc(2.0, kPi / 2, 4.0),
  };
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    geom::Rng rng(seed);
    const auto pick = [&](int hi) {  // uniform in [0, hi)
      return static_cast<int>(rng() % static_cast<std::uint64_t>(hi));
    };
    const int k = 1 + pick(5);  // the stride under test: k = 1..5
    int n = 1 + pick(8);
    antenna::Orientation o(0);
    RefOrientation r(0);
    o.reset(n, k);
    r.reset(n, k);
    // A second table to copy from, with its own (often wider) stride.
    const int n2 = 1 + pick(6);
    antenna::Orientation o2(0);
    RefOrientation r2(0);
    o2.reset(n2, 1 + pick(7));
    r2.reset(n2);
    for (int i = 0; i < 60; ++i) {
      const int u = pick(n2);
      const auto& s = pool[pick(static_cast<int>(pool.size()))];
      o2.add(u, s);
      r2.add(u, s);
      if (pick(3) == 0) {
        o2.clear_node(u);
        r2.clear_node(u);
      }
    }
    for (int step = 0; step < 120; ++step) {
      const int op = pick(8);
      const int u = pick(n), v = pick(n), w = pick(n2);
      std::string what;
      switch (op) {
        case 0:
        case 1: {  // add; rows of up to k + 3 sectors cross the stride
          const auto& s = pool[pick(static_cast<int>(pool.size()))];
          if (static_cast<int>(r.antennas(u).size()) < k + 3) {
            o.add(u, s);
            r.add(u, s);
          }
          what = "add";
          break;
        }
        case 2:
          o.clear_node(u);
          r.clear_node(u);
          what = "clear_node";
          break;
        case 3: {  // copy within the table, self-copy of a row included
          const int src = pick(4) == 0 ? u : v;
          o.copy_node(u, o, src);
          r.copy_node(u, r, src);
          what = "copy_node self";
          break;
        }
        case 4:
          o.copy_node(u, o2, w);
          r.copy_node(u, r2, w);
          what = "copy_node other";
          break;
        case 5: {
          const bool same = pick(2) == 0;
          EXPECT_EQ(o.sync_node(u, same ? o : o2, same ? v : w),
                    r.sync_node(u, same ? r : r2, same ? v : w));
          what = "sync_node table";
          break;
        }
        case 6: {  // sync from a sector list: a copy of some row, or fresh
          std::vector<geom::Sector> list;
          if (pick(2) == 0) {
            const auto row = r.antennas(v);
            list.assign(row.begin(), row.end());
          } else {
            const int m = pick(k + 3);
            for (int j = 0; j < m; ++j) {
              list.push_back(pool[pick(static_cast<int>(pool.size()))]);
            }
          }
          EXPECT_EQ(o.sync_node(u, list),
                    r.sync_node(u, std::span<const geom::Sector>(list)));
          what = "sync_node list";
          break;
        }
        default:
          if (pick(4) == 0) {  // reset, possibly to a new size and k
            n = 1 + pick(8);
            const int kk = 1 + pick(5);
            o.reset(n, kk);
            r.reset(n, kk);
            what = "reset";
          } else {
            what = "noop";
          }
          break;
      }
      expect_same_table(o, r, o2, r2,
                        "seed " + std::to_string(seed) + " step " +
                            std::to_string(step) + " (" + what + ")");
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(OrientationTable, AddPastStrideRelayoutsOnce) {
  // No Table 1 regime adds past the k it resets with, but the table must
  // still hold every row intact when a caller does.
  antenna::Orientation o(0);
  RefOrientation r(0);
  o.reset(4, 2);
  r.reset(4, 2);
  for (int u = 0; u < 4; ++u) {
    for (int j = 0; j < 2; ++j) {
      const auto s = geom::make_arc(0.1 * j, 0.5, 1.0 + u + j);
      o.add(u, s);
      r.add(u, s);
    }
  }
  const auto extra = geom::beam_to({2, 0}, {3, 3});
  o.add(2, extra);  // third sector at a stride of 2
  r.add(2, extra);
  expect_same_table(o, r, o, r, "after relayout");
  // A reset keeps the wider stride: a warm refill does not relayout again.
  o.reset(4, 2);
  r.reset(4, 2);
  for (int j = 0; j < 3; ++j) {
    o.add(1, extra);
    r.add(1, extra);
  }
  expect_same_table(o, r, o, r, "after reset");
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
  o.add(0, geom::make_arc(0.0, kPi, 2.9));
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
  o.add(0, geom::make_arc(0.0, kPi / 4, 1.0));
  o.add(1, geom::make_arc(kPi, kPi / 4, 1.0));
  const auto st = antenna::interference_stats(pts, o);
  EXPECT_NEAR(st.capacity_gain_model, std::sqrt(dirant::kTwoPi / (kPi / 4)),
              1e-12);
}

}  // namespace
