// CSR equivalence: the grid-accelerated CSR digraph builder, the naive
// reference builder, and the pre-refactor adjacency-list semantics must
// agree on edge sets, SCC counts, and BFS distances across random,
// clustered, and degenerate (empty / single-vertex / duplicate-point /
// collinear) instances.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <random>
#include <vector>

#include "antenna/transmission.hpp"
#include "common/constants.hpp"
#include "core/planner.hpp"
#include "core/session.hpp"
#include "geometry/generators.hpp"
#include "graph/scc.hpp"
#include "graph/traversal.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/churn.hpp"
#include "churn_parity.hpp"
#include "thread_counts.hpp"

namespace geom = dirant::geom;
namespace core = dirant::core;
namespace antenna = dirant::antenna;
namespace graph = dirant::graph;
namespace sim = dirant::sim;
using dirant::kPi;

namespace {

// Pre-refactor semantics: adjacency lists (vector-of-vectors) filled by the
// same sector test the seed used, each row sorted ascending.
std::vector<std::vector<int>> reference_adjacency(
    const std::vector<geom::Point>& pts, const antenna::Orientation& o) {
  const int n = static_cast<int>(pts.size());
  std::vector<std::vector<int>> adj(n);
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      if (u == v) continue;
      for (const auto& s : o.antennas(u)) {
        if (s.contains(pts[u], pts[v], dirant::kAngleTol,
                       dirant::kRadiusAbsTol)) {
          adj[u].push_back(v);
          break;
        }
      }
    }
    std::sort(adj[u].begin(), adj[u].end());
  }
  return adj;
}

std::vector<int> sorted_row(const graph::Digraph& g, int u) {
  std::vector<int> row(g.out(u).begin(), g.out(u).end());
  std::sort(row.begin(), row.end());
  return row;
}

void expect_equivalent(const std::vector<geom::Point>& pts,
                       const antenna::Orientation& o) {
  const int n = static_cast<int>(pts.size());
  const auto naive = antenna::induced_digraph(pts, o);
  antenna::TransmissionScratch scratch;
  const auto fast = antenna::induced_digraph_fast(
      pts, o, dirant::kAngleTol, dirant::kRadiusAbsTol, scratch);
  const auto ref = reference_adjacency(pts, o);

  ASSERT_EQ(naive.size(), n);
  ASSERT_EQ(fast.size(), n);
  EXPECT_EQ(naive.edge_count(), fast.edge_count());
  for (int u = 0; u < n; ++u) {
    EXPECT_EQ(sorted_row(naive, u), ref[u]) << "naive row " << u;
    EXPECT_EQ(sorted_row(fast, u), ref[u]) << "fast row " << u;
  }

  // Same SCC decomposition cardinality...
  const auto scc_naive = graph::strongly_connected_components(naive);
  const auto scc_fast = graph::strongly_connected_components(fast);
  EXPECT_EQ(scc_naive.count, scc_fast.count);
  EXPECT_EQ(graph::is_strongly_connected(naive),
            graph::is_strongly_connected(fast));

  // ...and identical BFS hop distances from several sources.
  for (int s = 0; s < n; s += std::max(1, n / 5)) {
    EXPECT_EQ(graph::bfs_distances(naive, s), graph::bfs_distances(fast, s))
        << "source " << s;
  }
}

// n points along y = x with a tiny jitter off the line, x ascending — a
// bounding box the points barely fill, where a grid sized to their spacing
// alone would be quadratic in n (GridIndex caps its cell count).
std::vector<geom::Point> diagonal_line(int n, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<geom::Point> pts(n);
  for (int i = 0; i < n; ++i) {
    const double x = (i + 0.5 * u(rng)) / n;
    pts[i] = {x, x + 1e-9 * u(rng)};
  }
  return pts;
}

TEST(CsrEquivalence, DiagonalLineUnderTheCellCap) {
  const auto pts = diagonal_line(4000, 29);
  const auto res = core::orient(pts, {2, kPi});
  expect_equivalent(pts, res.orientation);
}

TEST(CsrEquivalence, DiagonalLineChurnMatchesFromScratch) {
  // The churn engine's live grid and its borrowed full-build grid on the
  // same collinear layout: init plus three batches (fails, recovers and
  // moves along the line) equal a from-scratch plan, CSR and certificate.
  const int n = 4000;
  const auto pts = diagonal_line(n, 29);
  const core::ProblemSpec spec{2, kPi};
  const auto along = [&](int i) {
    const double x = 0.5 * (pts[i].x + pts[i + 1].x);
    return geom::Point{x, x + 5e-10};
  };
  const std::vector<std::vector<sim::ChurnEvent>> batches = {
      {{sim::ChurnEventKind::kFail, 500, {}},
       {sim::ChurnEventKind::kFail, 1700, {}},
       {sim::ChurnEventKind::kFail, 2900, {}}},
      {{sim::ChurnEventKind::kRecover, 1700, {}},
       {sim::ChurnEventKind::kMove, 1200, along(1200)}},
      {{sim::ChurnEventKind::kFail, 3300, {}},
       {sim::ChurnEventKind::kRecover, 500, {}},
       {sim::ChurnEventKind::kMove, 2200, along(2200)}},
  };
  for (const int t : {1, 4}) {
    std::unique_ptr<dirant::par::ThreadPool> pool;
    if (t > 1) pool = std::make_unique<dirant::par::ThreadPool>(t);
    sim::ChurnEngine eng;
    eng.set_threads(t);
    eng.init(pts, spec);
    dirant::test::expect_matches_compact_build(eng, spec, t, pool.get(), 0);
    for (size_t b = 0; b < batches.size(); ++b) {
      const auto& rep = eng.step(batches[b]);
      for (const auto& ev : rep.events) {
        EXPECT_TRUE(ev.applied) << "batch " << b + 1;
      }
      EXPECT_TRUE(rep.certificate.ok()) << "batch " << b + 1;
      dirant::test::expect_matches_compact_build(eng, spec, t, pool.get(),
                                                 static_cast<int>(b) + 1);
    }
  }
}

TEST(CsrEquivalence, RandomUniformInstances) {
  for (int trial = 0; trial < 4; ++trial) {
    geom::Rng rng(4200 + trial);
    const auto pts =
        geom::make_instance(geom::Distribution::kUniformSquare, 180, rng);
    const auto res = core::orient(pts, {2, kPi});
    expect_equivalent(pts, res.orientation);
  }
}

TEST(CsrEquivalence, ClusteredInstances) {
  for (int trial = 0; trial < 3; ++trial) {
    geom::Rng rng(5200 + trial);
    const auto pts =
        geom::make_instance(geom::Distribution::kClusters, 150, rng);
    const auto res = core::orient(pts, {2, kPi});
    expect_equivalent(pts, res.orientation);
  }
}

TEST(CsrEquivalence, EmptyInstance) {
  const std::vector<geom::Point> pts;
  const antenna::Orientation o(0);
  expect_equivalent(pts, o);
  const auto fast = antenna::induced_digraph_fast(pts, o);
  EXPECT_EQ(fast.size(), 0);
  EXPECT_EQ(fast.edge_count(), 0);
}

TEST(CsrEquivalence, SingleVertex) {
  const std::vector<geom::Point> pts = {{2.5, -1.0}};
  antenna::Orientation o(1);
  o.add(0, geom::make_arc(0.0, kPi, 3.0));
  expect_equivalent(pts, o);
  EXPECT_EQ(antenna::induced_digraph_fast(pts, o).edge_count(), 0);
}

TEST(CsrEquivalence, DuplicatePoints) {
  // Exact duplicates: every duplicate pair is mutually in range whenever a
  // sector's radius is positive (distance 0), and the grid path must agree
  // with brute force about them.
  std::vector<geom::Point> pts = {{0, 0}, {0, 0}, {1, 0},
                                  {1, 0}, {0.5, 0.5}};
  antenna::Orientation o(static_cast<int>(pts.size()));
  for (int u = 0; u < static_cast<int>(pts.size()); ++u) {
    o.add(u, geom::make_arc(0.0, 2 * kPi, 1.25));
  }
  expect_equivalent(pts, o);
}

TEST(CsrEquivalence, WideSectorsBetweenPiAndTwoPi) {
  // pi < width < 2*pi exercises the complement-wedge branch of the fast
  // classifier (and its bounding-box hull), which no orient() output
  // produces; mix in beams so multi-sector rows still dedup.
  geom::Rng rng(8100);
  const auto pts = geom::uniform_square(140, 4.0, rng);
  const int n = static_cast<int>(pts.size());
  std::uniform_real_distribution<double> start_dist(0.0, 2 * kPi);
  std::uniform_real_distribution<double> width_dist(kPi + 0.1,
                                                    2 * kPi - 0.1);
  antenna::Orientation o(n);
  for (int u = 0; u < n; ++u) {
    o.add(u, geom::make_arc(start_dist(rng), width_dist(rng), 1.1));
    o.add(u, geom::beam_to(pts[u], pts[(u + 7) % n]));
  }
  expect_equivalent(pts, o);
}

TEST(CsrEquivalence, LongRowsWithOverlappingSectors) {
  // Two overlapping full-circle sectors per vertex over a dense cluster:
  // every row exceeds the linear-dedup threshold and the second sector's
  // candidates are all duplicates, exercising the linear->marked dedup
  // transition.  Regression: the transition used to leak seen[] marks past
  // the row wipe, silently deleting edges from later rows.
  geom::Rng rng(7300);
  const auto pts = geom::uniform_square(120, 1.0, rng);
  antenna::Orientation o(static_cast<int>(pts.size()));
  for (int u = 0; u < static_cast<int>(pts.size()); ++u) {
    o.add(u, geom::make_arc(0.0, 2 * kPi, 2.0));
    o.add(u, geom::make_arc(1.0, 2 * kPi, 2.0));
  }
  expect_equivalent(pts, o);
}

// --- sharded build: bit-identity with the serial CSR ----------------------

using dirant::test::thread_counts;

/// offsets+targets bit-identity: same row extents AND same order within
/// every row (not just the same sets).
void expect_bit_identical(const graph::Digraph& a, const graph::Digraph& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (int u = 0; u < a.size(); ++u) {
    const auto ra = a.out(u);
    const auto rb = b.out(u);
    ASSERT_EQ(ra.size(), rb.size()) << "row " << u;
    for (size_t k = 0; k < ra.size(); ++k) {
      ASSERT_EQ(ra[k], rb[k]) << "row " << u << " slot " << k;
    }
  }
}

/// Sharded builds at every thread count — on real pool workers and inline
/// with no pool — must reproduce the serial CSR bit for bit.
void expect_sharded_matches_serial(const std::vector<geom::Point>& pts,
                                   const antenna::Orientation& o) {
  antenna::TransmissionScratch serial_scratch;
  const auto serial = antenna::induced_digraph_fast(
      pts, o, dirant::kAngleTol, dirant::kRadiusAbsTol, serial_scratch);
  for (int t : thread_counts()) {
    // Real workers: shard tasks actually run concurrently (the sanitizer
    // suite leans on this to shake out races), and also inline with no
    // pool — both must match the serial CSR exactly.
    dirant::par::ThreadPool pool(static_cast<unsigned>(t));
    antenna::TransmissionScratch pooled_scratch;
    const auto pooled = antenna::induced_digraph_fast(
        pts, o, dirant::kAngleTol, dirant::kRadiusAbsTol, pooled_scratch, t,
        &pool);
    expect_bit_identical(pooled, serial);

    antenna::TransmissionScratch inline_scratch;
    const auto inlined = antenna::induced_digraph_fast(
        pts, o, dirant::kAngleTol, dirant::kRadiusAbsTol, inline_scratch, t,
        nullptr);
    expect_bit_identical(inlined, serial);
  }
}

/// Both contracts at once: fast == brute force, sharded == serial.
void expect_exact_and_shard_invariant(const std::vector<geom::Point>& pts,
                                      const antenna::Orientation& o) {
  expect_equivalent(pts, o);
  expect_sharded_matches_serial(pts, o);
}

TEST(ShardedBuild, OrientOutputAcrossThreadCounts) {
  // orient() output: beams + narrow wedges whose boundary rays aim exactly
  // at neighbours — the tolerance-band accept path dominates.
  for (int trial = 0; trial < 3; ++trial) {
    geom::Rng rng(8800 + trial);
    const auto pts =
        geom::make_instance(geom::Distribution::kUniformSquare, 200, rng);
    const auto res = core::orient(pts, {2, kPi});
    expect_exact_and_shard_invariant(pts, res.orientation);
  }
}

TEST(ShardedBuild, WideFullAndBeamSectorsAcrossThreadCounts) {
  // Every sector flavour in one row: wide sectors (complement wedge), full
  // circles, and beams, mixed so multi-sector rows exercise the dedup pass.
  geom::Rng rng(8900);
  const auto pts = geom::uniform_square(150, 3.0, rng);
  const int n = static_cast<int>(pts.size());
  std::uniform_real_distribution<double> start_dist(0.0, 2 * kPi);
  std::uniform_real_distribution<double> width_dist(kPi + 0.1,
                                                    2 * kPi - 0.1);
  antenna::Orientation o(n);
  for (int u = 0; u < n; ++u) {
    o.add(u, geom::make_arc(start_dist(rng), width_dist(rng), 1.0));
    o.add(u, geom::make_arc(0.0, 2 * kPi, 0.6));
    o.add(u, geom::beam_to(pts[u], pts[(u + 11) % n]));
  }
  expect_exact_and_shard_invariant(pts, o);
}

TEST(ShardedBuild, DuplicatePointsAcrossThreadCounts) {
  // Coincident points have no direction (d2 == 0 is skipped); the skip must
  // agree with brute force and with every shard split.
  std::vector<geom::Point> pts = {{0, 0}, {0, 0}, {1, 0},
                                  {1, 0}, {0.5, 0.5}, {0.5, 0.5}};
  antenna::Orientation o(static_cast<int>(pts.size()));
  for (int u = 0; u < static_cast<int>(pts.size()); ++u) {
    o.add(u, geom::make_arc(0.3 * u, kPi, 1.5));
  }
  expect_exact_and_shard_invariant(pts, o);
}

TEST(ShardedBuild, BitIdenticalToSerialAcrossThreadCounts) {
  for (const auto& [dist, n] :
       {std::pair{geom::Distribution::kUniformSquare, 400},
        std::pair{geom::Distribution::kClusters, 350}}) {
    geom::Rng rng(9100 + n);
    const auto pts = geom::make_instance(dist, n, rng);
    const auto res = core::orient(pts, {2, kPi});
    expect_sharded_matches_serial(pts, res.orientation);
  }
}

TEST(ShardedBuild, ScratchReuseAcrossThreadCountsAndSizes) {
  // One scratch streaming through different shard counts and instance
  // sizes: stale shard state (row_end tails, seen marks, old chunk bases)
  // must never leak into a later build.
  antenna::TransmissionScratch scratch;
  for (const auto& [n, t] : {std::pair{300, 4}, std::pair{80, 8},
                            std::pair{300, 2}, std::pair{300, 1}}) {
    geom::Rng rng(9800 + n + t);
    const auto pts =
        geom::make_instance(geom::Distribution::kUniformSquare, n, rng);
    const auto res = core::orient(pts, {2, kPi});
    auto sharded = antenna::induced_digraph_fast(
        pts, res.orientation, dirant::kAngleTol, dirant::kRadiusAbsTol,
        scratch, t, nullptr);
    const auto serial = antenna::induced_digraph_fast(pts, res.orientation);
    expect_bit_identical(sharded, serial);
    std::move(sharded).release(scratch.offsets, scratch.targets);
  }
}

TEST(ShardedBuild, MoreShardsThanNodes) {
  // threads > n must clamp, not crash or emit empty rows for real nodes.
  geom::Rng rng(9901);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 5, rng);
  const auto res = core::orient(pts, {2, kPi});
  antenna::TransmissionScratch scratch;
  const auto sharded = antenna::induced_digraph_fast(
      pts, res.orientation, dirant::kAngleTol, dirant::kRadiusAbsTol,
      scratch, 16, nullptr);
  expect_bit_identical(sharded,
                       antenna::induced_digraph_fast(pts, res.orientation));
}

TEST(ShardedBuild, SessionCertifyParityAcrossThreads) {
  // The user-facing knob: PlanSession::set_threads must never change the
  // certificate, only the wall clock.
  geom::Rng rng(9950);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 700, rng);
  core::PlanSession serial_session;
  serial_session.orient(pts, {2, kPi});
  const auto serial_cert = serial_session.certify(pts, {2, kPi});

  for (int t : thread_counts()) {
    core::PlanSession session;
    session.set_threads(t);
    EXPECT_EQ(session.threads(), std::max(1, t));
    session.orient(pts, {2, kPi});
    const auto& cert = session.certify(pts, {2, kPi});
    EXPECT_EQ(cert.strongly_connected, serial_cert.strongly_connected);
    EXPECT_EQ(cert.scc_count, serial_cert.scc_count);
    EXPECT_EQ(cert.max_radius, serial_cert.max_radius);
    EXPECT_EQ(cert.max_spread_sum, serial_cert.max_spread_sum);
    EXPECT_EQ(cert.max_antennas, serial_cert.max_antennas);
    EXPECT_EQ(cert.ok(), serial_cert.ok());
  }
}

TEST(CsrEquivalence, ScratchReuseAcrossInstances) {
  // One TransmissionScratch across instances of different sizes: results
  // must match fresh builds (stale seen/offset state must not leak).
  antenna::TransmissionScratch scratch;
  for (int n : {120, 40, 200}) {
    geom::Rng rng(6000 + n);
    const auto pts =
        geom::make_instance(geom::Distribution::kUniformSquare, n, rng);
    const auto res = core::orient(pts, {2, kPi});
    auto reused = antenna::induced_digraph_fast(
        pts, res.orientation, dirant::kAngleTol, dirant::kRadiusAbsTol,
        scratch);
    const auto fresh =
        antenna::induced_digraph_fast(pts, res.orientation);
    ASSERT_EQ(reused.size(), fresh.size());
    ASSERT_EQ(reused.edge_count(), fresh.edge_count());
    for (int u = 0; u < reused.size(); ++u) {
      EXPECT_EQ(sorted_row(reused, u), sorted_row(fresh, u));
    }
    std::move(reused).release(scratch.offsets, scratch.targets);
  }
}

}  // namespace
