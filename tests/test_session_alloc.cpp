// Steady-state allocation contract of core::PlanSession: the second
// orient() through a warm session — and every subsequent instance a batch
// worker streams through one — performs zero heap allocations for the
// Table 1 tree regimes.  Enforced by replacing the global operator new with
// a counting hook; the hook only counts while armed, so gtest's own
// bookkeeping never pollutes the measurement.
//
// The bottleneck-cycle regimes (kBtspCycle / kBidirCycle: NP-hard machinery
// with its own DP tables) and the Yao grid baseline are documented
// exemptions.  Serial certification is NOT exempt: the CSR/SCC buffers and
// the grid index (GridIndex::rebuild) are all recycled, so a warm
// session's second certify() must allocate zero as well — and so must the
// adaptive radius search's probe loop (double-buffered Result).

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

// The footprint guard reads glibc's heap counters; sanitizer runtimes
// replace the allocator, so their numbers mean something else.
#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
#include <malloc.h>
#define DIRANT_HEAP_COUNTERS 1
#endif

#include "alloc_counter.hpp"
#include "common/constants.hpp"
#include "core/planner.hpp"
#include "core/registry.hpp"
#include "core/session.hpp"
#include "core/two_antennae.hpp"
#include "delaunay/delaunay.hpp"
#include "geometry/generators.hpp"
#include "mst/emst.hpp"
#include "mst/repair.hpp"
#include "sim/audit.hpp"
#include "sim/churn.hpp"

namespace {

namespace core = dirant::core;
namespace geom = dirant::geom;
using dirant::kPi;
using dirant::test::count_allocations;

/// Measured warm PlanSession heap at n = 20000 with the flat per-node
/// tables (WarmPlanSessionFootprint).
constexpr double kFlatFootprintMb = 9.3;
/// Measured warm ChurnEngine heap at n = 20000 with one original-space plan
/// (WarmChurnEngineFootprint).
constexpr double kChurnFootprintMb = 24.8;

// Every selectable tree regime of Table 1 (the btsp-cycle rows are the
// documented exemption; phi values steer planned_algorithm to each regime).
const std::vector<core::ProblemSpec> kTreeRegimes = {
    {1, 8.0 * kPi / 5.0},  // theorem2, k=1
    {1, 1.2 * kPi},        // one-antenna-mid
    {2, 6.0 * kPi / 5.0},  // theorem2, k=2
    {2, kPi},              // theorem3 part 1
    {2, 0.8 * kPi},        // theorem3 part 2
    {3, 0.1},              // theorem5
    {4, 0.1},              // theorem6
    {5, 0.0},              // five-folklore
};

TEST(SessionAllocation, HookSeesLibraryAllocations) {
  // Guard against a vacuous zero: the counting hook must observe both plain
  // allocations and the library's cold-start allocations.
  const long long direct = count_allocations([] {
    std::vector<int> v(1024, 7);
    ASSERT_EQ(v[3], 7);
  });
  EXPECT_GT(direct, 0);

  geom::Rng rng(5);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 48, rng);
  core::PlanSession session;
  const long long cold = count_allocations(
      [&] { session.orient(pts, {2, kPi}); });  // first call: buffers grow
  EXPECT_GT(cold, 0);
}

TEST(SessionAllocation, SecondOrientIsAllocationFree) {
  // n = 48 exercises the Prim EMST path, n = 300 the Delaunay+Kruskal path.
  for (int n : {48, 300}) {
    for (const auto& spec : kTreeRegimes) {
      geom::Rng rng(1234 + n + spec.k * 17 +
                    static_cast<int>(spec.phi * 100.0));
      const auto pts =
          geom::make_instance(geom::Distribution::kUniformSquare, n, rng);

      core::PlanSession session;
      const auto& first = session.orient(pts, spec);  // warm-up call
      const double warm_radius = first.measured_radius;

      const long long allocs =
          count_allocations([&] { session.orient(pts, spec); });
      EXPECT_EQ(allocs, 0)
          << "second orient() allocated (n=" << n << ", k=" << spec.k
          << ", phi=" << spec.phi
          << ", algo=" << core::to_string(session.last_result().algorithm)
          << ")";
      // The recycled result is the same orientation, not a stale one.
      EXPECT_EQ(session.last_result().measured_radius, warm_radius);
    }
  }
}

TEST(SessionAllocation, SecondCertifyIsAllocationFree) {
  // n >= 512 selects the grid-accelerated certify path (the brute-force
  // oracle below that threshold allocates by design).  The second
  // orient+certify round through a warm session must not touch the heap:
  // the transmission scratch recycles the CSR buffers AND the grid index.
  geom::Rng rng(77);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 600, rng);
  const core::ProblemSpec spec{2, kPi};

  core::PlanSession session;
  session.orient(pts, spec);
  const auto warm_cert = session.certify(pts, spec);  // warm-up round
  ASSERT_TRUE(warm_cert.ok());

  const long long allocs = count_allocations([&] {
    session.orient(pts, spec);
    session.certify(pts, spec);
  });
  EXPECT_EQ(allocs, 0) << "warm-session certify allocated";
  EXPECT_TRUE(session.certify(pts, spec).ok());
}

TEST(SessionAllocation, AdaptiveProbeLoopIsAllocationFree) {
  // The fleet-tuning shape: repeated adaptive radius searches through one
  // warm session.  The binary search runs dozens of probes (failed probes
  // exercise the exhaustive fallback planner too); with the double-buffered
  // Result and the recycled candidate list, the second call does zero heap
  // work.  The EMST is radius-cap-invariant, so one tree serves every call.
  for (const double phi : {kPi, 0.8 * kPi}) {
    geom::Rng rng(555 + static_cast<int>(phi * 10));
    const auto pts =
        geom::make_instance(geom::Distribution::kUniformSquare, 60, rng);
    core::PlanSession session;
    session.orient(pts, {2, phi});          // builds the session tree
    const auto tree = session.last_tree();  // copy: orient_adaptive rewrites
                                            // session state
    const auto& first = session.orient_adaptive(pts, tree, phi);
    const double warm_radius = first.measured_radius;
    const double warm_bound = first.bound_factor;

    const long long allocs = count_allocations(
        [&] { session.orient_adaptive(pts, tree, phi); });
    EXPECT_EQ(allocs, 0) << "adaptive probe loop allocated (phi=" << phi
                         << ")";
    // Determinism: the recycled buffers reproduce the same optimum.
    EXPECT_EQ(session.last_result().measured_radius, warm_radius);
    EXPECT_EQ(session.last_result().bound_factor, warm_bound);

    // And the double-buffered path is observably identical to the one-shot
    // free function.
    const auto ref = core::orient_two_antennae_adaptive(pts, tree, phi);
    EXPECT_EQ(session.last_result().measured_radius, ref.measured_radius);
    EXPECT_EQ(session.last_result().bound_factor, ref.bound_factor);
  }
}

TEST(SessionAllocation, SecondAuditIsAllocationFree) {
  // The analysis-layer counterpart of SecondCertifyIsAllocationFree: a warm
  // sim::AuditSession runs the FULL metric set — digraph + omni + transpose
  // rebuilds, SCC count, flood sweep, hop stretch, deletion-probe
  // connectivity level, Monte-Carlo failure resilience, routing stats,
  // energy — without touching the heap.  full_report covers every metric in
  // one call, so the second report is the whole warm path.
  geom::Rng rng(314);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 220, rng);
  const core::ProblemSpec spec{2, kPi};
  const auto res = core::orient(pts, spec);

  dirant::sim::AuditSession session;
  dirant::sim::AuditOptions opts;
  opts.failure_trials = 6;
  opts.routing_samples = 60;
  const auto warm = session.full_report(pts, res.orientation, opts);
  EXPECT_TRUE(warm.strongly_connected);

  dirant::sim::FullReport second;
  const long long allocs = count_allocations(
      [&] { second = session.full_report(pts, res.orientation, opts); });
  EXPECT_EQ(allocs, 0) << "warm-session full audit allocated";
  // Determinism: the recycled buffers reproduce the same report.
  EXPECT_EQ(second.scc_count, warm.scc_count);
  EXPECT_EQ(second.connectivity_level, warm.connectivity_level);
  EXPECT_EQ(second.flood.mean_rounds, warm.flood.mean_rounds);
  EXPECT_EQ(second.stretch.mean_stretch, warm.stretch.mean_stretch);
  EXPECT_EQ(second.failure.mean_largest_scc, warm.failure.mean_largest_scc);
  EXPECT_EQ(second.routing.delivery_rate, warm.routing.delivery_rate);
  EXPECT_EQ(second.energy.total, warm.energy.total);
}

TEST(SessionAllocation, WarmPooledAuditSweepIsAllocationFree) {
  // The pooled counterpart of SecondAuditIsAllocationFree: with
  // set_threads(4), the deletion probes and Monte-Carlo trials fan out over
  // the session pool through ThreadPool::run_job (a fixed slot — no task
  // closures) into per-chunk AuditWorker scratch.  After one warm sweep,
  // repeating both metrics must do zero heap work ON ANY THREAD (the
  // counting hook is global, so a worker that allocates fails this too).
  geom::Rng rng(2718);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 260, rng);
  const auto res = core::orient(pts, {2, kPi});

  dirant::sim::AuditSession session;
  session.set_threads(4);
  session.load(pts, res.orientation);
  const int warm_level = session.strong_connectivity_level(2);
  const auto warm_fail = session.failure_resilience(0.1, 8, 5);

  int level = -1;
  dirant::sim::FailureStats fail;
  const long long allocs = count_allocations([&] {
    level = session.strong_connectivity_level(2);
    fail = session.failure_resilience(0.1, 8, 5);
  });
  EXPECT_EQ(allocs, 0) << "warm probe-parallel audit sweep allocated";
  EXPECT_EQ(level, warm_level);
  EXPECT_EQ(fail.mean_largest_scc, warm_fail.mean_largest_scc);
  EXPECT_EQ(fail.worst_largest_scc, warm_fail.worst_largest_scc);
}

TEST(SessionAllocation, WarmPlanSessionFootprint) {
  // Heap held by a warm PlanSession at n = 20000 (k = 2, phi = pi): every
  // layer's scratch plus the result, measured as the change in glibc's
  // in-use bytes (small-block arena + mmapped blocks) across the session's
  // construction and two orient+certify rounds.  The flat per-node tables
  // (one fixed-stride antenna table, no per-sensor buckets in the degree
  // repair, no sector copy in the digraph build, no triangle list on the
  // EMST path) read 9.9 MB here, and 9.3 MB once sectors stopped carrying
  // their apex (56-byte antenna slots); the bucketed layout they replaced
  // read 16.4 MB.  The bound leaves 15% headroom over the flat layout.
#ifndef DIRANT_HEAP_COUNTERS
  GTEST_SKIP() << "needs glibc's mallinfo2 and no sanitizer allocator";
#else
  geom::Rng rng(20000);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 20000, rng);
  const core::ProblemSpec spec{2, kPi};
  const auto heap_bytes = [] {
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd);
  };
  const double before = heap_bytes();
  auto session = std::make_unique<core::PlanSession>();
  for (int round = 0; round < 2; ++round) {
    session->orient(pts, spec);
    ASSERT_TRUE(session->certify(pts, spec).ok());
  }
  const double mb = (heap_bytes() - before) / (1024.0 * 1024.0);
  std::printf("warm PlanSession footprint at n = 20000: %.2f MB\n", mb);
  EXPECT_LE(mb, 1.15 * kFlatFootprintMb);
#endif
}

TEST(SessionAllocation, WarmChurnEngineFootprint) {
  // Heap held by a warm sim::ChurnEngine at n = 20000 (k = 2, phi = pi)
  // after init and 50 fail-only steps of ~6 fails each (the churn_small
  // perfbench schedule), measured like WarmPlanSessionFootprint.  One plan
  // in original ids, written in place by every fresh sweep, 48-byte warm
  // orienter records, 56-byte antenna slots, and no compact copies for the
  // full build or the audit fallback read 24.8 MB here; the layout that
  // held the plan twice (compact session result plus original-space copy)
  // read 30.9 MB.  The bound leaves 15% headroom.
#ifndef DIRANT_HEAP_COUNTERS
  GTEST_SKIP() << "needs glibc's mallinfo2 and no sanitizer allocator";
#else
  geom::Rng rng(20000);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 20000, rng);
  const core::ProblemSpec spec{2, kPi};
  const auto heap_bytes = [] {
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd);
  };
  const double before = heap_bytes();
  auto eng = std::make_unique<dirant::sim::ChurnEngine>();
  eng->init(pts, spec);
  std::vector<dirant::sim::ChurnEvent> events;
  for (int b = 1; b <= 50; ++b) {
    events.clear();
    eng->poisson_schedule(1, b, 6.0 / 20000, 0.0, 0.0, 0.0, events);
    ASSERT_TRUE(eng->step(events).certificate.ok());
  }
  events = {};
  const double mb = (heap_bytes() - before) / (1024.0 * 1024.0);
  std::printf("warm ChurnEngine footprint at n = 20000: %.2f MB\n", mb);
  EXPECT_LE(mb, 1.15 * kChurnFootprintMb);
#endif
}

TEST(SessionAllocation, WarmEmstFrontEndIsAllocationFree) {
  // The EMST front end on its own: a warm Triangulator (renumbered points,
  // triangle soup, linkage slots, radix buffers) and a warm KruskalScratch
  // rebuild the same n = 5k instance with zero heap work.
  geom::Rng rng(5000);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 5000, rng);
  dirant::delaunay::Triangulator triangulator;
  dirant::delaunay::Triangulation dt;
  dirant::mst::KruskalScratch scratch;
  dirant::mst::Tree tree;
  triangulator.triangulate(pts, dt);
  dirant::mst::kruskal_emst(pts, dt.edges, tree, scratch);
  const auto warm_edges = dt.edges;
  const auto warm_tree = tree.edges;

  const long long allocs = count_allocations([&] {
    triangulator.triangulate(pts, dt);
    dirant::mst::kruskal_emst(pts, dt.edges, tree, scratch);
  });
  EXPECT_EQ(allocs, 0) << "warm triangulate + kruskal allocated";
  EXPECT_EQ(dt.edges, warm_edges);
  ASSERT_EQ(tree.edges.size(), warm_tree.size());
  for (size_t i = 0; i < warm_tree.size(); ++i) {
    EXPECT_EQ(tree.edges[i].u, warm_tree[i].u);
    EXPECT_EQ(tree.edges[i].v, warm_tree[i].v);
  }

  // The edges-only overload (the EMST engine's candidate pass) emits the
  // same list in the same order, and is allocation-free warm too.
  std::vector<std::pair<int, int>> edges;
  triangulator.triangulate(pts, edges);
  EXPECT_EQ(edges, warm_edges);
  const long long edge_allocs =
      count_allocations([&] { triangulator.triangulate(pts, edges); });
  EXPECT_EQ(edge_allocs, 0) << "warm edges-only triangulate allocated";
  EXPECT_EQ(edges, warm_edges);
}

TEST(SessionAllocation, WarmChurnLoopIsAllocationFree) {
  // The long-lived-session contract: a warm sim::ChurnEngine absorbs a
  // steady-state batch — event application, pool maintenance, frozen-graph
  // audit, re-plan, digraph patch (or full rebuild), SCC, certificate,
  // snapshot — without touching the heap, on BOTH the incremental and the
  // escalated path.  The workload keeps the alive count constant (moves
  // only): shrinking and regrowing the alive set resizes the per-node
  // output arena, which allocates by design (see sim/churn.hpp).  The
  // same three nodes shuttle between two fixed positions, so every batch
  // has identical shape and the candidate pool cycles through the same
  // grow -> oversized -> reseed rhythm: the warm-up batches visit every
  // buffer high-water mark the measured batches will.
  geom::Rng rng(4242);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 300, rng);
  const dirant::core::ProblemSpec spec{2, kPi};

  auto batch_for = [&](const dirant::sim::ChurnEngine& eng, int b) {
    std::vector<dirant::sim::ChurnEvent> events;
    for (int node : {5, 17, 42}) {
      geom::Point to = pts[node];
      if (b % 2 == 1) to.x += 0.02;
      events.push_back({dirant::sim::ChurnEventKind::kMove, node, to});
    }
    (void)eng;
    return events;
  };

  for (const bool force_full : {false, true}) {
    dirant::sim::ChurnEngine eng;
    dirant::sim::ChurnOptions opts;
    opts.force_full = force_full;
    eng.init(pts, spec, opts);
    // Warm-up: enough batches to cycle the pool's escalate/reseed rhythm
    // and ratchet every scratch buffer (events pre-built so schedule
    // generation never counts).
    std::vector<std::vector<dirant::sim::ChurnEvent>> warm, measured;
    for (int b = 1; b <= 6; ++b) warm.push_back(batch_for(eng, b));
    for (int b = 7; b <= 12; ++b) measured.push_back(batch_for(eng, b));
    for (const auto& events : warm) eng.step(events);

    const long long allocs = count_allocations([&] {
      for (const auto& events : measured) eng.step(events);
    });
    EXPECT_EQ(allocs, 0) << "warm churn loop allocated (force_full="
                         << force_full << ")";
    EXPECT_EQ(eng.alive_count(), 300);
    EXPECT_TRUE(eng.last_report().certificate.ok());
  }
}

TEST(EdgePool, WarmInsertAllocatesNothing) {
  // The churn candidate pool keeps an inserted node as an implicit star:
  // once its buffers have grown, a reseed, star inserts (moves and a
  // recover) and the one materialisation edges() triggers stay off the
  // heap — seed sorts in borrowed buffers (the engine lends its Kruskal
  // scratch) and builds no temporary vectors.
  const int n = 64;
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i) edges.emplace_back(i, (i + 1) % n);
  std::vector<int> orig_of;
  for (int u = 0; u < n; ++u) orig_of.push_back(u);
  std::vector<char> alive(n, 1);
  dirant::mst::DelaunayEdgePool pool;
  dirant::mst::KruskalScratch sort_scratch;
  const auto cycle = [&] {
    pool.seed(edges, orig_of, sort_scratch.order, sort_scratch.radix);
    for (int v : {5, 17, 42}) {
      pool.erase_node(v);
      pool.insert_node(v, alive);
    }
    alive[9] = 0;
    pool.erase_node(9);
    alive[9] = 1;
    pool.insert_node(9, alive);
    ASSERT_TRUE(pool.valid());
    ASSERT_EQ(pool.edges().size(), pool.size());
  };
  cycle();
  cycle();
  EXPECT_EQ(count_allocations(cycle), 0) << "warm pool cycle allocated";
}

TEST(EdgePool, WarmIndexedErasesAllocateNothing) {
  // A fail-and-move batch on a warm pool: the first erase scans the base
  // list, later ones find neighbours through the per-node index (built
  // once), their closures stage edges and tombstone the erased ids, a
  // moved node comes back as a star, and edges() compacts — all inside
  // buffers the first cycles grew.
  const int side = 16, n = side * side;
  std::vector<std::pair<int, int>> edges;
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) {
      const int u = y * side + x;
      if (x + 1 < side) edges.emplace_back(u, u + 1);
      if (y + 1 < side) edges.emplace_back(u, u + side);
      if (x + 1 < side && y + 1 < side) edges.emplace_back(u, u + side + 1);
    }
  }
  std::vector<int> orig_of;
  for (int u = 0; u < n; ++u) orig_of.push_back(u);
  std::vector<char> alive(n, 1);
  dirant::mst::DelaunayEdgePool pool;
  const int fails[] = {20, 21, 37};
  const int more_fails[] = {150, 170};
  dirant::mst::KruskalScratch sort_scratch;
  const auto cycle = [&] {
    pool.seed(edges, orig_of, sort_scratch.order, sort_scratch.radix);
    pool.erase_nodes(fails);  // first erase: one scan
    pool.erase_node(100);     // builds the index
    pool.erase_nodes(more_fails);
    pool.erase_node(101);  // a neighbour of 100: staged edges in its chain
    pool.insert_node(100, alive);
    ASSERT_TRUE(pool.valid());
    ASSERT_EQ(pool.edges().size(), pool.size());
  };
  cycle();
  cycle();
  EXPECT_EQ(count_allocations(cycle), 0) << "warm indexed erases allocated";
}

TEST(SessionAllocation, BatchChunkPerWorkerIsAllocationFree) {
  // A batch worker's inner loop: one warm session streaming a chunk of
  // same-size instances (core::orient_batch keeps exactly this shape per
  // worker; the only heap traffic there is the per-item result copy-out,
  // which is the output, not the pipeline).
  const core::ProblemSpec spec{2, kPi};
  geom::Rng rng(99);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 48, rng);
  std::vector<std::vector<geom::Point>> chunk(6, pts);

  core::PlanSession session;
  session.orient(chunk[0], spec);  // warm-up instance

  const long long allocs = count_allocations([&] {
    for (size_t i = 1; i < chunk.size(); ++i) {
      session.orient(chunk[i], spec);
    }
  });
  EXPECT_EQ(allocs, 0) << "batch chunk allocated after the first instance";
}

TEST(SessionAllocation, SessionResultsMatchFreeFunctions) {
  // The recycled-arena path must be observably identical to the one-shot
  // free functions across regimes and sizes.
  for (int n : {1, 2, 48, 300}) {
    for (const auto& spec : kTreeRegimes) {
      geom::Rng rng(4321 + n + spec.k);
      const auto pts =
          geom::make_instance(geom::Distribution::kUniformSquare, n, rng);
      core::PlanSession session;
      // Run twice so any stale-state bug in the recycled buffers surfaces.
      session.orient(pts, spec);
      const auto& ses = session.orient(pts, spec);
      const auto ref = core::orient(pts, spec);
      EXPECT_EQ(ses.algorithm, ref.algorithm);
      EXPECT_EQ(ses.bound_factor, ref.bound_factor);
      EXPECT_EQ(ses.lmax, ref.lmax);
      EXPECT_EQ(ses.measured_radius, ref.measured_radius);
      EXPECT_EQ(ses.orientation.total_antennas(),
                ref.orientation.total_antennas());
      EXPECT_EQ(ses.orientation.max_spread_sum(),
                ref.orientation.max_spread_sum());
    }
  }
}

}  // namespace
