// Sub-linear churn acceptance suite: localized MST repair, warm frontier
// re-orientation and frontier-bounded recertification.
//
//   * DelaunayEdgePool guards, tested directly: the degree-cap
//     invalidation on erase, the oversized guard + reseed semantics, and
//     the disconnected-pool contract violation that sim::ChurnEngine maps
//     to the "pool-disconnected" escalation; and the star representation
//     of inserted nodes (exact size(), star erase vs the cap, stars counted
//     toward a plain erase's cap, seed clearing them).
//   * A 100%-move parity sweep: every event in every batch is a kMove,
//     and after each batch the engine must match a from-scratch
//     orient()+certify() bit for bit at every thread count — mobility is
//     the hardest case for the warm frontier orienter (positions,
//     targets and ccw child orders all shift).
//   * The locality guarantee itself: under small fail batches the
//     localized repair + warm frontier orienter must carry >= 90% of the
//     steps (the rest being the first recording batch and deterministic
//     escalations), each region equal to a from-scratch fragment oracle.
//   * Big cuts: schedules that strand thousands of nodes (highest tree
//     degrees, rate-6/n attrition, the hub's out-neighbours at
//     n = 5000-20000) equal a fresh plan and the Tarjan audit reference
//     step by step; hub-neighbour fails keep the certificate; a long
//     detached chain is welded by the warm orienter without tearing.
//   * Light recover/move batches at n=2000 whose stars are read by a
//     non-escalating step (localized repair or pool Kruskal), with parity
//     at every thread count.
//   * Pool-Kruskal batches stay warm: attrition and move schedules at
//     n=2000, where every rung-2 batch whose global gates held
//     re-planned only its region, with parity at every thread count.
//
// Everything here is deterministic: schedules are fixed functions of
// (seed, batch), and every escalation decision is a pure function of the
// event sequence — so the counter assertions are exact replays, not
// statistical expectations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <random>
#include <string_view>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/constants.hpp"
#include "core/session.hpp"
#include "geometry/generators.hpp"
#include "mst/emst.hpp"
#include "mst/repair.hpp"
#include "sim/churn.hpp"
#include "churn_parity.hpp"
#include "reference_frozen_audit.hpp"
#include "thread_counts.hpp"

namespace geom = dirant::geom;
namespace core = dirant::core;
namespace mst = dirant::mst;
namespace sim = dirant::sim;
using dirant::contract_violation;
using dirant::kPi;
using dirant::test::for_each_thread_count;

namespace {

std::vector<geom::Point> make_points(int n, int seed) {
  geom::Rng rng(seed);
  return geom::make_instance(geom::Distribution::kUniformSquare, n, rng);
}

// ---------------------------------------------------------------------
// DelaunayEdgePool guards, directly.
// ---------------------------------------------------------------------

// A star pool: node 0 adjacent to `leaves` neighbours (ids 1..leaves).
std::vector<std::pair<int, int>> star_edges(int leaves) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 1; i <= leaves; ++i) edges.emplace_back(0, i);
  return edges;
}

// Members 0..n-1, compact id == original id.
std::vector<int> identity(int n) {
  std::vector<int> ids(n);
  for (int i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

TEST(EdgePool, EraseAboveDegreeCapInvalidates) {
  // Erasing a node whose pool degree exceeds the cap must invalidate the
  // pool (the O(deg^2) neighbour closure is the thing being refused), not
  // throw and not silently drop candidates.
  mst::DelaunayEdgePool pool;  // default degree_cap = 64
  const auto edges = star_edges(70);
  pool.seed(edges, identity(71));
  ASSERT_TRUE(pool.valid());
  pool.erase_node(0);
  EXPECT_FALSE(pool.valid()) << "degree 70 > cap 64 must invalidate";
  // Operations on an invalid pool are no-ops until reseeded.
  pool.erase_node(1);
  EXPECT_FALSE(pool.valid());
  pool.seed(edges, identity(71));
  EXPECT_TRUE(pool.valid()) << "seed must restore validity";
}

TEST(EdgePool, EraseBelowDegreeCapClosesNeighbours) {
  // Below the cap the erase keeps the superset invariant by adding all
  // pairs of the erased node's former neighbours.
  mst::DelaunayEdgePool pool;
  const int leaves = 10;
  pool.seed(star_edges(leaves), identity(leaves + 1));
  pool.erase_node(0);
  ASSERT_TRUE(pool.valid());
  // 0's edges are gone; the closure is the complete graph on 1..leaves.
  EXPECT_EQ(static_cast<int>(pool.edges().size()),
            leaves * (leaves - 1) / 2);
  for (const auto& [u, v] : pool.edges()) {
    EXPECT_NE(u, 0);
    EXPECT_NE(v, 0);
    EXPECT_LT(u, v);
  }
}

TEST(EdgePool, OversizedGuardAgainstAliveCount) {
  // size > size_factor * alive + size_slack (defaults 6.0 / 32).  The
  // guard is the caller's reseed trigger: sim::ChurnEngine escalates with
  // "pool-oversized" and reseeds from a fresh triangulation.
  mst::DelaunayEdgePool pool;
  pool.seed(star_edges(70), identity(71));  // 70 edges
  EXPECT_TRUE(pool.oversized(2)) << "70 > 6*2 + 32";
  EXPECT_FALSE(pool.oversized(10)) << "70 <= 6*10 + 32";
  // Reseeding replaces the bloated candidate set wholesale.
  pool.seed(star_edges(5), identity(6));
  EXPECT_EQ(pool.edges().size(), 5u);
  EXPECT_FALSE(pool.oversized(2));
}

TEST(EdgePool, DisconnectedCandidateSetThrowsForKruskal) {
  // A pool that lost connectivity cannot yield a spanning tree; Kruskal
  // over it throws the contract violation sim::ChurnEngine catches and
  // maps to the "pool-disconnected" full-rebuild escalation.
  const std::vector<geom::Point> pts{
      {0.0, 0.0}, {1.0, 0.0}, {10.0, 0.0}, {11.0, 0.0}};
  const std::vector<std::pair<int, int>> split{{0, 1}, {2, 3}};
  EXPECT_THROW(mst::kruskal_emst(pts, split), contract_violation);
  const std::vector<std::pair<int, int>> connected{{0, 1}, {1, 2}, {2, 3}};
  EXPECT_EQ(mst::kruskal_emst(pts, connected).edges.size(), 3u);
}

// Star representation: an inserted node keeps its v × members edges
// implicit until edges() is read.  Members 0..9 over a 10-cycle; node 9 is
// failed and recovered / node 3 moved to create stars.
std::vector<std::pair<int, int>> cycle_edges(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i) edges.emplace_back(i, (i + 1) % n);
  return edges;
}

TEST(EdgePool, SizeCountsStarsExactly) {
  mst::DelaunayEdgePool pool;
  std::vector<char> alive(10, 1);
  pool.seed(cycle_edges(10), identity(10));
  ASSERT_EQ(pool.size(), 10u);
  // Fail 9 (closure adds 0-8), recover it as a star, move 3 (erase adds
  // 2-4, re-insert as a second star).
  alive[9] = 0;
  pool.erase_node(9);
  alive[9] = 1;
  pool.insert_node(9, alive);
  pool.erase_node(3);
  pool.insert_node(3, alive);
  const std::size_t logical = pool.size();
  EXPECT_EQ(logical, pool.edges().size());
  // Explicit edges among the 8 non-star members: 0-1,1-2,2-4,4-5,5-6,6-7,
  // 7-8,0-8 = 8; stars 3 and 9 each reach the 8 others, plus the 3-9 pair.
  EXPECT_EQ(logical, 8u + 2u * 8u + 1u);
  EXPECT_EQ(pool.size(), logical) << "materialising must not change size()";
  for (int u = 0; u < 10; ++u) {
    if (u == 3) continue;
    const std::pair<int, int> e{std::min(u, 3), std::max(u, 3)};
    EXPECT_TRUE(std::binary_search(pool.edges().begin(), pool.edges().end(),
                                   e))
        << "star edge 3-" << u << " missing";
  }
}

TEST(EdgePool, EraseStarAboveCapInvalidates) {
  // A star's degree is members - 1: above the cap its erase invalidates,
  // at or below it the pool materialises and closes all pairs.
  std::vector<char> alive(10, 1);
  mst::DelaunayEdgePool tight(mst::EdgePoolConfig{8, 6.0, 32});
  tight.seed(cycle_edges(10), identity(10));
  tight.erase_node(4);
  tight.insert_node(4, alive);  // star of degree 9 > 8
  tight.erase_node(4);
  EXPECT_FALSE(tight.valid());

  mst::DelaunayEdgePool loose(mst::EdgePoolConfig{9, 6.0, 32});
  loose.seed(cycle_edges(10), identity(10));
  loose.erase_node(4);
  loose.insert_node(4, alive);  // degree 9 <= 9
  loose.erase_node(4);
  ASSERT_TRUE(loose.valid());
  EXPECT_EQ(loose.size(), 9u * 8u / 2u) << "closure is K9 on the survivors";
  EXPECT_EQ(loose.edges().size(), 9u * 8u / 2u);
}

TEST(EdgePool, NonStarEraseCountsStarsTowardCap) {
  // Node 5 has explicit degree 2 (cycle); every star is one more
  // neighbour.  Two stars: 4 <= cap 4 keeps the pool valid and adds only
  // the explicit pair 4-6; three stars: 5 > 4 invalidates.
  std::vector<char> alive(10, 1);
  for (const int stars : {2, 3}) {
    mst::DelaunayEdgePool pool(mst::EdgePoolConfig{4, 6.0, 32});
    pool.seed(cycle_edges(10), identity(10));
    for (int i = 0; i < stars; ++i) {
      // Moving 8, 7, 6 in turn: when 6 becomes a star its closure hands 5
      // the explicit edge 5-9, so 5's explicit degree stays 2.
      const int v = 8 - i;
      pool.erase_node(v);
      pool.insert_node(v, alive);
    }
    ASSERT_TRUE(pool.valid());
    const std::size_t before = pool.size();
    pool.erase_node(5);
    EXPECT_EQ(pool.valid(), stars == 2) << stars << " stars";
    if (stars == 2) {
      // -2 explicit, -2 star edges, +1 closure pair 4-6.
      EXPECT_EQ(pool.size(), before - 2 - 2 + 1);
      EXPECT_EQ(pool.size(), pool.edges().size());
    }
  }
}

TEST(EdgePool, BatchEraseCountsStarsTowardCap) {
  // Members 0..6; 0 and 1 neighbour only each other explicitly, so the
  // erased component {0, 1} has no explicit survivor: its whole boundary
  // is the stars (recovered nodes 7, 8, 9).  Two stars fit cap 2; three
  // invalidate.
  std::vector<std::pair<int, int>> edges{{0, 1}};
  for (int i = 2; i < 6; ++i) edges.emplace_back(i, i + 1);
  for (const int stars : {2, 3}) {
    mst::DelaunayEdgePool pool(mst::EdgePoolConfig{2, 6.0, 32});
    pool.seed(edges, identity(7));
    std::vector<char> alive(10, 0);
    std::fill(alive.begin(), alive.begin() + 7, 1);
    for (int v = 7; v < 7 + stars; ++v) {
      alive[v] = 1;
      pool.insert_node(v, alive);
    }
    ASSERT_TRUE(pool.valid());
    const std::size_t before = pool.size();
    alive[0] = alive[1] = 0;
    const std::vector<int> ws{0, 1};
    pool.erase_nodes(ws);
    EXPECT_EQ(pool.valid(), stars == 2) << stars << " stars";
    if (stars == 2) {
      // -1 explicit edge, -2 star edges per erased node, nothing added.
      EXPECT_EQ(pool.size(), before - 1 - 2 * 2);
      EXPECT_EQ(pool.size(), pool.edges().size());
    }
  }
}

TEST(EdgePool, SeedClearsStars) {
  std::vector<char> alive(10, 1);
  mst::DelaunayEdgePool pool;
  pool.seed(cycle_edges(10), identity(10));
  pool.erase_node(2);
  pool.insert_node(2, alive);
  ASSERT_GT(pool.size(), 10u);
  pool.seed(cycle_edges(10), identity(10));
  EXPECT_EQ(pool.size(), 10u);
  const std::vector<std::pair<int, int>> cycle{
      {0, 1}, {0, 9}, {1, 2}, {2, 3}, {3, 4},
      {4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9}};
  const auto edges = pool.edges();
  EXPECT_TRUE(std::equal(edges.begin(), edges.end(), cycle.begin(),
                         cycle.end()));
}

// ---------------------------------------------------------------------
// Engine-level parity + locality counters.
// ---------------------------------------------------------------------

void expect_matches_from_scratch(sim::ChurnEngine& eng,
                                 const core::ProblemSpec& spec, int threads,
                                 int batch) {
  std::vector<geom::Point> survivors;
  survivors.reserve(eng.compact_to_orig().size());
  for (int u : eng.compact_to_orig()) survivors.push_back(eng.positions()[u]);

  core::PlanSession fresh;
  fresh.set_threads(threads);
  const auto& ref = fresh.orient(survivors, spec);
  const auto& got = eng.last_result();
  ASSERT_EQ(static_cast<int>(survivors.size()), eng.alive_count());
  EXPECT_EQ(got.measured_radius, ref.measured_radius) << "batch " << batch;
  EXPECT_EQ(got.lmax, ref.lmax) << "batch " << batch;
  // The engine's plan is in original index space.
  const auto& orig_of = eng.compact_to_orig();
  for (int c = 0; c < eng.alive_count(); ++c) {
    ASSERT_TRUE(ref.orientation.node_equals(c, got.orientation, orig_of[c]))
        << "batch " << batch << " node " << c << " threads " << threads;
  }
  const auto& cert = fresh.certify(survivors, spec);
  const auto& cb = eng.last_report().certificate;
  EXPECT_EQ(cb.strongly_connected, cert.strongly_connected);
  EXPECT_EQ(cb.scc_count, cert.scc_count);
  EXPECT_EQ(cb.max_radius, cert.max_radius);
  EXPECT_EQ(cb.max_spread_sum, cert.max_spread_sum);
  EXPECT_EQ(cb.max_antennas, cert.max_antennas);
}

TEST(ChurnSublinear, AllMoveBatchesMatchFromScratchAtEveryThreadCount) {
  // 100% mobility: one node relocates per batch (delete+insert in the
  // pool, a detach/re-hang + position-dirty closure for the warm
  // orienter).  Each pool insert adds ~alive candidate edges, so sustained
  // movement periodically trips the oversized guard — escalation and
  // reseed are part of the sweep, and parity must hold straight through.
  const core::ProblemSpec spec{2, kPi};
  const auto pts = make_points(500, 9100);
  const int batches = 10;
  for_each_thread_count([&](int t) {
    sim::ChurnEngine eng;
    eng.set_threads(t);
    eng.init(pts, spec);
    bool saw_warm = false, saw_reseed = false;
    for (int b = 1; b <= batches; ++b) {
      // Deterministic single-move batch: node (97*b) mod n hops by a
      // small diagonal; every event is a kMove by construction.
      const int node = (97 * b) % static_cast<int>(pts.size());
      geom::Point to = eng.positions()[node];
      to.x += (b % 2 == 0 ? 0.013 : -0.009);
      to.y += 0.007;
      const std::vector<sim::ChurnEvent> events{
          {sim::ChurnEventKind::kMove, node, to}};
      const auto& rep = eng.step(events);
      ASSERT_EQ(static_cast<int>(rep.events.size()), 1);
      EXPECT_TRUE(rep.events[0].applied);
      saw_warm |= rep.warm_orient;
      saw_reseed |= rep.escalation != nullptr;
      expect_matches_from_scratch(eng, spec, t, b);
    }
    EXPECT_TRUE(saw_warm)
        << "move batches never reached the warm frontier orienter";
    EXPECT_TRUE(saw_reseed)
        << "sustained moves were expected to trip the oversized reseed";
  });
}

// The exact affected region of a fail-only localized step, from scratch:
// on the EMST of the alive set the step started from, the failed nodes cut
// the tree into fragments; the repair touches the failed nodes, the
// fragment seeds (their surviving tree neighbours), every node of every
// fragment but the largest, and two endpoints per reconnecting edge.
int fragment_region_oracle(const std::vector<geom::Point>& positions,
                           const std::vector<char>& alive_before,
                           const std::vector<int>& failed) {
  const int n = static_cast<int>(positions.size());
  std::vector<int> orig_of;
  std::vector<geom::Point> compact;
  for (int u = 0; u < n; ++u) {
    if (!alive_before[u]) continue;
    orig_of.push_back(u);
    compact.push_back(positions[u]);
  }
  const mst::Tree tree = mst::emst(compact);
  std::vector<std::vector<int>> adj(n);
  for (const auto& e : tree.edges) {
    adj[orig_of[e.u]].push_back(orig_of[e.v]);
    adj[orig_of[e.v]].push_back(orig_of[e.u]);
  }
  std::vector<char> gone(n, 0);
  for (int w : failed) gone[w] = 1;
  std::vector<int> seeds;
  for (int w : failed) {
    for (int x : adj[w]) {
      if (!gone[x]) seeds.push_back(x);
    }
  }
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  const int base = static_cast<int>(failed.size() + seeds.size());
  std::vector<char> seen(n, 0);
  int fragments = 0, total = 0, largest = 0;
  for (int s : seeds) {
    if (seen[s]) continue;
    ++fragments;
    std::vector<int> queue{s};
    seen[s] = 1;
    for (size_t i = 0; i < queue.size(); ++i) {
      for (int y : adj[queue[i]]) {
        if (gone[y] || seen[y]) continue;
        seen[y] = 1;
        queue.push_back(y);
      }
    }
    const int size = static_cast<int>(queue.size());
    total += size;
    largest = std::max(largest, size);
  }
  if (fragments <= 1) return base;
  return base + (total - largest) + 2 * (fragments - 1);
}

TEST(ChurnSublinear, LocalizedPathCoversSmallFailBatches) {
  // The locality contract: under small-batch attrition (<= 8 events — the
  // workload the sub-linear path exists for), >= 90% of steps must stay on
  // BOTH warm layers — localized MST repair (no pool Kruskal) and the warm
  // frontier orienter (no O(n) sweep).  The only permitted exception is
  // the first batch (rung 2: its pool Kruskal seeds the repair layer).
  // Every localized step's region is exactly what the failures cut off
  // the tree apart from its largest fragment (the from-scratch fragment
  // oracle above), never a walk over the whole tree.
  const core::ProblemSpec spec{2, kPi};
  const auto pts = make_points(10000, 777);
  sim::ChurnEngine eng;
  eng.init(pts, spec);
  const int batches = 30;
  int small_batches = 0, warm_localized = 0;
  std::vector<sim::ChurnEvent> events;
  std::vector<int> failed;
  for (int b = 1; b <= batches; ++b) {
    events.clear();
    eng.poisson_schedule(321, b, 0.0005, 0.0, 0.0, 0.0, events);
    const std::vector<char> alive_before = eng.alive();
    const auto& rep = eng.step(events);
    failed.clear();
    for (const auto& ev : rep.events) {
      if (ev.applied) failed.push_back(ev.event.node);
    }
    const int applied = static_cast<int>(failed.size());
    if (applied <= 8) ++small_batches;
    if (rep.localized_mst && rep.warm_orient) {
      if (applied <= 8) ++warm_localized;
      EXPECT_GT(rep.mst_region, 0);
      EXPECT_EQ(rep.mst_region,
                fragment_region_oracle(eng.positions(), alive_before, failed))
          << "batch " << b;
      EXPECT_LE(rep.orient_planned, 64)
          << "warm re-plan left the affected frontier";
    }
    EXPECT_TRUE(rep.certificate.ok()) << "batch " << b;
  }
  ASSERT_GE(small_batches, batches / 2)
      << "schedule drifted out of the small-batch regime";
  EXPECT_GE(10 * warm_localized, 9 * small_batches)
      << "sub-linear path covered fewer than 90% of small-batch steps";
}

TEST(ChurnSublinear, WarmStepCountersSmoke) {
  // Counter-level smoke for the steady state: small fail batches must
  // report the whole sub-linear ladder — localized repair ran
  // (localized_mst, mst_region > 0), the warm frontier orienter produced
  // the plan (warm_orient, equal to incremental_orient), and only a
  // handful of vertices were re-planned.  Batch 1 takes rung 2 (the repair
  // layer is seeded by its pool Kruskal), but the warm orienter already
  // runs there, from the memory init recorded.
  const core::ProblemSpec spec{2, kPi};
  const auto pts = make_points(300, 2026);
  sim::ChurnEngine eng;
  eng.init(pts, spec);
  for (int b = 1; b <= 6; ++b) {
    // One deterministic fail per batch (distinct, initially-alive ids).
    const std::vector<sim::ChurnEvent> events{
        {sim::ChurnEventKind::kFail, 10 * b, {}}};
    const auto& rep = eng.step(events);
    ASSERT_TRUE(rep.events[0].applied) << "batch " << b;
    ASSERT_EQ(rep.escalation, nullptr) << "batch " << b;
    EXPECT_TRUE(rep.incremental_orient) << "batch " << b;
    EXPECT_TRUE(rep.warm_orient) << "batch " << b;
    EXPECT_GT(rep.orient_planned, 0) << "batch " << b;
    EXPECT_LT(rep.orient_planned, 64) << "batch " << b;
    if (b == 1) {
      EXPECT_FALSE(rep.localized_mst);
      EXPECT_STREQ(rep.mst_fallback, "mst-unseeded");
    } else {
      EXPECT_TRUE(rep.localized_mst) << "batch " << b;
      EXPECT_GT(rep.mst_region, 0) << "batch " << b;
    }
  }
}

TEST(ChurnSublinear, OversizedPoolReseedsAndRecovers) {
  // A recover wave inserts ~alive candidate edges per node and blows the
  // pool past its size guard; the engine must escalate with
  // "pool-oversized", reseed from a fresh triangulation, and return to
  // the incremental path on the next light batch — with exact parity
  // throughout.
  const core::ProblemSpec spec{2, kPi};
  const auto pts = make_points(150, 5150);
  sim::ChurnEngine eng;
  eng.init(pts, spec);
  bool saw_oversized = false;
  std::vector<sim::ChurnEvent> events;
  for (int b = 1; b <= 4; ++b) {
    events.clear();
    if (b == 1) {
      eng.poisson_schedule(55, b, 0.2, 0.0, 0.0, 0.0, events);  // attrition
    } else if (b == 2) {
      eng.poisson_schedule(55, b, 0.0, 0.9, 0.0, 0.0, events);  // recover wave
    } else {
      eng.poisson_schedule(55, b, 0.01, 0.0, 0.0, 0.0, events);  // light
    }
    const auto& rep = eng.step(events);
    if (rep.escalation != nullptr) {
      saw_oversized |= std::string_view(rep.escalation) == "pool-oversized";
    }
    expect_matches_from_scratch(eng, spec, 1, b);
  }
  EXPECT_TRUE(saw_oversized) << "recover wave never tripped the size guard";
  EXPECT_EQ(eng.last_report().escalation, nullptr)
      << "engine did not return to the incremental path after the reseed";
  EXPECT_TRUE(eng.last_report().incremental_plan);
}

TEST(ChurnSublinear, LightInsertBatchesConsumeStarsAtEveryThreadCount) {
  // Inserted nodes live in the pool as implicit stars and are written out
  // only when rung 1 or rung 2 reads the candidate edges.  Light batches of
  // 1-3 recovers/moves at n=2000 keep the pool valid and (on a fresh pool)
  // under its size guard, so the stars are actually consumed by a
  // non-escalating step — each checked against a from-scratch plan.
  const core::ProblemSpec spec{2, kPi};
  const int n = 2000;
  const auto pts = make_points(n, 4711);
  const int batches = 12;
  for_each_thread_count([&](int t) {
    sim::ChurnEngine eng;
    eng.set_threads(t);
    eng.init(pts, spec);
    // Batch 1: fail 40 fixed nodes so the recovers below have targets.
    std::vector<sim::ChurnEvent> events;
    for (int i = 0; i < 40; ++i) {
      events.push_back({sim::ChurnEventKind::kFail, 50 * i + 7, {}});
    }
    eng.step(events);
    expect_matches_from_scratch(eng, spec, t, 1);
    int star_steps = 0, rung1_steps = 0;
    bool fresh_pool = eng.last_report().escalation != nullptr;
    for (int b = 2; b <= batches; ++b) {
      events.clear();
      const int count = 1 + b % 3;
      for (int i = 0; i < count; ++i) {
        if ((b + i) % 2 == 0) {
          events.push_back({sim::ChurnEventKind::kRecover,
                            50 * (3 * b + i) % 2000 + 7, {}});
        } else {
          const int node = (131 * b + 17 * i) % n;
          geom::Point to = eng.positions()[node];
          to.x += 0.004;
          to.y -= 0.003;
          events.push_back({sim::ChurnEventKind::kMove, node, to});
        }
      }
      const auto& rep = eng.step(events);
      int inserts = 0;
      for (const auto& ev : rep.events) inserts += ev.applied ? 1 : 0;
      ASSERT_GT(inserts, 0) << "batch " << b;
      if (rep.escalation != nullptr) {
        // The only permitted reason: stars left by earlier batches grew
        // the pool past its guard.
        EXPECT_STREQ(rep.escalation, "pool-oversized") << "batch " << b;
        EXPECT_FALSE(fresh_pool)
            << "a freshly seeded pool escalated on <= 3 inserts, batch " << b;
      } else {
        EXPECT_TRUE(rep.incremental_plan);
        ++star_steps;
        rung1_steps += rep.localized_mst ? 1 : 0;
      }
      fresh_pool = rep.escalation != nullptr;
      expect_matches_from_scratch(eng, spec, t, b);
    }
    EXPECT_GE(star_steps, batches / 3)
        << "too few non-escalating steps consumed stars (threads " << t << ")";
    EXPECT_GT(rung1_steps, 0) << "localized repair never read the stars";
    EXPECT_LT(rung1_steps, star_steps) << "pool Kruskal never read the stars";
  });
}

// The warm orienter's global gates for the engine's current plan: lmax
// (it sets the radius cap) and the root, the smallest leaf of the tree
// (the sweep roots there), in original ids.
std::pair<double, int> plan_gates(sim::ChurnEngine& eng,
                                  const core::ProblemSpec& spec) {
  std::vector<geom::Point> survivors;
  for (int u : eng.compact_to_orig()) survivors.push_back(eng.positions()[u]);
  core::PlanSession fresh;
  fresh.orient(survivors, spec);
  std::vector<int> deg;
  fresh.last_tree().degrees_into(deg);
  const auto leaf = std::find(deg.begin(), deg.end(), 1) - deg.begin();
  return {fresh.last_result().lmax, eng.compact_to_orig()[leaf]};
}

TEST(ChurnSublinear, PoolKruskalBatchesStayWarm) {
  // Every fresh sweep records the plan memory, and rung 2 hands the warm
  // orienter the net diff from the recorded tree to its Kruskal tree.  So
  // a rung-2 batch — the first batch after an escalation among them —
  // re-plans only its region, unless lmax or the root changed: those
  // gates send it to the fresh sweep by design.  ~1% attrition at n=2000
  // stays on rung 1 after its cold batch (the repair walks exact
  // fragments, with no region cap), so that batch is its rung-2 case;
  // moves grow the pool past its size guard every few batches, so
  // escalations and their rung-2 successors alternate.
  struct Schedule {
    const char* name;
    double fail_rate, move_rate, move_radius;
  };
  const Schedule schedules[] = {{"attrition", 0.01, 0.0, 0.0},
                                {"moves", 0.0, 0.002, 0.01}};
  const core::ProblemSpec spec{2, kPi};
  const int n = 2000, batches = 12;
  const auto pts = make_points(n, 4711);
  for (const auto& sched : schedules) {
    for_each_thread_count([&](int t) {
      sim::ChurnEngine eng;
      eng.set_threads(t);
      eng.init(pts, spec);
      auto gates = plan_gates(eng, spec);
      bool escalated = false;
      int rung2 = 0, warm_rung2 = 0, warm_after_escalation = 0;
      std::vector<sim::ChurnEvent> events;
      for (int b = 1; b <= batches; ++b) {
        events.clear();
        eng.poisson_schedule(4711, b, sched.fail_rate, 0.0, sched.move_rate,
                             sched.move_radius, events);
        const auto& rep = eng.step(events);
        expect_matches_from_scratch(eng, spec, t, b);
        const auto now = plan_gates(eng, spec);
        EXPECT_EQ(rep.incremental_orient, rep.warm_orient) << "batch " << b;
        if (rep.escalation == nullptr && !rep.localized_mst) {
          ++rung2;
          if (now == gates) {
            EXPECT_TRUE(rep.warm_orient)
                << sched.name << " batch " << b << " threads " << t;
            EXPECT_LT(rep.orient_planned, rep.alive)
                << sched.name << " batch " << b << " threads " << t;
          }
          warm_rung2 += rep.warm_orient ? 1 : 0;
          warm_after_escalation += escalated && rep.warm_orient ? 1 : 0;
        }
        escalated = rep.escalation != nullptr;
        gates = now;
      }
      EXPECT_GE(2 * warm_rung2, rung2)
          << sched.name << ": most rung-2 batches should keep their gates";
      EXPECT_GT(warm_rung2, 0) << sched.name << " threads " << t;
      if (sched.move_rate > 0.0) {
        EXPECT_GT(warm_after_escalation, 0)
            << "no batch after an escalation stayed warm, threads " << t;
      }
    });
  }
}

// ---------------------------------------------------------------------
// Insertions through the engine's live grid: the repair layer's nearest-
// neighbour and candidate-disk queries read the grid the event loop keeps
// current, so they must stay exact where that grid is at its least fresh.
// ---------------------------------------------------------------------

TEST(ChurnSublinear, InsertsThroughTheLiveGridMatchFromScratch) {
  // A uniform field plus a dense cluster.  Recovers and moves land outside
  // the live grid's bounding box (the grid loses its fresh geometry and
  // they clamp into edge and corner cells), and a recover inside the
  // cluster holds more than 256 tree nodes in its candidate disk
  // ("mst-candidates", rung 2).  Every step equals from scratch: plan
  // rows, CSR rows, transpose and certificate, at 1 and 4 threads.
  const core::ProblemSpec spec{2, kPi};
  const int n = 2000, cluster = 300;
  auto pts = make_points(n, 4711);
  geom::Rng rng(77);
  std::uniform_real_distribution<double> jitter(-0.05, 0.05);
  const double mid = 0.5 * std::sqrt(static_cast<double>(n));
  for (int i = 0; i < cluster; ++i) {
    pts.push_back({mid + 3.0 + jitter(rng), mid + jitter(rng)});
  }
  const auto by = [&](auto key) {
    return static_cast<int>(
        std::max_element(pts.begin(), pts.end(),
                         [&](const geom::Point& a, const geom::Point& b) {
                           return key(a) < key(b);
                         }) -
        pts.begin());
  };
  const int east = by([](const geom::Point& p) { return p.x; });
  const int north = by([](const geom::Point& p) { return p.y; });
  const int west = by([](const geom::Point& p) { return -p.x; });
  const geom::Point ne{pts[east].x, pts[north].y};
  const int inner = n + cluster / 2;
  using K = sim::ChurnEventKind;
  std::vector<sim::ChurnEvent> seed_batch;
  for (int i = 0; i < 40; ++i) {
    const int u = 50 * i + 7;
    if (u != east && u != north && u != west) {
      seed_batch.push_back({K::kFail, u, {}});
    }
  }
  seed_batch.push_back({K::kFail, east, {}});
  seed_batch.push_back({K::kFail, north, {}});
  seed_batch.push_back({K::kFail, inner, {}});
  // Each insert leaves ~alive edges in the candidate pool, and the third
  // one since init seeded it trips its size guard: batch 4 escalates (the
  // pool reseeds from a fresh triangulation) and the fail after it seeds
  // the repair layer again (rung 2), so the remaining inserts run warm.
  // Batch 1 fails the east and north extremes, and its row patch re-indexes
  // the live grid without them, so their recovers land outside its box.
  const std::vector<std::vector<sim::ChurnEvent>> batches = {
      seed_batch,
      {{K::kRecover, inner, {}}},
      {{K::kRecover, east, {}}},
      {{K::kRecover, 107, {}}},
      {{K::kFail, 333, {}}},
      {{K::kMove, 1001, {ne.x + 0.3, ne.y + 0.3}}},
      {{K::kRecover, north, {}}},
      {{K::kMove, west, {pts[west].x - 0.4, pts[west].y}}},
  };
  for (const int t : {1, 4}) {
    std::unique_ptr<dirant::par::ThreadPool> pool;
    if (t > 1) pool = std::make_unique<dirant::par::ThreadPool>(t);
    sim::ChurnEngine eng;
    eng.set_threads(t);
    eng.init(pts, spec);
    for (size_t b = 0; b < batches.size(); ++b) {
      const auto& rep = eng.step(batches[b]);
      const int batch = static_cast<int>(b) + 1;
      for (const auto& ev : rep.events) {
        ASSERT_TRUE(ev.applied) << "batch " << batch;
      }
      if (batch == 2) {
        EXPECT_STREQ(rep.mst_fallback, "mst-candidates") << "threads " << t;
      } else if (batch == 4) {
        EXPECT_STREQ(rep.escalation, "pool-oversized") << "batch " << batch;
      } else if (batches[b][0].kind != K::kFail) {
        EXPECT_TRUE(rep.localized_mst) << "batch " << batch << " threads "
                                       << t;
      }
      dirant::test::expect_matches_compact_build(eng, spec, t, pool.get(),
                                                 batch);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------
// Big cuts: failures that split the tree (and the certified digraph) into
// large pieces.  Before the repair layer read exact fragment sizes off its
// Euler tours, these steps fell into an O(n) relabel of the whole tree, and
// before anchorage walks memoized negative verdicts, fails next to the hub
// exhausted the certificate's graft budget.
// ---------------------------------------------------------------------

// Fail up to `count` out-neighbours of the certificate's hub (the smallest
// alive id): each one roots a large out-subtree.
void hub_neighbour_fails(const sim::ChurnEngine& eng, int count,
                         std::vector<sim::ChurnEvent>& out) {
  int hub = 0;
  while (!eng.alive()[hub]) ++hub;
  for (int t : eng.certified_digraph().out(hub)) {
    if (count-- == 0) break;
    out.push_back({sim::ChurnEventKind::kFail, t, {}});
  }
}

TEST(ChurnSublinear, BigCutSchedulesMatchFromScratch) {
  // Three schedules whose steps cut off thousands of nodes: the highest
  // tree degrees (adversarial_schedule), poisson attrition at rate 6/n
  // (the churn_small_50k workload's, at smaller n) and the hub's
  // out-neighbours.  Each step's plan and certificate must equal a fresh
  // plan's, its pre-repair audit the frozen-copy Tarjan reference's, and
  // the step must stay on the localized repair.  The schedules include
  // steps that used to relabel the whole tree (adversarial n=5000 steps 3,
  // 5, 10; poisson n=5000 steps 4, 6, 9; adversarial n=20000 step 7).
  struct Case {
    int n, steps, mode;  // mode 0 poisson, 1 adversarial, 2 hub neighbours
  };
  const Case cases[] = {{5000, 10, 1}, {5000, 10, 0}, {20000, 7, 1},
                        {5000, 8, 2}};
  const core::ProblemSpec spec{2, kPi};
  for (const Case& c : cases) {
    const auto pts = make_points(c.n, 3);
    sim::ChurnEngine eng;
    eng.init(pts, spec);
    std::vector<sim::ChurnEvent> events;
    int big = 0;
    for (int b = 1; b <= c.steps; ++b) {
      events.clear();
      if (c.mode == 0) {
        eng.poisson_schedule(22, b, 6.0 / c.n, 0.0, 0.0, 0.0, events);
      } else if (c.mode == 1) {
        eng.adversarial_schedule(2, events);
      } else {
        hub_neighbour_fails(eng, 2, events);
      }
      const auto prev = dirant::test::certified_rows(eng);
      const auto& rep = eng.step(events);
      const auto want = dirant::test::reference_frozen_audit(prev, eng, false);
      EXPECT_EQ(rep.degraded.largest_scc, want.largest_scc)
          << "n " << c.n << " mode " << c.mode << " step " << b;
      EXPECT_EQ(rep.degraded.stranded, want.stranded)
          << "n " << c.n << " mode " << c.mode << " step " << b;
      big += rep.degraded.stranded.size() >= 500 ? 1 : 0;
      if (b > 1) {
        EXPECT_TRUE(rep.localized_mst)
            << "n " << c.n << " mode " << c.mode << " step " << b;
      }
      expect_matches_from_scratch(eng, spec, 1, b);
      if (HasFatalFailure()) return;
    }
    EXPECT_GT(big, 0) << "n " << c.n << " mode " << c.mode
                      << ": no step cut off a large piece";
  }
}

TEST(ChurnSublinear, HubNeighbourFailsKeepTheCertificate) {
  // Failing the hub's out-neighbours orphans big out-subtrees whose
  // re-anchoring runs through long unanchored chains.  Walking such a
  // chain again for every candidate parent exhausted the graft's walk
  // budget on steps 11-13 and 15 of this schedule, which then paid a full
  // SCC pass and a tree rebuild; with negative verdicts memoized until the
  // next attachment, every step re-certifies from the frontier.
  const core::ProblemSpec spec{2, kPi};
  const auto pts = make_points(5000, 3);
  sim::ChurnEngine eng;
  eng.init(pts, spec);
  std::vector<sim::ChurnEvent> events;
  for (int b = 1; b <= 15; ++b) {
    events.clear();
    hub_neighbour_fails(eng, 2, events);
    const auto& rep = eng.step(events);
    EXPECT_TRUE(rep.cert_reused) << "step " << b;
    EXPECT_TRUE(rep.certificate.ok()) << "step " << b;
  }
}

TEST(ChurnSublinear, WarmOrienterWeldsALongDetachedChain) {
  // A spine c_0 … c_{L-1} (unit spacing, tiny jitter), a point Z three
  // units above c_1 that fixes lmax, and P two-node teeth x_i → t_i
  // hanging above the spine far right of c_k.  One batch fails c_k and
  // every x_i: the spine right of c_k is a long detached chain, every t_i
  // a singleton, and each added edge (c_j, t_i) waits in Phase B until
  // the weld (c_{k-1}, c_{k+1}), listed last, anchors the chain.  Ids
  // run from the chain's far end inwards, so the deepest c_j come first.
  // Re-walking the chain for every pending edge costs ~P²·spacing/2 steps,
  // over the orienter's 4n + 1024 budget (it tore and re-planned fresh);
  // memoized negative verdicts walk it once per weld.
  const int k = 10, P = 60, spacing = 30;
  const int L = k + spacing * (P + 1);
  const int n = L + 1 + 2 * P;
  std::vector<geom::Point> pts(n);
  const auto spine = [](int p) {
    return geom::Point{static_cast<double>(p), 0.01 * std::sin(1.7 * p)};
  };
  pts[0] = spine(0);
  for (int p = k + 1; p < L; ++p) pts[L - p] = spine(p);
  for (int p = 1; p <= k; ++p) pts[L - k - 1 + p] = spine(p);
  pts[L] = geom::Point{1.003, 3.0};
  std::vector<sim::ChurnEvent> fails{
      {sim::ChurnEventKind::kFail, L - 1, {}}};  // c_k
  for (int i = 0; i < P; ++i) {
    const double x = k + spacing * (i + 1) + 0.003;
    pts[L + 1 + 2 * i] = geom::Point{x, 0.6};
    pts[L + 2 + 2 * i] = geom::Point{x + 0.002, 1.2};
    fails.push_back({sim::ChurnEventKind::kFail, L + 1 + 2 * i, {}});
  }
  const core::ProblemSpec spec{2, kPi};
  sim::ChurnEngine eng;
  eng.init(pts, spec);
  const double lmax = eng.last_result().lmax;
  eng.step({});  // rung 2 seeds the repair layer
  const auto& rep = eng.step(fails);
  ASSERT_EQ(rep.alive, n - 1 - P);
  EXPECT_EQ(eng.last_result().lmax, lmax) << "Z no longer fixes lmax";
  EXPECT_TRUE(rep.localized_mst);
  EXPECT_TRUE(rep.warm_orient) << "the warm orienter tore on the long chain";
  expect_matches_from_scratch(eng, spec, 1, 2);
}

}  // namespace
