// sim::ChurnEngine — the churn acceptance suite.  The two pillars:
//
//   * Parity: after EVERY fail/recover/move batch, the engine's oriented
//     sectors and certificate are bit-identical to a from-scratch
//     PlanSession::orient() + certify() over the surviving point set, at
//     every thread count — the incremental paths (pool-Kruskal EMST, row
//     patching) are exact accelerations, never approximations.
//   * Determinism: the same seed + schedule replays to a bit-identical
//     event log, degraded report, dirty set, certificate, and certified
//     CSR at 1/2/4/8 threads (scripts/check.sh runs this suite under asan
//     and tsan with DIRANT_TEST_THREADS=4).
//
// Plus the graceful-degradation contract (adversarial kills report
// coverage instead of throwing), event validation, and the schedule
// generators.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "common/constants.hpp"
#include "core/session.hpp"
#include "core/validate.hpp"
#include "geometry/generators.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/churn.hpp"
#include "churn_parity.hpp"
#include "thread_counts.hpp"

namespace geom = dirant::geom;
namespace core = dirant::core;
namespace sim = dirant::sim;
using dirant::kPi;
using dirant::test::expect_matches_compact_build;
using dirant::test::for_each_thread_count;

namespace {

std::vector<geom::Point> make_points(int n, int seed) {
  geom::Rng rng(seed);
  return geom::make_instance(geom::Distribution::kUniformSquare, n, rng);
}

void expect_certificates_equal(const core::Certificate& a,
                               const core::Certificate& b,
                               const char* what) {
  EXPECT_EQ(a.strongly_connected, b.strongly_connected) << what;
  EXPECT_EQ(a.scc_count, b.scc_count) << what;
  EXPECT_EQ(a.max_radius, b.max_radius) << what;
  EXPECT_EQ(a.max_spread_sum, b.max_spread_sum) << what;
  EXPECT_EQ(a.max_antennas, b.max_antennas) << what;
  EXPECT_EQ(a.spread_within_budget, b.spread_within_budget) << what;
  EXPECT_EQ(a.antennas_within_k, b.antennas_within_k) << what;
  EXPECT_EQ(a.radius_within_bound, b.radius_within_bound) << what;
}

// The acceptance check: a fresh session planning the survivor set from
// scratch must agree with the engine bit for bit — sectors, result
// metrics, and certificate.
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
  EXPECT_EQ(got.algorithm, ref.algorithm) << "batch " << batch;
  EXPECT_EQ(got.lmax, ref.lmax) << "batch " << batch;
  EXPECT_EQ(got.measured_radius, ref.measured_radius) << "batch " << batch;
  EXPECT_EQ(got.bound_factor, ref.bound_factor) << "batch " << batch;
  // The engine's plan is in original index space.
  const auto& orig_of = eng.compact_to_orig();
  for (int c = 0; c < eng.alive_count(); ++c) {
    ASSERT_TRUE(ref.orientation.node_equals(c, got.orientation, orig_of[c]))
        << "batch " << batch << " node " << c << " threads " << threads;
  }
  const auto& cert = fresh.certify(survivors, spec);
  expect_certificates_equal(eng.last_report().certificate, cert,
                            "certificate vs from-scratch");
}

// One deterministic mixed workload: light fail/recover batches (the
// incremental sweet spot), an adversarial articulation kill, a heavy
// churn batch with moves (blows the candidate pool up -> escalation), and
// a recover wave.
std::vector<sim::ChurnEvent> schedule_for(sim::ChurnEngine& eng, int batch) {
  std::vector<sim::ChurnEvent> events;
  switch (batch) {
    case 4:
      eng.adversarial_schedule(6, events);
      break;
    case 5:  // heavy: fails + moves
      eng.poisson_schedule(99, batch, 0.25, 0.2, 0.03, 0.05, events);
      break;
    case 6:  // recover wave
      eng.poisson_schedule(99, batch, 0.0, 0.9, 0.0, 0.0, events);
      break;
    default:  // light churn, no moves: keeps the pool lean
      eng.poisson_schedule(99, batch, 0.015, 0.3, 0.0, 0.0, events);
      break;
  }
  return events;
}

TEST(Churn, MatchesFromScratchEveryBatchAndThreadCount) {
  const core::ProblemSpec spec{2, kPi};
  const auto pts = make_points(600, 4200);
  for_each_thread_count([&](int t) {
    sim::ChurnEngine eng;
    eng.set_threads(t);
    eng.init(pts, spec);
    expect_matches_from_scratch(eng, spec, t, 0);
    bool saw_incremental = false, saw_escalated = false;
    for (int b = 1; b <= 8; ++b) {
      const auto events = schedule_for(eng, b);
      const auto& rep = eng.step(events);
      saw_incremental |= rep.incremental_plan && rep.incremental_digraph;
      saw_escalated |= rep.escalation != nullptr;
      expect_matches_from_scratch(eng, spec, t, b);
    }
    // The workload must exercise BOTH paths or the parity above is vacuous.
    EXPECT_TRUE(saw_incremental) << "threads=" << t;
    EXPECT_TRUE(saw_escalated) << "threads=" << t;
  });
}

// Everything one run produced, copied out for comparison.
struct RunTrace {
  std::vector<sim::StepReport> reports;
  std::vector<std::vector<std::vector<int>>> csr_rows;  ///< per batch
};

RunTrace run_workload(const std::vector<geom::Point>& pts,
                      const core::ProblemSpec& spec, int threads,
                      const sim::ChurnOptions& opts) {
  sim::ChurnEngine eng;
  eng.set_threads(threads);
  RunTrace trace;
  auto snapshot = [&] {
    trace.reports.push_back(eng.last_report());
    std::vector<std::vector<int>> rows;
    const auto& g = eng.certified_digraph();
    for (int u = 0; u < g.size(); ++u) {
      rows.emplace_back(g.out(u).begin(), g.out(u).end());
    }
    trace.csr_rows.push_back(std::move(rows));
  };
  eng.init(pts, spec, opts);
  snapshot();
  for (int b = 1; b <= 8; ++b) {
    eng.step(schedule_for(eng, b));
    snapshot();
  }
  return trace;
}

TEST(Churn, BitIdenticalAcrossThreadCounts) {
  const core::ProblemSpec spec{2, kPi};
  const auto pts = make_points(300, 777);
  sim::ChurnOptions opts;
  opts.probe_k_level = true;  // the probe must be thread-independent too
  const RunTrace ref = run_workload(pts, spec, 1, opts);
  for_each_thread_count([&](int t) {
    const RunTrace got = run_workload(pts, spec, t, opts);
    ASSERT_EQ(got.reports.size(), ref.reports.size());
    for (size_t b = 0; b < ref.reports.size(); ++b) {
      const auto& r = ref.reports[b];
      const auto& g = got.reports[b];
      EXPECT_EQ(g.batch, r.batch);
      EXPECT_EQ(g.alive, r.alive) << "batch " << b << " threads " << t;
      ASSERT_EQ(g.events.size(), r.events.size()) << "batch " << b;
      for (size_t i = 0; i < r.events.size(); ++i) {
        EXPECT_EQ(g.events[i].applied, r.events[i].applied)
            << "batch " << b << " event " << i;
        EXPECT_EQ(g.events[i].event.node, r.events[i].event.node);
        EXPECT_EQ(g.events[i].event.kind, r.events[i].event.kind);
        EXPECT_EQ(g.events[i].event.to.x, r.events[i].event.to.x);
        EXPECT_EQ(g.events[i].event.to.y, r.events[i].event.to.y);
      }
      EXPECT_EQ(g.degraded.degraded, r.degraded.degraded) << "batch " << b;
      EXPECT_EQ(g.degraded.coverage_fraction, r.degraded.coverage_fraction)
          << "batch " << b << " threads " << t;
      EXPECT_EQ(g.degraded.largest_scc, r.degraded.largest_scc);
      EXPECT_EQ(g.degraded.k_level, r.degraded.k_level) << "batch " << b;
      EXPECT_EQ(g.degraded.stranded, r.degraded.stranded) << "batch " << b;
      EXPECT_EQ(g.suggested_repair, r.suggested_repair) << "batch " << b;
      EXPECT_EQ(g.dirty_fraction, r.dirty_fraction) << "batch " << b;
      EXPECT_EQ(g.incremental_plan, r.incremental_plan) << "batch " << b;
      EXPECT_EQ(g.incremental_digraph, r.incremental_digraph)
          << "batch " << b;
      // Escalation reasons are static strings; compare the text.
      EXPECT_EQ(g.escalation == nullptr, r.escalation == nullptr)
          << "batch " << b;
      if (g.escalation != nullptr && r.escalation != nullptr) {
        EXPECT_STREQ(g.escalation, r.escalation) << "batch " << b;
      }
      expect_certificates_equal(g.certificate, r.certificate,
                                "across thread counts");
      // The certified CSR itself: same rows, same order, same bytes.
      EXPECT_EQ(got.csr_rows[b], ref.csr_rows[b])
          << "batch " << b << " threads " << t;
    }
  });
}

TEST(Churn, AdversarialKillDegradesGracefullyThenRecertifies) {
  const core::ProblemSpec spec{2, kPi};
  const auto pts = make_points(120, 31);
  sim::ChurnEngine eng;
  const auto& init_rep = eng.init(pts, spec);
  ASSERT_TRUE(init_rep.certificate.ok());
  EXPECT_FALSE(init_rep.degraded.degraded);

  std::vector<sim::ChurnEvent> kill;
  eng.adversarial_schedule(6, kill);
  ASSERT_EQ(kill.size(), 6u);
  const auto& rep = eng.step(kill);

  // Killing the spanning tree's busiest internal nodes tears the frozen
  // survivor graph apart: the engine reports the damage instead of
  // throwing.
  EXPECT_TRUE(rep.degraded.degraded);
  EXPECT_LT(rep.degraded.coverage_fraction, 1.0);
  EXPECT_GT(rep.degraded.coverage_fraction, 0.0);
  EXPECT_FALSE(rep.degraded.stranded.empty());
  EXPECT_EQ(rep.degraded.largest_scc +
                static_cast<int>(rep.degraded.stranded.size()),
            rep.alive);
  // ...and the re-plan over the survivors certifies again.
  EXPECT_TRUE(rep.certificate.ok());
  EXPECT_FALSE(rep.suggested_repair.empty());
}

TEST(Churn, MovedNodeIsConservativelyStrandedBeforeReplan) {
  const core::ProblemSpec spec{2, kPi};
  const auto pts = make_points(60, 8);
  sim::ChurnEngine eng;
  eng.init(pts, spec);
  geom::Point to = eng.positions()[7];
  to.x += 0.01;
  const std::vector<sim::ChurnEvent> batch{
      {sim::ChurnEventKind::kMove, 7, to}};
  const auto& rep = eng.step(batch);
  // The frozen audit cannot vouch for a node whose sectors aim at its old
  // neighbourhood: a pure-move batch reads degraded by design.
  EXPECT_TRUE(rep.degraded.degraded);
  EXPECT_NE(std::find(rep.degraded.stranded.begin(),
                      rep.degraded.stranded.end(), 7),
            rep.degraded.stranded.end());
  EXPECT_TRUE(rep.certificate.ok());  // post-replan all is well again
  EXPECT_EQ(eng.positions()[7].x, to.x);
}

TEST(Churn, NoOpBatchKeepsEverything) {
  const core::ProblemSpec spec{2, kPi};
  const auto pts = make_points(200, 55);
  sim::ChurnEngine eng;
  const auto init_cert = eng.init(pts, spec).certificate;
  const auto& g0 = eng.certified_digraph();
  std::vector<std::vector<int>> rows0;
  for (int u = 0; u < g0.size(); ++u) {
    rows0.emplace_back(g0.out(u).begin(), g0.out(u).end());
  }

  const auto& rep = eng.step({});
  EXPECT_TRUE(rep.incremental_plan);
  EXPECT_TRUE(rep.incremental_digraph);
  EXPECT_EQ(rep.escalation, nullptr);
  EXPECT_EQ(rep.dirty_fraction, 0.0);
  EXPECT_TRUE(rep.suggested_repair.empty());
  EXPECT_FALSE(rep.degraded.degraded);
  EXPECT_EQ(rep.degraded.coverage_fraction, 1.0);
  expect_certificates_equal(rep.certificate, init_cert, "no-op batch");
  const auto& g1 = eng.certified_digraph();
  ASSERT_EQ(g1.size(), g0.size());
  for (int u = 0; u < g1.size(); ++u) {
    EXPECT_EQ(std::vector<int>(g1.out(u).begin(), g1.out(u).end()), rows0[u])
        << "row " << u;
  }
}

TEST(Churn, RejectsInvalidEventsDeterministically) {
  const core::ProblemSpec spec{2, kPi};
  const auto pts = make_points(8, 3);
  sim::ChurnEngine eng;
  eng.init(pts, spec);
  const std::vector<sim::ChurnEvent> batch{
      {sim::ChurnEventKind::kFail, 0, {}},      // ok
      {sim::ChurnEventKind::kFail, 0, {}},      // already dead
      {sim::ChurnEventKind::kRecover, 3, {}},   // alive
      {sim::ChurnEventKind::kMove, 0, {1, 1}},  // dead
      {sim::ChurnEventKind::kRecover, 0, {}},   // ok (rejoins)
      {sim::ChurnEventKind::kMove, 2, {2, 2}},  // ok
      {sim::ChurnEventKind::kFail, -1, {}},     // out of range
      {sim::ChurnEventKind::kFail, 99, {}},     // out of range
  };
  const auto& rep = eng.step(batch);
  const std::vector<bool> expected{true, false, false, false,
                                   true, true,  false, false};
  ASSERT_EQ(rep.events.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(rep.events[i].applied, expected[i]) << "event " << i;
  }
  EXPECT_EQ(eng.alive_count(), 8);
  EXPECT_EQ(eng.positions()[2].x, 2.0);
  EXPECT_TRUE(rep.certificate.ok());
}

// Two alive sensors at one exact position leave the orientation layer
// nothing to aim at (a zero vector), so a move onto an occupied position
// and a recover at one are rejected before any state changes — across
// batches (the occupant kept its position) and within one batch (the
// occupant moved there earlier in it).  The engine keeps stepping, and
// every step after a rejection still equals a from-scratch plan.
TEST(Churn, CoincidentMoveAndRecoverAreRejected) {
  using K = sim::ChurnEventKind;
  const auto pts = make_points(300, 42);
  for (const core::ProblemSpec spec :
       {core::ProblemSpec{1, 2.0 * kPi}, core::ProblemSpec{2, kPi},
        core::ProblemSpec{3, 0.0}, core::ProblemSpec{4, 0.0},
        core::ProblemSpec{5, 0.0}}) {
    SCOPED_TRACE(testing::Message() << "k=" << spec.k << " phi=" << spec.phi);
    sim::ChurnEngine eng;
    eng.init(pts, spec);
    const geom::Point p7 = pts[7], p100 = pts[100], p5 = pts[5];

    // Moves: onto a node that kept its position, then onto one that moved
    // earlier in the same batch.  The other events of the batch apply.
    const std::vector<sim::ChurnEvent> moves{
        {K::kMove, 7, p100},               // occupied by 100
        {K::kMove, 8, geom::Point{2, 2}},  // free
        {K::kMove, 9, geom::Point{2, 2}},  // occupied by 8 (this batch)
        {K::kFail, 11, {}},
    };
    const auto& r1 = eng.step(moves);
    ASSERT_EQ(r1.events.size(), 4u);
    EXPECT_FALSE(r1.events[0].applied);
    EXPECT_TRUE(r1.events[1].applied);
    EXPECT_FALSE(r1.events[2].applied);
    EXPECT_TRUE(r1.events[3].applied);
    EXPECT_EQ(eng.positions()[7].x, p7.x);
    EXPECT_EQ(eng.positions()[7].y, p7.y);
    EXPECT_EQ(eng.positions()[9].x, pts[9].x);
    expect_matches_from_scratch(eng, spec, 1, 1);

    // Recovers: 5 fails, 12 moves onto its last position, and 5's recover
    // is rejected in the next batch (12 kept the position) and in the same
    // batch as the move.
    eng.step(std::vector<sim::ChurnEvent>{{K::kFail, 5, {}}});
    expect_matches_from_scratch(eng, spec, 1, 2);
    const auto& r3 = eng.step(std::vector<sim::ChurnEvent>{
        {K::kMove, 12, p5}, {K::kRecover, 5, {}}});
    EXPECT_TRUE(r3.events[0].applied);
    EXPECT_FALSE(r3.events[1].applied);
    EXPECT_EQ(eng.alive()[5], 0);
    expect_matches_from_scratch(eng, spec, 1, 3);
    const auto& r4 =
        eng.step(std::vector<sim::ChurnEvent>{{K::kRecover, 5, {}}});
    EXPECT_FALSE(r4.events[0].applied);
    expect_matches_from_scratch(eng, spec, 1, 4);

    // Once the occupant leaves, the position is free again.
    const auto& r5 = eng.step(std::vector<sim::ChurnEvent>{
        {K::kMove, 12, pts[12]}, {K::kRecover, 5, {}}});
    EXPECT_TRUE(r5.events[0].applied);
    EXPECT_TRUE(r5.events[1].applied);
    expect_matches_from_scratch(eng, spec, 1, 5);
  }
}

// A lone survivor has no positive sector radius, so the last digraph
// build indexed no grid over it; the occupancy check must still see it,
// on the full-build path and on the row-patch path.
TEST(Churn, CoincidentRecoverRejectedWithLoneSurvivor) {
  using K = sim::ChurnEventKind;
  const core::ProblemSpec spec{2, kPi};
  const auto pts = make_points(4, 3);
  for (const bool force_full : {true, false}) {
    SCOPED_TRACE(force_full ? "full builds" : "row patches allowed");
    sim::ChurnEngine eng;
    sim::ChurnOptions opts;
    opts.min_alive = 1;
    opts.force_full = force_full;
    opts.dirty_threshold = 1.0;
    eng.init(pts, spec, opts);
    eng.step(std::vector<sim::ChurnEvent>{
        {K::kFail, 1, {}}, {K::kFail, 2, {}}, {K::kFail, 3, {}}});
    ASSERT_EQ(eng.alive_count(), 1);
    // 0 moves onto dead 1's position; 1's recover then finds it taken.
    EXPECT_TRUE(eng.step(std::vector<sim::ChurnEvent>{{K::kMove, 0, pts[1]}})
                    .events[0]
                    .applied);
    const auto& rep = eng.step(std::vector<sim::ChurnEvent>{
        {K::kRecover, 1, {}}, {K::kRecover, 2, {}}});
    EXPECT_FALSE(rep.events[0].applied);
    EXPECT_TRUE(rep.events[1].applied);
    EXPECT_EQ(eng.alive_count(), 2);
    EXPECT_TRUE(rep.certificate.ok());
  }
}

TEST(Churn, MinAliveGuardRejectsFatalFails) {
  const core::ProblemSpec spec{2, kPi};
  const auto pts = make_points(5, 17);
  sim::ChurnEngine eng;
  sim::ChurnOptions opts;
  opts.min_alive = 3;
  eng.init(pts, spec, opts);
  const std::vector<sim::ChurnEvent> batch{
      {sim::ChurnEventKind::kFail, 0, {}},
      {sim::ChurnEventKind::kFail, 1, {}},
      {sim::ChurnEventKind::kFail, 2, {}},
      {sim::ChurnEventKind::kFail, 3, {}},
  };
  const auto& rep = eng.step(batch);
  EXPECT_TRUE(rep.events[0].applied);
  EXPECT_TRUE(rep.events[1].applied);
  EXPECT_FALSE(rep.events[2].applied);  // would leave 2 < min_alive
  EXPECT_FALSE(rep.events[3].applied);
  EXPECT_EQ(eng.alive_count(), 3);
  EXPECT_TRUE(rep.certificate.ok());
}

TEST(Churn, PoissonScheduleIsDeterministic) {
  const core::ProblemSpec spec{2, kPi};
  const auto pts = make_points(150, 22);
  sim::ChurnEngine a, b;
  a.init(pts, spec);
  b.init(pts, spec);
  std::vector<sim::ChurnEvent> ea, eb, ec;
  a.poisson_schedule(42, 1, 0.1, 0.2, 0.1, 0.05, ea);
  b.poisson_schedule(42, 1, 0.1, 0.2, 0.1, 0.05, eb);
  ASSERT_EQ(ea.size(), eb.size());
  ASSERT_FALSE(ea.empty());
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].kind, eb[i].kind);
    EXPECT_EQ(ea[i].node, eb[i].node);
    EXPECT_EQ(ea[i].to.x, eb[i].to.x);
    EXPECT_EQ(ea[i].to.y, eb[i].to.y);
  }
  // A different seed draws a different batch (same rates, same state).
  a.poisson_schedule(43, 1, 0.1, 0.2, 0.1, 0.05, ec);
  bool differs = ec.size() != ea.size();
  for (size_t i = 0; !differs && i < ea.size(); ++i) {
    differs = ea[i].node != ec[i].node || ea[i].kind != ec[i].kind;
  }
  EXPECT_TRUE(differs);
}

TEST(Churn, EscalatingSchedulesMatchCompactPlanAndFullBuild) {
  // Schedules that leave the warm ladder: force_full (every step plans
  // fresh and builds the full digraph), and move + recover batches that
  // blow the candidate pool up (pool-invalid escalations, fresh sweeps,
  // full builds past the dirty threshold), between light fail batches
  // that take the warm paths.
  const core::ProblemSpec spec{2, kPi};
  const auto pts = make_points(700, 5150);
  for (const bool force_full : {true, false}) {
    for (const int t : {1, 2, 4}) {
      SCOPED_TRACE(testing::Message()
                   << "force_full=" << force_full << " threads=" << t);
      std::unique_ptr<dirant::par::ThreadPool> pool;
      if (t > 1) pool = std::make_unique<dirant::par::ThreadPool>(t);
      sim::ChurnEngine eng;
      eng.set_threads(t);
      sim::ChurnOptions opts;
      opts.force_full = force_full;
      eng.init(pts, spec, opts);
      expect_matches_compact_build(eng, spec, t, pool.get(), 0);
      int escalations = 0, pool_invalid = 0, full_builds = 0;
      for (int b = 1; b <= 9; ++b) {
        std::vector<sim::ChurnEvent> events;
        if (b % 3 == 0) {
          eng.poisson_schedule(31, b, 0.02, 0.6, 0.04, 0.05, events);
        } else {
          eng.poisson_schedule(31, b, 0.02, 0.1, 0.0, 0.0, events);
        }
        const auto& rep = eng.step(events);
        escalations += rep.escalation != nullptr;
        pool_invalid += rep.escalation != nullptr &&
                        std::strcmp(rep.escalation, "pool-invalid") == 0;
        full_builds += !rep.incremental_digraph;
        expect_matches_compact_build(eng, spec, t, pool.get(), b);
        if (testing::Test::HasFatalFailure()) return;
      }
      if (force_full) {
        EXPECT_EQ(full_builds, 9);
      } else {
        EXPECT_GE(pool_invalid, 1);
        EXPECT_GE(full_builds, 1);
        EXPECT_LT(escalations, 9);  // the light batches stay warm
      }
    }
  }
}

TEST(Churn, KLevelProbeTracksFrozenConnectivity) {
  const core::ProblemSpec spec{2, kPi};
  const auto pts = make_points(80, 19);
  sim::ChurnEngine eng;
  sim::ChurnOptions opts;
  opts.probe_k_level = true;
  eng.init(pts, spec, opts);
  // No events: the frozen graph IS the certified digraph, so the probe
  // must report at least strong connectivity.
  const auto& quiet = eng.step({});
  EXPECT_GE(quiet.degraded.k_level, 1);

  std::vector<sim::ChurnEvent> kill;
  eng.adversarial_schedule(5, kill);
  const auto& hit = eng.step(kill);
  if (hit.degraded.degraded) {
    EXPECT_EQ(hit.degraded.k_level, 0);
  } else {
    EXPECT_GE(hit.degraded.k_level, 1);
  }
}

}  // namespace
