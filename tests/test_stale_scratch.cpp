// Stale-scratch differential suite.  core::PlanSession lends one Workspace
// to every stage of a call (triangulator, Kruskal, the Theorem 3 sweep,
// the digraph build, Tarjan), and sim::ChurnEngine runs its cold path
// (pool Kruskal, pool-seed sort, certification) through the same blocks.
// Stages that never overlap share bytes, so a stage that read what an
// earlier call or stage left behind — a stamp array not reset at call
// start, two live views on one block — would show up as a plan, tree or
// certificate that differs from a fresh session's.  These tests drive one
// long-lived session and one long-lived engine through inputs whose shape
// changes every call, and compare every output against a fresh run.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/constants.hpp"
#include "core/session.hpp"
#include "geometry/generators.hpp"
#include "sim/churn.hpp"

namespace geom = dirant::geom;
namespace core = dirant::core;
namespace sim = dirant::sim;
using dirant::kPi;

namespace {

// Every tree regime Table 1 selects, k = 1..5.
const std::vector<core::ProblemSpec> kSpecs = {
    {1, 8.0 * kPi / 5.0}, {1, 1.2 * kPi}, {2, 6.0 * kPi / 5.0}, {2, kPi},
    {2, 0.8 * kPi},       {3, 0.1},       {4, 0.1},             {5, 0.0},
};

enum class Shape { kUniform, kClustered, kLattice, kDuplicates };

std::string to_string(Shape s) {
  switch (s) {
    case Shape::kUniform:
      return "uniform";
    case Shape::kClustered:
      return "clustered";
    case Shape::kLattice:
      return "lattice";
    case Shape::kDuplicates:
      return "duplicates";
  }
  return "?";
}

std::vector<geom::Point> make_shape(Shape s, int n, int seed) {
  geom::Rng rng(seed);
  switch (s) {
    case Shape::kUniform:
      return geom::make_instance(geom::Distribution::kUniformSquare, n, rng);
    case Shape::kClustered:
      return geom::make_instance(geom::Distribution::kClusters, n, rng);
    case Shape::kLattice:  // equal distances everywhere: ties in every sort
      return geom::make_instance(geom::Distribution::kGrid, n, rng);
    case Shape::kDuplicates: {
      // Every fourth point repeats an earlier one exactly.
      auto pts = geom::make_instance(geom::Distribution::kUniformSquare, n,
                                     rng);
      for (int i = 3; i < n; i += 4) pts[i] = pts[i / 2];
      return pts;
    }
  }
  return {};
}

void expect_same_tree(const dirant::mst::Tree& a, const dirant::mst::Tree& b,
                      const std::string& what) {
  ASSERT_EQ(a.n, b.n) << what;
  ASSERT_EQ(a.edges.size(), b.edges.size()) << what;
  for (size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].u, b.edges[i].u) << what << " edge " << i;
    EXPECT_EQ(a.edges[i].v, b.edges[i].v) << what << " edge " << i;
    EXPECT_EQ(a.edges[i].length, b.edges[i].length) << what << " edge " << i;
  }
}

void expect_same_certificate(const core::Certificate& a,
                             const core::Certificate& b,
                             const std::string& what) {
  EXPECT_EQ(a.strongly_connected, b.strongly_connected) << what;
  EXPECT_EQ(a.scc_count, b.scc_count) << what;
  EXPECT_EQ(a.max_radius, b.max_radius) << what;
  EXPECT_EQ(a.max_spread_sum, b.max_spread_sum) << what;
  EXPECT_EQ(a.max_antennas, b.max_antennas) << what;
  EXPECT_EQ(a.spread_within_budget, b.spread_within_budget) << what;
  EXPECT_EQ(a.antennas_within_k, b.antennas_within_k) << what;
  EXPECT_EQ(a.radius_within_bound, b.radius_within_bound) << what;
}

void expect_same_rows(const core::Result& a, const core::Result& b,
                      const std::string& what) {
  EXPECT_EQ(a.algorithm, b.algorithm) << what;
  EXPECT_EQ(a.lmax, b.lmax) << what;
  EXPECT_EQ(a.measured_radius, b.measured_radius) << what;
  EXPECT_EQ(a.bound_factor, b.bound_factor) << what;
  ASSERT_EQ(a.orientation.size(), b.orientation.size()) << what;
  for (int u = 0; u < a.orientation.size(); ++u) {
    ASSERT_TRUE(a.orientation.node_equals(u, b.orientation, u))
        << what << " row " << u;
  }
}

// Orient (and certify, when the plan exists) on `s`; true if orient threw.
bool run_call(core::PlanSession& s, std::span<const geom::Point> pts,
              const core::ProblemSpec& spec) {
  try {
    s.orient(pts, spec);
  } catch (const dirant::contract_violation&) {
    return true;  // duplicate positions under an orientation regime
  }
  s.certify(pts, spec);
  return false;
}

TEST(StaleScratch, AlternatingInstancesMatchAFreshSession) {
  // Consecutive calls alternate between n = 3000 and n = 500, and the
  // shape and the regime change as they go, so every stage meets views
  // the previous stage or call left at other sizes.  A call that throws
  // (duplicates under an orientation regime) unwinds mid-stage; the
  // session must come out of it as usable as a fresh one.
  core::PlanSession shared;
  int seed = 1;
  int threw = 0;
  for (const core::ProblemSpec& spec : kSpecs) {
    for (const Shape shape : {Shape::kUniform, Shape::kClustered,
                              Shape::kLattice, Shape::kDuplicates}) {
      for (const int n : {3000, 500}) {
        const auto pts = make_shape(shape, n, seed++);
        const std::string what = to_string(shape) + " n=" +
                                 std::to_string(n) +
                                 " k=" + std::to_string(spec.k) +
                                 " phi=" + std::to_string(spec.phi);
        core::PlanSession fresh;
        const bool fresh_threw = run_call(fresh, pts, spec);
        const bool shared_threw = run_call(shared, pts, spec);
        ASSERT_EQ(fresh_threw, shared_threw) << what;
        threw += shared_threw;
        expect_same_tree(shared.last_tree(), fresh.last_tree(), what);
        EXPECT_EQ(shared.emst_scratch().last_kind,
                  fresh.emst_scratch().last_kind)
            << what;
        EXPECT_EQ(shared.emst_scratch().candidates,
                  fresh.emst_scratch().candidates)
            << what;
        if (shared_threw) continue;
        expect_same_rows(shared.last_result(), fresh.last_result(), what);
        expect_same_certificate(shared.certify(pts, spec),
                                fresh.certify(pts, spec), what);
      }
    }
  }
  // The unwinding path must have been exercised, or half the claim above
  // is vacuous.
  EXPECT_GT(threw, 0);
}

// The engine against a fresh session planning the survivors from scratch.
void expect_matches_from_scratch(sim::ChurnEngine& eng,
                                 const core::ProblemSpec& spec, int threads,
                                 const std::string& what) {
  std::vector<geom::Point> survivors;
  for (int u : eng.compact_to_orig()) survivors.push_back(eng.positions()[u]);
  core::PlanSession fresh;
  fresh.set_threads(threads);
  const auto& ref = fresh.orient(survivors, spec);
  const auto& got = eng.last_result();
  EXPECT_EQ(got.algorithm, ref.algorithm) << what;
  EXPECT_EQ(got.lmax, ref.lmax) << what;
  EXPECT_EQ(got.measured_radius, ref.measured_radius) << what;
  EXPECT_EQ(got.bound_factor, ref.bound_factor) << what;
  const auto& orig_of = eng.compact_to_orig();
  for (int c = 0; c < eng.alive_count(); ++c) {
    ASSERT_TRUE(ref.orientation.node_equals(c, got.orientation, orig_of[c]))
        << what << " node " << c;
  }
  expect_same_certificate(eng.last_report().certificate,
                          fresh.certify(survivors, spec), what);
}

TEST(StaleScratch, MixedChurnScheduleMatchesFromScratch) {
  // One engine schedule that takes every cold path through the session's
  // workspace: localized repairs (rung 1), pool Kruskal (rung 2), warm
  // orienter refusals that re-plan fresh, and pool-invalid escalations
  // (a moved node joins the pool as a star; failing it next batch erases a
  // node above the degree cap) that re-triangulate and re-seed the pool.
  using K = sim::ChurnEventKind;
  const core::ProblemSpec spec{2, kPi};
  geom::Rng rng(2028);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 1500, rng);
  for (const int threads : {1, 2, 4}) {
    sim::ChurnEngine eng;
    eng.set_threads(threads);
    eng.init(pts, spec);
    expect_matches_from_scratch(eng, spec, threads, "init");
    int rung1 = 0, rung2 = 0, refused = 0, invalid = 0;
    std::vector<sim::ChurnEvent> events;
    for (int b = 1; b <= 24; ++b) {
      events.clear();
      switch (b % 6) {
        case 0:  // recover wave
          eng.poisson_schedule(7, b, 0.0, 0.5, 0.0, 0.0, events);
          break;
        case 1:  // a move off the field: the node joins the pool as a
                 // star, and its new MST edge is the longest, so the warm
                 // orienter's radius gate refuses and the plan is fresh
          events.push_back({K::kMove, 40 + b, geom::Point{-20.0 - b, 3.0}});
          break;
        case 2:  // fail the star: erase above the cap, pool-invalid
          events.push_back({K::kFail, 40 + b - 1, {}});
          break;
        case 3:  // articulation kill: large cut subtrees
          eng.adversarial_schedule(4, events);
          break;
        default:  // light fails
          eng.poisson_schedule(7, b, 0.004, 0.0, 0.0, 0.0, events);
          break;
      }
      const auto& rep = eng.step(events);
      rung1 += rep.localized_mst;
      rung2 += rep.incremental_plan && !rep.localized_mst;
      refused += rep.incremental_plan && !rep.warm_orient;
      invalid += rep.escalation != nullptr &&
                 std::string(rep.escalation) == "pool-invalid";
      expect_matches_from_scratch(
          eng, spec, threads,
          "threads=" + std::to_string(threads) + " batch " +
              std::to_string(b));
    }
    EXPECT_GT(rung1, 0) << "threads=" << threads;
    EXPECT_GT(rung2, 0) << "threads=" << threads;
    EXPECT_GT(refused, 0) << "threads=" << threads;
    EXPECT_GT(invalid, 0) << "threads=" << threads;
  }
}

}  // namespace
