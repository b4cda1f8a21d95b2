// sim::ChurnEngine's frozen-survivor audit against the Tarjan reference.
//
// The engine answers "what does the field look like before the re-plan?"
// from its certificate's cached hub out-tree and in-tree: only the
// subtrees below this batch's removed nodes (dead, moved, recovered) are
// re-examined, and an SCC pass runs only when that witness cannot answer.
// tests/reference_frozen_audit.hpp rebuilds the frozen survivor graph and
// runs Tarjan on it.  Over seeded schedules at n = 200–2000 — fails,
// recovers and moves, kills of the witness hub (the smallest alive id),
// adversarial cut-vertex kills, and rejected coincident moves — every
// step's DegradedReport must equal the reference field by field (k_level
// included, with probe_k_level on for part of the schedules), and every
// step's plan and certificate maxima must equal a from-scratch plan's.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "common/constants.hpp"
#include "core/session.hpp"
#include "geometry/generators.hpp"
#include "reference_frozen_audit.hpp"
#include "sim/churn.hpp"

namespace core = dirant::core;
namespace geom = dirant::geom;
namespace sim = dirant::sim;
using dirant::kPi;
using dirant::kTwoPi;

namespace {

void expect_audit_equal(const sim::DegradedReport& got,
                        const sim::DegradedReport& want, int seed,
                        int batch) {
  EXPECT_EQ(got.degraded, want.degraded) << "seed " << seed << " b " << batch;
  EXPECT_EQ(got.coverage_fraction, want.coverage_fraction)
      << "seed " << seed << " batch " << batch;
  EXPECT_EQ(got.largest_scc, want.largest_scc)
      << "seed " << seed << " batch " << batch;
  EXPECT_EQ(got.k_level, want.k_level) << "seed " << seed << " b " << batch;
  EXPECT_EQ(got.stranded, want.stranded)
      << "seed " << seed << " batch " << batch;
}

void expect_matches_from_scratch(const sim::ChurnEngine& eng,
                                 const core::ProblemSpec& spec, int seed,
                                 int batch) {
  const auto& orig_of = eng.compact_to_orig();
  std::vector<geom::Point> survivors;
  for (int u : orig_of) survivors.push_back(eng.positions()[u]);
  core::PlanSession fresh;
  const auto& ref = fresh.orient(survivors, spec);
  const auto& got = eng.last_result();
  EXPECT_EQ(got.lmax, ref.lmax) << "seed " << seed << " batch " << batch;
  EXPECT_EQ(got.measured_radius, ref.measured_radius)
      << "seed " << seed << " batch " << batch;
  for (size_t c = 0; c < orig_of.size(); ++c) {
    ASSERT_TRUE(ref.orientation.node_equals(static_cast<int>(c),
                                            got.orientation, orig_of[c]))
        << "seed " << seed << " batch " << batch << " node " << orig_of[c];
  }
  // The certificate's maxima must be the fresh plan's, even after rows
  // shrank (its SCC count is pinned against a fresh certify in
  // test_churn.cpp).
  const auto& cert = eng.last_report().certificate;
  EXPECT_EQ(cert.max_radius, ref.orientation.max_radius()) << "seed " << seed;
  EXPECT_EQ(cert.max_spread_sum, ref.orientation.max_spread_sum())
      << "seed " << seed;
  EXPECT_EQ(cert.max_antennas, ref.orientation.max_antennas_per_node())
      << "seed " << seed;
  EXPECT_TRUE(cert.ok()) << "seed " << seed << " batch " << batch;
}

int smallest_alive(const sim::ChurnEngine& eng) {
  for (int u = 0; u < eng.size(); ++u) {
    if (eng.alive()[u]) return u;
  }
  return -1;
}

/// One batch of the mixed schedule; `kind` picks its shape.
std::vector<sim::ChurnEvent> batch_for(const sim::ChurnEngine& eng, int kind,
                                       int seed, int batch,
                                       std::mt19937_64& rng) {
  const int n = eng.size();
  std::vector<sim::ChurnEvent> ev;
  const auto random_alive = [&] {
    for (;;) {
      const int u = static_cast<int>(rng() % static_cast<unsigned>(n));
      if (eng.alive()[u]) return u;
    }
  };
  switch (kind) {
    case 0:  // light poisson mix: a few fails, recoveries, small moves
      eng.poisson_schedule(static_cast<std::uint64_t>(seed), batch,
                           (1.0 + static_cast<double>(rng() % 8)) / n, 0.3,
                           2.0 / n, 0.02, ev);
      break;
    case 1: {  // kill the witness hub (and a neighbour id of it)
      const int hub = smallest_alive(eng);
      ev.push_back({sim::ChurnEventKind::kFail, hub, {}});
      if (rng() % 2 == 0) {
        ev.push_back({sim::ChurnEventKind::kFail, hub + 1, {}});
      }
      break;
    }
    case 2:  // cut vertices of the plan's tree
      eng.adversarial_schedule(1 + static_cast<int>(rng() % 4), ev);
      break;
    case 3: {  // coincident moves (rejected) between real events
      const int a = random_alive(), b = random_alive();
      ev.push_back({sim::ChurnEventKind::kFail, random_alive(), {}});
      ev.push_back({sim::ChurnEventKind::kMove, a, eng.positions()[b]});
      geom::Point near = eng.positions()[b];
      near.x += 1e-3;
      ev.push_back({sim::ChurnEventKind::kMove, a, near});
      ev.push_back({sim::ChurnEventKind::kMove, b, near});  // onto a: rejected
      break;
    }
    default:  // a handful of plain fails
      for (int i = 1 + static_cast<int>(rng() % 6); i > 0; --i) {
        ev.push_back({sim::ChurnEventKind::kFail, random_alive(), {}});
      }
      break;
  }
  return ev;
}

TEST(ChurnAudit, WitnessAuditMatchesTarjanReference) {
  const core::ProblemSpec specs[] = {{2, kPi}, {2, 2.2}, {1, kTwoPi}};
  constexpr int kSchedules = 200;
  constexpr int kSteps = 5;
  int degraded_steps = 0, clean_steps = 0, probed = 0;
  for (int seed = 1; seed <= kSchedules; ++seed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 7919);
    // Mostly small instances (the asan budget), a tail up to 2000.
    const int n = 200 + static_cast<int>(rng() % 16 == 0 ? rng() % 1801
                                                           : rng() % 200);
    geom::Rng prng(static_cast<std::uint64_t>(seed) + 1000);
    const auto pts =
        geom::make_instance(geom::Distribution::kUniformSquare, n, prng);
    const core::ProblemSpec spec = specs[seed % 3];
    sim::ChurnOptions opts;
    opts.probe_k_level = n <= 260 && seed % 4 == 0;
    probed += opts.probe_k_level;
    sim::ChurnEngine eng;
    eng.init(pts, spec, opts);
    for (int b = 1; b <= kSteps; ++b) {
      const int kind = static_cast<int>(rng() % 5);
      const auto events = batch_for(eng, kind, seed, b, rng);
      const auto prev = dirant::test::certified_rows(eng);
      const auto& rep = eng.step(events);
      const auto want =
          dirant::test::reference_frozen_audit(prev, eng, opts.probe_k_level);
      expect_audit_equal(rep.degraded, want, seed, b);
      (want.degraded ? degraded_steps : clean_steps) += 1;
      expect_matches_from_scratch(eng, spec, seed, b);
      if (testing::Test::HasFailure()) return;
    }
  }
  // Both verdicts must occur, or the comparison is vacuous.
  EXPECT_GT(degraded_steps, 100);
  EXPECT_GT(clean_steps, 20);
  EXPECT_GT(probed, 5);
}

}  // namespace
