// sim::ChurnEngine's digraph row patch against the loop it replaced.
//
// A clean row (sectors unchanged, node not moved) keeps its surviving
// targets and then appends the event nodes (moved or recovered) it
// accepts, in event order.  The engine finds those with one grid query per
// event node (antenna::accepting_rows); the oracle here is the old
// O(alive × events) loop that tests every clean row against every event
// node.  After every patched step the certified CSR must equal the oracle
// row for row, in content AND order (collection-tree routing takes a row's
// first match, so order is observable), and equal a full rebuild as sets.
//
// Cases: traffic-mix batches (1% fail, 1% move, 30% recover) at every
// thread count, beam-only sectors, a move landing exactly at a sector's
// radius and at the edge of its tolerance band, and — on the helper
// itself, with a hand-built orientation — coincident points, full-disk
// sectors and events at the accept limit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <utility>
#include <vector>

#include "antenna/transmission.hpp"
#include "common/constants.hpp"
#include "geometry/generators.hpp"
#include "sim/churn.hpp"
#include "spatial/grid_index.hpp"
#include "thread_counts.hpp"

namespace antenna = dirant::antenna;
namespace core = dirant::core;
namespace geom = dirant::geom;
namespace sim = dirant::sim;
using dirant::kPi;
using dirant::kRadiusAbsTol;
using dirant::kRadiusRelTol;
using dirant::kTwoPi;
using dirant::test::for_each_thread_count;
using Rows = std::vector<std::vector<int>>;

namespace {

/// The certified digraph a step patches, copied out before the step: one
/// row per original id, original-id targets (the engine's index space).
struct Certified {
  Rows rows;
};

Certified certified(const sim::ChurnEngine& eng) {
  Certified c;
  const auto& g = eng.certified_digraph();
  for (int u = 0; u < g.size(); ++u) {
    c.rows.emplace_back(g.out(u).begin(), g.out(u).end());
  }
  return c;
}

double patch_radius(const antenna::Orientation& o) {
  return o.max_radius() * (1.0 + kRadiusRelTol) + kRadiusAbsTol + 1e-12;
}

struct PatchCheck {
  int patched_steps = 0;
  int clean_event_edges = 0;  ///< event nodes appended to clean rows
};

/// The survivors in compact (ascending original id) order, with the
/// engine's plan copied into that order.
struct Survivors {
  std::vector<int> orig_of, comp_of;
  std::vector<geom::Point> pts;
  antenna::Orientation o{0};
};

Survivors survivors(const sim::ChurnEngine& eng) {
  Survivors sv;
  sv.orig_of = eng.compact_to_orig();
  sv.comp_of.assign(eng.size(), -1);
  const int m = static_cast<int>(sv.orig_of.size());
  sv.o.reset(m);
  for (int c = 0; c < m; ++c) {
    sv.comp_of[sv.orig_of[c]] = c;
    sv.pts.push_back(eng.positions()[sv.orig_of[c]]);
    sv.o.copy_node(c, eng.last_result().orientation, sv.orig_of[c]);
  }
  return sv;
}

/// The old row patch, rebuilt from the engine's public state over a fresh
/// grid of the survivors: dirty rows (the report's suggested repair) from
/// the same grid query as the engine, clean rows from their previous
/// targets plus every event node tested in ascending order.  Row c is
/// survivor c's row, in original ids.
Rows oracle_rows(const sim::ChurnEngine& eng, const Certified& prev,
                 int* clean_event_edges) {
  const int n = eng.size();
  const auto& rep = eng.last_report();
  const auto& alive = eng.alive();
  std::vector<char> moved(n, 0), recovered(n, 0), dirty(n, 0);
  for (const auto& ae : rep.events) {
    if (!ae.applied) continue;
    if (ae.event.kind == sim::ChurnEventKind::kMove) moved[ae.event.node] = 1;
    if (ae.event.kind == sim::ChurnEventKind::kRecover) {
      recovered[ae.event.node] = 1;
    }
  }
  for (int u : rep.suggested_repair) dirty[u] = 1;
  const Survivors sv = survivors(eng);
  const auto& pts = sv.pts;
  std::vector<int> events;
  for (int u = 0; u < n; ++u) {
    if (alive[u] && (moved[u] || recovered[u])) events.push_back(u);
  }
  const double qr = patch_radius(sv.o);
  dirant::spatial::GridIndex grid;
  grid.rebuild(pts, std::max(qr / 2.0, 1e-12));
  Rows rows(pts.size());
  for (int c = 0; c < static_cast<int>(pts.size()); ++c) {
    const int u = sv.orig_of[c];
    auto& row = rows[c];
    if (dirty[u]) {
      for (int v : grid.within(pts[c], qr, c)) {
        if (antenna::sector_accepts(pts, sv.o, c, v)) {
          row.push_back(sv.orig_of[v]);
        }
      }
      continue;
    }
    for (int v : prev.rows[u]) {
      if (!alive[v] || moved[v] || recovered[v]) continue;
      row.push_back(v);
    }
    for (int vo : events) {
      if (antenna::sector_accepts(pts, sv.o, c, sv.comp_of[vo])) {
        row.push_back(vo);
        ++*clean_event_edges;
      }
    }
  }
  return rows;
}

/// Step `eng` through `events` and, when the digraph was patched, check
/// it against the oracle (content and order) and a full rebuild (sets).
void step_and_check(sim::ChurnEngine& eng,
                    const std::vector<sim::ChurnEvent>& events,
                    PatchCheck& check) {
  const Certified prev = certified(eng);
  const auto& rep = eng.step(events);
  if (!rep.incremental_digraph) return;
  ++check.patched_steps;
  const Rows want = oracle_rows(eng, prev, &check.clean_event_edges);
  const auto& g = eng.certified_digraph();
  ASSERT_EQ(g.size(), eng.size());
  const Survivors sv = survivors(eng);
  const auto full = antenna::induced_digraph_fast(sv.pts, sv.o);
  for (int u = 0; u < g.size(); ++u) {
    if (!eng.alive()[u]) {
      ASSERT_EQ(g.out(u).size(), 0u) << "batch " << rep.batch << " dead row "
                                     << u;
    }
  }
  for (int c = 0; c < static_cast<int>(sv.orig_of.size()); ++c) {
    const int u = sv.orig_of[c];
    const std::vector<int> got(g.out(u).begin(), g.out(u).end());
    ASSERT_EQ(got, want[c]) << "batch " << rep.batch << " row " << u;
    std::vector<int> a = got, b;
    for (int t : full.out(c)) b.push_back(sv.orig_of[t]);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a, b) << "batch " << rep.batch << " row " << u
                    << " differs from a full rebuild";
  }
}

std::vector<geom::Point> uniform(int n, int seed) {
  geom::Rng rng(seed);
  return geom::make_instance(geom::Distribution::kUniformSquare, n, rng);
}

PatchCheck run_traffic_mix(const std::vector<geom::Point>& pts,
                           const core::ProblemSpec& spec, int threads) {
  PatchCheck check;
  sim::ChurnEngine eng;
  eng.set_threads(threads);
  eng.init(pts, spec);
  std::vector<sim::ChurnEvent> events;
  for (int b = 1; b <= 8; ++b) {
    events.clear();
    eng.poisson_schedule(31, b, /*fail_rate=*/0.01, /*recover_rate=*/0.3,
                         /*move_rate=*/0.01, /*move_radius=*/0.02, events);
    step_and_check(eng, events, check);
    if (testing::Test::HasFatalFailure()) break;
  }
  return check;
}

TEST(RowPatch, TrafficMixBatchesMatchTheOracleAtEveryThreadCount) {
  // k = 2, φ = π is the benchmark's spec; there a moved or recovered
  // node's in-neighbours are almost always re-planned, so clean rows
  // rarely take one.  k = 1, φ = 2π gives every node one near-full sector
  // (width ≥ 8π/5), whose clean rows do, which exercises the splice.
  const auto pts = uniform(2000, 901);
  for_each_thread_count([&](int t) {
    const PatchCheck narrow = run_traffic_mix(pts, {2, kPi}, t);
    EXPECT_GE(narrow.patched_steps, 6) << "threads=" << t;
    const PatchCheck wide = run_traffic_mix(pts, {1, kTwoPi}, t);
    EXPECT_GE(wide.patched_steps, 6) << "threads=" << t;
    EXPECT_GE(wide.clean_event_edges, 20) << "threads=" << t;
  });
}

TEST(RowPatch, BeamSectorsMatchTheOracle) {
  // k = 5, φ = 0: every antenna is a zero-width beam along an MST edge.
  const PatchCheck check = run_traffic_mix(uniform(1500, 902), {5, 0.0}, 1);
  EXPECT_GE(check.patched_steps, 6);
}

TEST(RowPatch, MoveLandingAtTheSectorRadius) {
  // Land a node exactly on the far arc of one of the longest sectors, and
  // just inside that sector's tolerance band: the patch query must reach
  // it (a query below the patch radius would not).  The re-plan may turn
  // the receiving row dirty; the case counts only when it stays clean,
  // which the near-full sectors of k = 1, φ = 2π make common.
  const core::ProblemSpec spec{1, kTwoPi};
  const auto pts = uniform(600, 903);
  sim::ChurnEngine probe;
  probe.init(pts, spec);
  const auto& o0 = probe.last_result().orientation;
  std::vector<std::pair<double, int>> longest;  // (-radius, node)
  for (int c = 0; c < o0.size(); ++c) {
    for (const auto& s : o0.antennas(c)) {
      // Not a beam: a beam's far end is the node it aims at.
      if (s.width > 0.0) longest.emplace_back(-s.radius, c);
    }
  }
  std::sort(longest.begin(), longest.end());
  int exercised = 0;
  for (int i = 0; i < 12 && i < static_cast<int>(longest.size()); ++i) {
    const int c = longest[i].second;
    for (const bool band_edge : {false, true}) {
      sim::ChurnEngine eng;
      eng.init(pts, spec);
      const auto& o = eng.last_result().orientation;
      const auto& ants = o.antennas(c);
      const auto s = *std::max_element(
          ants.begin(), ants.end(), [](const auto& a, const auto& b) {
            return (a.width > 0.0 ? a.radius : 0.0) <
                   (b.width > 0.0 ? b.radius : 0.0);
          });
      const double r =
          band_edge ? s.radius * (1.0 + kRadiusRelTol) + kRadiusAbsTol / 2
                    : s.radius;
      const double theta = s.start + s.width / 2.0;
      const geom::Point to{pts[c].x + r * std::cos(theta),
                           pts[c].y + r * std::sin(theta)};
      // The mover: the node farthest from c, so its departure leaves c's
      // neighbourhood alone.
      int v = 0;
      for (int u = 0; u < static_cast<int>(pts.size()); ++u) {
        if (geom::dist2(pts[u], pts[c]) > geom::dist2(pts[v], pts[c])) v = u;
      }
      PatchCheck check;
      step_and_check(eng, {{sim::ChurnEventKind::kMove, v, to}}, check);
      if (testing::Test::HasFatalFailure()) return;
      const auto& rep = eng.last_report();
      const bool clean =
          std::find(rep.suggested_repair.begin(), rep.suggested_repair.end(),
                    c) == rep.suggested_repair.end();
      if (rep.incremental_digraph && clean) {
        // Nobody died, so compact ids are original ids.
        const auto out = eng.certified_digraph().out(c);
        exercised += std::find(out.begin(), out.end(), v) != out.end();
      }
    }
  }
  EXPECT_GE(exercised, 2);
}

// ---- the helper itself, on a hand-built orientation ----------------------

/// Every open row × every event, rows ascending, events in order.
std::vector<std::pair<int, int>> every_row_times_every_event(
    std::span<const geom::Point> pts, const antenna::Orientation& o,
    const std::vector<int>& events, const std::vector<char>& open) {
  std::vector<std::pair<int, int>> out;
  for (int c = 0; c < static_cast<int>(pts.size()); ++c) {
    if (!open[c]) continue;
    for (int v : events) {
      if (v != c && antenna::sector_accepts(pts, o, c, v)) {
        out.emplace_back(c, v);
      }
    }
  }
  return out;
}

TEST(RowPatch, AcceptingRowsEqualsEveryRowTimesEveryEvent) {
  std::mt19937_64 rng(904);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  int accepted = 0, at_limit = 0;
  for (int rep = 0; rep < 20; ++rep) {
    const int n = 300;
    std::vector<geom::Point> pts = uniform(n, 950 + rep);
    // Events: every fifth node, ascending.
    std::vector<int> events;
    for (int v = 3; v < n; v += 5) events.push_back(v);
    // Coincident points: an event on a non-event node, two events on one
    // spot.
    pts[events[0]] = pts[1];
    pts[events[1]] = pts[events[2]];
    // Mixed sectors: full disks, beams, ordinary and reflex arcs, plus
    // node 0 with the longest sector, which events 3 and 4 sit at: exactly
    // on its radius and on the far edge of its tolerance band.
    antenna::Orientation o(n);
    for (int u = 1; u < n; ++u) {
      const int antennas = 1 + static_cast<int>(unit(rng) * 2);
      for (int a = 0; a < antennas; ++a) {
        const double start = unit(rng) * kTwoPi;
        const double radius = 0.5 + 2.5 * unit(rng);
        const int kind = static_cast<int>(unit(rng) * 4);
        const double width = kind == 0   ? kTwoPi
                             : kind == 1 ? 0.0
                             : kind == 2 ? unit(rng) * kPi
                                         : kPi + unit(rng) * kPi;
        o.add(u, geom::make_arc(start, width, radius));
      }
    }
    const double r0 = 3.5, theta0 = unit(rng) * kTwoPi;
    o.add(0, geom::make_arc(theta0 - 0.5, 1.0, r0));
    const double rs[2] = {r0, r0 * (1.0 + kRadiusRelTol) + kRadiusAbsTol};
    for (int i = 0; i < 2; ++i) {
      pts[events[3 + i]] = {pts[0].x + rs[i] * std::cos(theta0),
                            pts[0].y + rs[i] * std::sin(theta0)};
    }
    std::vector<char> open(n);
    for (int c = 0; c < n; ++c) open[c] = unit(rng) < 0.85 ? 1 : 0;
    open[0] = 1;
    const double qr = patch_radius(o);
    dirant::spatial::GridIndex grid;
    grid.rebuild(pts, std::max(qr / 2.0, 1e-12));
    std::vector<int> hits;
    std::vector<std::pair<int, int>> got;
    antenna::accepting_rows(
        pts, o, grid, qr, events, [&](int c) { return open[c] != 0; }, hits,
        got);
    const auto want = every_row_times_every_event(pts, o, events, open);
    ASSERT_EQ(got, want) << "rep " << rep;
    accepted += static_cast<int>(got.size());
    for (int i = 0; i < 2; ++i) {
      at_limit += std::count(got.begin(), got.end(),
                             std::pair{0, events[3 + i]});
    }
  }
  EXPECT_GT(accepted, 1000);
  EXPECT_GE(at_limit, 20);
}

}  // namespace

// ---------------------------------------------------------------------
// The engine's transpose: the row patch patches it alongside the CSR and
// the full build transposes afresh, and either way it must equal
// `certified_digraph().reversed()` exactly — offsets and in-list order
// (ascending source) — after every step.
// ---------------------------------------------------------------------

namespace {

void expect_transpose_exact(const sim::ChurnEngine& eng, int threads,
                            int step) {
  const auto want = eng.certified_digraph().reversed();
  const auto& got = eng.certified_transpose();
  ASSERT_EQ(got.size(), want.size());
  const auto go = got.offsets(), wo = want.offsets();
  const auto gt = got.targets(), wt = want.targets();
  ASSERT_TRUE(std::equal(go.begin(), go.end(), wo.begin(), wo.end()))
      << "offsets, threads " << threads << " step " << step;
  ASSERT_TRUE(std::equal(gt.begin(), gt.end(), wt.begin(), wt.end()))
      << "in-lists, threads " << threads << " step " << step;
}

}  // namespace

TEST(RowPatch, PatchedTransposeEqualsReversedAtEveryThreadCount) {
  const core::ProblemSpec spec{2, kPi};
  geom::Rng rng(4711);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 1500, rng);
  for_each_thread_count([&](int t) {
    // The patch path (and, through its escalations, the full build) under
    // fail-only, fail/recover/move and adversarial batches; then a run
    // whose every step takes the full build.
    for (const double threshold : {0.25, -1.0}) {
      sim::ChurnOptions opts;
      opts.dirty_threshold = threshold;
      sim::ChurnEngine eng;
      eng.set_threads(t);
      eng.init(pts, spec, opts);
      expect_transpose_exact(eng, t, 0);
      bool patched = false, full = false;
      std::vector<sim::ChurnEvent> events;
      for (int b = 1; b <= 24; ++b) {
        events.clear();
        if (b % 6 == 0) {
          eng.adversarial_schedule(3, events);
        } else if (b % 2 == 0) {
          eng.poisson_schedule(91, b, 0.004, 0.3, 0.004, 0.02, events);
        } else {
          eng.poisson_schedule(91, b, 0.004, 0.0, 0.0, 0.0, events);
        }
        const auto& rep = eng.step(events);
        (rep.incremental_digraph ? patched : full) = true;
        expect_transpose_exact(eng, t, b);
        if (HasFatalFailure()) return;
      }
      if (threshold > 0.0) {
        EXPECT_TRUE(patched) << "no step took the row patch";
      } else {
        EXPECT_TRUE(full) << "no step took the full build";
      }
    }
  });
}
