// Probe-parallel audits: sim::AuditSession's strong_connectivity_level
// (deletion probes fanned over the pool) and failure_resilience (Monte-Carlo
// trials with per-trial RNG streams) must be BIT-IDENTICAL at every thread
// count — same level, same mean/worst fractions to the last bit — because
// probes reduce by AND and trial fractions are recorded by index and reduced
// in trial order.  Both agree with a survivor-copy oracle: each failure
// trial copied into its own CSR and decomposed by plain Tarjan.  The
// sanitizer variants of scripts/check.sh run this suite
// with DIRANT_TEST_THREADS=4 so the pooled fan-outs execute on real workers
// under asan and tsan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "common/constants.hpp"
#include "core/planner.hpp"
#include "geometry/generators.hpp"
#include "graph/digraph.hpp"
#include "graph/scc.hpp"
#include "sim/audit.hpp"
#include "thread_counts.hpp"

namespace geom = dirant::geom;
namespace core = dirant::core;
namespace sim = dirant::sim;
namespace graph = dirant::graph;
using dirant::kPi;
using dirant::test::thread_counts;

namespace {

struct Instance {
  std::vector<geom::Point> pts;
  core::Result oriented;
};

std::vector<Instance> audit_instances() {
  std::vector<Instance> out;
  for (const auto& [dist, n, seed] :
       {std::tuple{geom::Distribution::kUniformSquare, 220, 1500},
        std::tuple{geom::Distribution::kClusters, 180, 1600}}) {
    geom::Rng rng(seed);
    Instance inst;
    inst.pts = geom::make_instance(dist, n, rng);
    inst.oriented = core::orient(inst.pts, {2, kPi});
    out.push_back(std::move(inst));
  }
  return out;
}

// failure_resilience's contract re-derived by copying: trial t draws its
// deletions from splitmix64(seed, t), the survivors are copied into a
// fresh CSR, and plain Tarjan finds its largest SCC.
std::uint64_t oracle_trial_seed(std::uint64_t seed, int t) {
  std::uint64_t z =
      seed + 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(t) + 1);
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ull;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z;
}

sim::FailureStats copy_oracle(const graph::Digraph& g, double fraction,
                              int trials, std::uint64_t seed) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  const int n = g.size();
  sim::FailureStats st;
  for (int t = 0; t < trials; ++t) {
    std::mt19937_64 rng(oracle_trial_seed(seed, t));
    std::vector<char> removed(n, 0);
    int alive = n;
    for (int v = 0; v < n; ++v) {
      if ((rng() % 1000000) / 1e6 < fraction && alive > 1) {
        removed[v] = 1;
        --alive;
      }
    }
    std::vector<int> remap(n, -1), offsets{0}, targets;
    int m = 0;
    for (int v = 0; v < n; ++v) {
      if (!removed[v]) remap[v] = m++;
    }
    for (int u = 0; u < n; ++u) {
      if (removed[u]) continue;
      for (int v : g.out(u)) {
        if (!removed[v]) targets.push_back(remap[v]);
      }
      offsets.push_back(static_cast<int>(targets.size()));
    }
    const auto scc = graph::strongly_connected_components(
        graph::Digraph(std::move(offsets), std::move(targets)));
    std::vector<int> sizes(scc.count, 0);
    for (int c : scc.component) ++sizes[c];
    const double frac =
        static_cast<double>(*std::max_element(sizes.begin(), sizes.end())) /
        m;
    st.mean_largest_scc += frac;
    st.worst_largest_scc = std::min(st.worst_largest_scc, frac);
  }
  st.trials = trials;
  st.mean_largest_scc /= trials;
  return st;
}

TEST(AuditParallel, ConnectivityLevelParityAcrossThreadCounts) {
  for (const auto& inst : audit_instances()) {
    sim::AuditSession serial;
    serial.load(inst.pts, inst.oriented.orientation);
    const int ref = serial.strong_connectivity_level(3);
    for (int t : thread_counts()) {
      sim::AuditSession session;
      session.set_threads(t);
      session.load(inst.pts, inst.oriented.orientation);
      EXPECT_EQ(session.strong_connectivity_level(3), ref)
          << "threads=" << t;
    }
  }
}

// Strongly connected, with `cut` as its only cut vertex: the other
// vertices form two bidirected cliques, joined only through `cut`, which is
// bidirected to all of them.
graph::Digraph one_cut_vertex(int n, int cut) {
  std::vector<int> others;
  for (int v = 0; v < n; ++v) {
    if (v != cut) others.push_back(v);
  }
  const int half = static_cast<int>(others.size()) / 2;
  graph::DigraphBuilder b(n);
  for (int i = 0; i < static_cast<int>(others.size()); ++i) {
    b.add_edge(cut, others[i]);
    b.add_edge(others[i], cut);
    for (int j = 0; j < static_cast<int>(others.size()); ++j) {
      if (i != j && (i < half) == (j < half)) b.add_edge(others[i], others[j]);
    }
  }
  return b.build();
}

TEST(AuditParallel, ProbeChunksCoverBothEnds) {
  // The only failing deletion probe sits at the last vertex, then at the
  // first: every chunking must still run it.  n = 23 divides evenly by
  // neither 3 nor 4, so the chunk bounds are uneven.
  const int n = 23;
  for (const int cut : {n - 1, 0}) {
    const graph::Digraph g = one_cut_vertex(n, cut);
    for (const int t : {1, 2, 3, 4}) {
      sim::AuditSession session;
      session.set_threads(t);
      session.bind(g);
      EXPECT_EQ(session.strong_connectivity_level(3), 1)
          << "cut=" << cut << " threads=" << t;
    }
  }
}

TEST(AuditParallel, ConnectivityLevelStaysWithinCap) {
  // The level lies in [0, max(max_level, 0)] for every graph and thread
  // count: the empty and one-vertex graphs read the cap itself, a
  // bidirected triangle survives any deletions (level 3), a path is not
  // strongly connected (level 0).
  graph::DigraphBuilder k3(3);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i != j) k3.add_edge(i, j);
    }
  }
  graph::DigraphBuilder path(3);
  path.add_edge(0, 1);
  path.add_edge(1, 2);
  const graph::Digraph empty = graph::DigraphBuilder(0).build();
  const graph::Digraph single = graph::DigraphBuilder(1).build();
  const graph::Digraph triangle = k3.build();
  const graph::Digraph line = path.build();
  for (const int t : {1, 4}) {
    sim::AuditSession session;
    session.set_threads(t);
    for (int max_level = -1; max_level <= 4; ++max_level) {
      const int cap = std::max(max_level, 0);
      const auto level = [&](const graph::Digraph& g) {
        session.bind(g);
        return session.strong_connectivity_level(max_level);
      };
      EXPECT_EQ(level(empty), cap) << "max_level=" << max_level;
      EXPECT_EQ(level(single), cap) << "max_level=" << max_level;
      EXPECT_EQ(level(triangle), std::min(cap, 3))
          << "max_level=" << max_level << " threads=" << t;
      EXPECT_EQ(level(line), 0) << "max_level=" << max_level;
    }
  }
}

TEST(AuditParallel, FailureResilienceBitIdenticalAcrossThreadCounts) {
  // EXPECT_EQ on the doubles, not EXPECT_NEAR: the per-trial RNG streams
  // and the in-order reduction make the report exactly reproducible, and a
  // weaker check would hide a worker-order-dependent reduction.
  for (const auto& inst : audit_instances()) {
    sim::AuditSession serial;
    serial.load(inst.pts, inst.oriented.orientation);
    const auto ref = copy_oracle(serial.digraph(), 0.15, 33, 99);
    ASSERT_EQ(ref.trials, 33);
    for (int t : thread_counts()) {
      sim::AuditSession session;
      session.set_threads(t);
      session.load(inst.pts, inst.oriented.orientation);
      const auto st = session.failure_resilience(0.15, 33, 99);
      EXPECT_EQ(st.trials, ref.trials) << "threads=" << t;
      EXPECT_EQ(st.mean_largest_scc, ref.mean_largest_scc)
          << "threads=" << t;
      EXPECT_EQ(st.worst_largest_scc, ref.worst_largest_scc)
          << "threads=" << t;
    }
  }
}

TEST(AuditParallel, DegenerateFractionsClampAndStayDeterministic) {
  // failure_resilience clamps its fraction to [0, 1]: out-of-range inputs
  // must behave exactly like the endpoints — same RNG stream, same report
  // bits — and the endpoints themselves have fixed semantics (<= 0 deletes
  // nothing; >= 1 deletes everything the one-survivor guard allows).
  const auto insts = audit_instances();
  const auto& inst = insts.front();
  sim::AuditSession session;
  session.load(inst.pts, inst.oriented.orientation);

  const auto zero = session.failure_resilience(0.0, 15, 42);
  for (const double f : {-0.5, 0.0, 0.3, 1.0, 1.5}) {
    const auto want = copy_oracle(session.digraph(), f, 15, 42);
    const auto got = session.failure_resilience(f, 15, 42);
    EXPECT_EQ(got.mean_largest_scc, want.mean_largest_scc) << "fraction " << f;
    EXPECT_EQ(got.worst_largest_scc, want.worst_largest_scc)
        << "fraction " << f;
  }
  const auto below = session.failure_resilience(-0.5, 15, 42);
  EXPECT_EQ(below.mean_largest_scc, zero.mean_largest_scc);
  EXPECT_EQ(below.worst_largest_scc, zero.worst_largest_scc);
  // Deleting nothing from a strongly connected graph keeps everything.
  EXPECT_EQ(zero.mean_largest_scc, 1.0);
  EXPECT_EQ(zero.worst_largest_scc, 1.0);

  const auto one = session.failure_resilience(1.0, 15, 42);
  const auto above = session.failure_resilience(1.5, 15, 42);
  EXPECT_EQ(above.mean_largest_scc, one.mean_largest_scc);
  EXPECT_EQ(above.worst_largest_scc, one.worst_largest_scc);
  // fraction 1 deletes all but the guard's lone survivor; the reported
  // fraction is largest SCC over SURVIVORS, and one node is trivially its
  // own SCC.
  EXPECT_EQ(one.worst_largest_scc, 1.0);
  EXPECT_EQ(one.mean_largest_scc, 1.0);

  // The clamp must not disturb thread-count parity either.
  for (int t : thread_counts()) {
    sim::AuditSession pooled;
    pooled.set_threads(t);
    pooled.load(inst.pts, inst.oriented.orientation);
    const auto st = pooled.failure_resilience(1.5, 15, 42);
    EXPECT_EQ(st.mean_largest_scc, one.mean_largest_scc) << "threads=" << t;
    EXPECT_EQ(st.worst_largest_scc, one.worst_largest_scc)
        << "threads=" << t;
  }
}

TEST(AuditParallel, ThreadKnobRoundTripKeepsResults) {
  // One session toggled serial -> pooled -> serial: the knob must never
  // change what the metrics say, and per-chunk worker scratch left behind
  // by the pooled pass must not leak into the serial one.
  geom::Rng rng(1700);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 200, rng);
  const auto res = core::orient(pts, {2, kPi});
  sim::AuditSession session;
  session.load(pts, res.orientation);

  const int level = session.strong_connectivity_level(3);
  const auto fail = session.failure_resilience(0.1, 21, 7);

  session.set_threads(4);
  EXPECT_EQ(session.strong_connectivity_level(3), level);
  const auto pooled = session.failure_resilience(0.1, 21, 7);
  EXPECT_EQ(pooled.mean_largest_scc, fail.mean_largest_scc);
  EXPECT_EQ(pooled.worst_largest_scc, fail.worst_largest_scc);

  session.set_threads(1);
  EXPECT_EQ(session.strong_connectivity_level(3), level);
  const auto back = session.failure_resilience(0.1, 21, 7);
  EXPECT_EQ(back.mean_largest_scc, fail.mean_largest_scc);
  EXPECT_EQ(back.worst_largest_scc, fail.worst_largest_scc);
}

TEST(AuditParallel, RepeatedPooledSweepsAreStable) {
  // Same pooled session, same inputs, repeated calls: recycled AuditWorker
  // scratch (masks, reach buffers, Tarjan scratch) must reproduce the
  // exact same report every time.
  geom::Rng rng(1800);
  const auto pts =
      geom::make_instance(geom::Distribution::kClusters, 160, rng);
  const auto res = core::orient(pts, {2, kPi});
  sim::AuditSession session;
  session.set_threads(4);
  session.load(pts, res.orientation);

  const int level = session.strong_connectivity_level(3);
  const auto first = session.failure_resilience(0.2, 25, 3);
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(session.strong_connectivity_level(3), level) << "rep " << rep;
    const auto again = session.failure_resilience(0.2, 25, 3);
    EXPECT_EQ(again.mean_largest_scc, first.mean_largest_scc)
        << "rep " << rep;
    EXPECT_EQ(again.worst_largest_scc, first.worst_largest_scc)
        << "rep " << rep;
  }
}

TEST(AuditParallel, FullReportParityAcrossThreadCounts) {
  // The one-call audit runs every metric off one digraph build; the pooled
  // session must agree with the serial one on all of them.
  geom::Rng rng(1900);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 150, rng);
  const auto res = core::orient(pts, {2, kPi});
  sim::AuditOptions opts;
  opts.failure_trials = 10;
  opts.routing_samples = 50;

  sim::AuditSession serial;
  const auto ref = serial.full_report(pts, res.orientation, opts);
  for (int t : thread_counts()) {
    sim::AuditSession session;
    session.set_threads(t);
    EXPECT_EQ(session.threads(), std::max(1, t));
    const auto rep = session.full_report(pts, res.orientation, opts);
    EXPECT_EQ(rep.strongly_connected, ref.strongly_connected);
    EXPECT_EQ(rep.scc_count, ref.scc_count);
    EXPECT_EQ(rep.connectivity_level, ref.connectivity_level);
    EXPECT_EQ(rep.failure.mean_largest_scc, ref.failure.mean_largest_scc);
    EXPECT_EQ(rep.failure.worst_largest_scc, ref.failure.worst_largest_scc);
    EXPECT_EQ(rep.flood.mean_rounds, ref.flood.mean_rounds);
    EXPECT_EQ(rep.flood.min_delivery, ref.flood.min_delivery);
    EXPECT_EQ(rep.stretch.mean_stretch, ref.stretch.mean_stretch);
    EXPECT_EQ(rep.routing.delivery_rate, ref.routing.delivery_rate);
    EXPECT_EQ(rep.routing.mean_stretch, ref.routing.mean_stretch);
    EXPECT_EQ(rep.energy.total, ref.energy.total);
  }
}

}  // namespace
