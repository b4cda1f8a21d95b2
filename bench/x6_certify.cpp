// X6 — certification scaling study: induced-digraph build + SCC wall time
// across n for k=2, phi=pi orientations.  Times the CSR pipeline
// (induced_digraph_fast emitting straight into CSR, scratch-reusing Tarjan)
// against a faithful reimplementation of the pre-refactor adjacency-list
// path (vector-of-vectors digraph, per-bucket-vector grid, per-vertex
// sort+clear dance, allocating Tarjan), plus two more variants per n:
//   * fresh-scratch certify (cold TransmissionScratch per call) vs the
//     warm recycled path — the GridIndex::rebuild win; both rows also
//     record their operator-new call count (global-new hook, counted in
//     untimed passes), so the warm path's zero-allocation steady state is
//     part of the recorded trajectory, not just a test assertion;
//   * the sharded build at several thread counts (real ThreadPool workers)
//     vs the serial build — bit-identical output, parallel wall clock.
// One more sweep rides along: audit_parallel — AuditSession's
// probe-parallel strong_connectivity_level and trial-parallel
// failure_resilience at several thread counts vs the serial session
// (bit-identical metrics, verified in-run).
// Writes "certify" / "certify_parallel" / "audit_parallel" sections of
// BENCH_scaling.json so the speedups are part of the recorded perf
// trajectory.  Every parallel row carries the box's hw_threads and
// measured real_cores, so a ~1x speedup on a 1-core or contended machine
// is never mistaken for a regression.
//
// Smoke mode (DIRANT_BENCH_SMOKE=1): tiny sizes so ctest can keep this
// binary from bit-rotting without paying the full sweep.
// DIRANT_X6_THREADS=t / DIRANT_X6_AUDIT_THREADS=t add a shard count to the
// parallel sweeps (the bench_smoke_x6_certify_parallel and
// bench_smoke_x6_audit ctest entries exercise the pooled paths with them).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "bench_common.hpp"
#include "antenna/transmission.hpp"
#include "common/constants.hpp"
#include "core/planner.hpp"
#include "graph/scc.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/audit.hpp"

namespace geom = dirant::geom;
namespace core = dirant::core;
namespace antenna = dirant::antenna;
namespace graph = dirant::graph;
using dirant::kPi;
using geom::Point;

namespace {

using dirant::bench::format;
using dirant::bench::time_ms;
using dirant::test::count_allocations;

// ---------------------------------------------------------------------
// Pre-refactor baseline, reproduced verbatim in spirit: adjacency lists as
// vector-of-vectors, a bucket grid whose cells are themselves vectors, the
// per-vertex sort+unmark dance, and a Tarjan that allocates per call.
// ---------------------------------------------------------------------

struct LegacyGrid {
  std::vector<Point> pts;
  double cell;
  double min_x = 0, min_y = 0;
  int nx = 1, ny = 1;
  std::vector<std::vector<int>> buckets;

  LegacyGrid(std::span<const Point> p, double c)
      : pts(p.begin(), p.end()), cell(c) {
    if (pts.empty()) {
      buckets.resize(1);
      return;
    }
    double max_x = pts[0].x, max_y = pts[0].y;
    min_x = pts[0].x;
    min_y = pts[0].y;
    for (const auto& q : pts) {
      min_x = std::min(min_x, q.x);
      min_y = std::min(min_y, q.y);
      max_x = std::max(max_x, q.x);
      max_y = std::max(max_y, q.y);
    }
    nx = std::max(1, static_cast<int>((max_x - min_x) / cell) + 1);
    ny = std::max(1, static_cast<int>((max_y - min_y) / cell) + 1);
    buckets.resize(static_cast<size_t>(nx) * ny);
    for (size_t i = 0; i < pts.size(); ++i) {
      const auto [cx, cy] = cell_of(pts[i]);
      buckets[static_cast<size_t>(cy) * nx + cx].push_back(
          static_cast<int>(i));
    }
  }

  std::pair<int, int> cell_of(const Point& p) const {
    int cx = static_cast<int>((p.x - min_x) / cell);
    int cy = static_cast<int>((p.y - min_y) / cell);
    cx = std::clamp(cx, 0, nx - 1);
    cy = std::clamp(cy, 0, ny - 1);
    return {cx, cy};
  }

  void within(const Point& q, double radius, int exclude,
              std::vector<int>& out) const {
    if (pts.empty()) return;
    const double r2 = radius * radius;
    const int span = static_cast<int>(std::ceil(radius / cell));
    const auto [cx, cy] = cell_of(q);
    for (int y = std::max(0, cy - span); y <= std::min(ny - 1, cy + span);
         ++y) {
      for (int x = std::max(0, cx - span); x <= std::min(nx - 1, cx + span);
           ++x) {
        for (int i : buckets[static_cast<size_t>(y) * nx + x]) {
          if (i == exclude) continue;
          if (geom::dist2(q, pts[i]) <= r2) out.push_back(i);
        }
      }
    }
  }
};

// Seed-era induced digraph: adjacency lists built with push_back, rows
// deduped through a seen[] mask and sorted per vertex.
std::vector<std::vector<int>> legacy_induced_digraph(
    std::span<const Point> pts, const antenna::Orientation& o) {
  const int n = static_cast<int>(pts.size());
  std::vector<std::vector<int>> out(n);
  if (n == 0) return out;
  const double rmax = o.max_radius();
  if (rmax <= 0.0) return out;
  LegacyGrid grid(pts, std::max(rmax / 2.0, 1e-12));
  std::vector<char> seen(n, 0);
  std::vector<int> touched;
  std::vector<int> candidates;
  for (int u = 0; u < n; ++u) {
    touched.clear();
    for (const auto& s : o.antennas(u)) {
      candidates.clear();
      grid.within(pts[u], s.radius + dirant::kRadiusAbsTol + 1e-12, u,
                  candidates);
      for (int v : candidates) {
        if (seen[v]) continue;
        if (s.contains(pts[u], pts[v])) {
          seen[v] = 1;
          touched.push_back(v);
        }
      }
    }
    std::sort(touched.begin(), touched.end());
    for (int v : touched) {
      out[u].push_back(v);
      seen[v] = 0;
    }
  }
  return out;
}

// Seed-era Tarjan: allocates its index/low/stack/frame vectors per call and
// walks vector-of-vectors adjacency.
int legacy_scc_count(const std::vector<std::vector<int>>& out) {
  const int n = static_cast<int>(out.size());
  std::vector<int> component(n, -1);
  int count = 0;
  std::vector<int> index(n, -1), low(n, 0);
  std::vector<char> on_stack(n, 0);
  std::vector<int> stack;
  int next_index = 0;
  struct Frame {
    int v;
    size_t child;
  };
  std::vector<Frame> frames;
  for (int root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    frames.push_back({root, 0});
    while (!frames.empty()) {
      Frame& f = frames.back();
      const int v = f.v;
      if (f.child == 0) {
        index[v] = low[v] = next_index++;
        stack.push_back(v);
        on_stack[v] = 1;
      }
      bool descended = false;
      const auto& outs = out[v];
      while (f.child < outs.size()) {
        const int w = outs[f.child++];
        if (index[w] == -1) {
          frames.push_back({w, 0});
          descended = true;
          break;
        }
        if (on_stack[w]) low[v] = std::min(low[v], index[w]);
      }
      if (descended) continue;
      if (low[v] == index[v]) {
        while (true) {
          const int w = stack.back();
          stack.pop_back();
          on_stack[w] = 0;
          component[w] = count;
          if (w == v) break;
        }
        ++count;
      }
      frames.pop_back();
      if (!frames.empty()) {
        const int parent = frames.back().v;
        low[parent] = std::min(low[parent], low[v]);
      }
    }
  }
  return count;
}

struct CertifyRow {
  int n = 0;
  double csr_ms = 0.0;
  double fresh_ms = 0.0;  ///< cold-scratch certify (per-call grid build)
  double legacy_ms = 0.0;
  int scc_count = 0;
  double speedup = 0.0;          ///< legacy / warm csr
  double rebuild_speedup = 0.0;  ///< fresh / warm csr (GridIndex recycling)
  long long warm_allocs = 0;   ///< operator-new calls, warm recycled pass
  long long fresh_allocs = 0;  ///< operator-new calls, cold-scratch pass
};

struct AuditRow {
  int n = 0;
  int threads = 0;          ///< 1 = the serial session baseline
  double level_ms = 0.0;    ///< strong_connectivity_level (deletion probes)
  double failure_ms = 0.0;  ///< failure_resilience Monte-Carlo trials
  double level_speedup = 0.0;    ///< serial level_ms / this level_ms
  double failure_speedup = 0.0;  ///< serial failure_ms / this failure_ms
};

DIRANT_REPORT(x6) {
  using dirant::bench::add_env_threads;
  using dirant::bench::section;
  const auto& [smoke, hw_threads, real_cores] = dirant::bench::environment();
  section(
      "X6 — certification scaling: digraph build + SCC (k=2, phi=pi), "
      "warm vs fresh scratch, serial vs sharded");
  std::vector<int> sizes = smoke ? std::vector<int>{500, 1500}
                                 : std::vector<int>{10000, 50000, 200000,
                                                    1000000};
  // Shard counts for the parallel rows; threads=1 is the serial bar above.
  std::vector<int> thread_set = smoke ? std::vector<int>{2}
                                      : std::vector<int>{2, 4};
  add_env_threads("DIRANT_X6_THREADS", thread_set);
  std::printf(
      "n        threads  csr-ms     fresh-ms   legacy-ms   vs-legacy  "
      "vs-fresh  scc\n");
  std::printf(
      "------------------------------------------------------------------"
      "---------\n");

  // Persistent scratch: the steady-state certify path allocates nothing
  // (the grid index is recycled via rebuild; "fresh" rows construct a cold
  // scratch per call to price exactly that recycling).
  antenna::TransmissionScratch tx;
  graph::SccScratch scc_scratch;
  std::vector<antenna::TransmissionScratch> par_tx(thread_set.size());
  // Rendered BENCH_scaling.json rows, one vector per section.
  std::vector<std::string> certify_json, certify_par_json, audit_json;
  for (int n : sizes) {
    geom::Rng rng(61000 + n);
    const auto pts =
        geom::make_instance(geom::Distribution::kUniformSquare, n, rng);
    const auto res = core::orient(pts, {2, kPi});
    const auto& o = res.orientation;
    const int reps = smoke ? 3 : (n <= 200000 ? 5 : 1);

    CertifyRow row;
    row.n = n;
    row.csr_ms = std::numeric_limits<double>::infinity();
    row.fresh_ms = std::numeric_limits<double>::infinity();
    row.legacy_ms = std::numeric_limits<double>::infinity();
    std::vector<double> par_ms(thread_set.size(),
                               std::numeric_limits<double>::infinity());
    int legacy_count = -1;
    std::vector<std::unique_ptr<dirant::par::ThreadPool>> pools;
    for (int t : thread_set) {
      pools.push_back(std::make_unique<dirant::par::ThreadPool>(
          static_cast<unsigned>(t)));
    }
    // The warm recycled pass and the cold-scratch pass: each is timed in
    // the reps below, then counted once in an untimed pass.
    const auto warm_pass = [&] {
      graph::Digraph g = antenna::induced_digraph_fast(
          pts, o, dirant::kAngleTol, dirant::kRadiusAbsTol, tx);
      const int count = graph::scc_count(g, scc_scratch);
      benchmark::DoNotOptimize(count);
      row.scc_count = count;
      std::move(g).release(tx.offsets, tx.targets);
    };
    const auto fresh_pass = [&] {
      antenna::TransmissionScratch cold_tx;
      graph::SccScratch cold_scc;
      graph::Digraph g = antenna::induced_digraph_fast(
          pts, o, dirant::kAngleTol, dirant::kRadiusAbsTol, cold_tx);
      const int count = graph::scc_count(g, cold_scc);
      benchmark::DoNotOptimize(count);
    };
    // Interleave every path rep by rep: on a shared box, frequency drift
    // mid-row would otherwise bias whichever side ran last.
    for (int rep = 0; rep < reps; ++rep) {
      row.csr_ms = std::min(row.csr_ms, time_ms(warm_pass));
      row.fresh_ms = std::min(row.fresh_ms, time_ms(fresh_pass));
      for (size_t ti = 0; ti < thread_set.size(); ++ti) {
        par_ms[ti] = std::min(par_ms[ti], time_ms([&] {
                       graph::Digraph g = antenna::induced_digraph_fast(
                           pts, o, dirant::kAngleTol, dirant::kRadiusAbsTol,
                           par_tx[ti], thread_set[ti], pools[ti].get());
                       const int count = graph::scc_count(g, scc_scratch);
                       benchmark::DoNotOptimize(count);
                       std::move(g).release(par_tx[ti].offsets,
                                            par_tx[ti].targets);
                     }));
      }
      row.legacy_ms = std::min(row.legacy_ms, time_ms([&] {
                        const auto adj = legacy_induced_digraph(pts, o);
                        legacy_count = legacy_scc_count(adj);
                        benchmark::DoNotOptimize(legacy_count);
                      }));
    }
    if (legacy_count != row.scc_count) {
      std::printf("WARNING: scc mismatch at n=%d (csr %d vs legacy %d)\n", n,
                  row.scc_count, legacy_count);
    }
    // Untimed counting passes: the operator-new tally of each variant.
    // The warm count is the recycling story (0 in steady state — the
    // buffers above are already at their high-water mark); the fresh
    // count prices cold scratch construction per call.
    row.warm_allocs = count_allocations(warm_pass);
    row.fresh_allocs = count_allocations(fresh_pass);
    row.speedup = row.legacy_ms / std::max(row.csr_ms, 1e-9);
    row.rebuild_speedup = row.fresh_ms / std::max(row.csr_ms, 1e-9);
    std::printf(
        "%-8d %-8d %8.2f   %8.2f   %9.2f   %7.2fx  %6.2fx   %-6d "
        "allocs=%lld/%lld\n",
        n, 1, row.csr_ms, row.fresh_ms, row.legacy_ms, row.speedup,
        row.rebuild_speedup, row.scc_count, row.warm_allocs,
        row.fresh_allocs);
    for (size_t ti = 0; ti < thread_set.size(); ++ti) {
      const double speedup = row.csr_ms / std::max(par_ms[ti], 1e-9);
      std::printf("%-8d %-8d %8.2f   %8s   %9s   %7s  %5.2fx*  (*vs serial "
                  "csr)\n",
                  n, thread_set[ti], par_ms[ti], "-", "-", "-", speedup);
      certify_par_json.push_back(
          format("{\"n\": %d, \"threads\": %d, \"ms\": %g, "
                 "\"speedup_vs_serial\": %g, \"hw_threads\": %u, "
                 "\"real_cores\": %.2f}",
                 n, thread_set[ti], par_ms[ti], speedup, hw_threads,
                 real_cores));
    }
    certify_json.push_back(format(
        "{\"n\": %d, \"csr_ms\": %g, \"fresh_scratch_ms\": %g, "
        "\"legacy_adjlist_ms\": %g, \"scc_count\": %d, \"speedup\": %g, "
        "\"rebuild_speedup\": %g, \"warm_allocs\": %lld, "
        "\"fresh_allocs\": %lld}",
        row.n, row.csr_ms, row.fresh_ms, row.legacy_ms, row.scc_count,
        row.speedup, row.rebuild_speedup, row.warm_allocs, row.fresh_allocs));
  }
  // ---- Probe-parallel audits: AuditSession at several thread counts ----
  // The serial session (threads=1) is the baseline; pooled sessions fan the
  // n deletion probes and the Monte-Carlo trials over real workers.  The
  // metrics are bit-identical at every thread count (per-trial RNG streams,
  // order-independent reductions) — verified in-run, not assumed.
  section("X6 — probe-parallel audits: connectivity level + failure "
          "resilience (audit_parallel)");
  const auto audit_row_json = [&](const AuditRow& r) {
    return format(
        "{\"n\": %d, \"threads\": %d, \"level_ms\": %g, \"failure_ms\": %g, "
        "\"level_speedup\": %g, \"failure_speedup\": %g, "
        "\"hw_threads\": %u, \"real_cores\": %.2f}",
        r.n, r.threads, r.level_ms, r.failure_ms, r.level_speedup,
        r.failure_speedup, hw_threads, real_cores);
  };
  {
    std::vector<int> audit_threads = smoke ? std::vector<int>{2}
                                           : std::vector<int>{2, 4};
    add_env_threads("DIRANT_X6_AUDIT_THREADS", audit_threads);
    const std::vector<int> audit_sizes = smoke ? std::vector<int>{300}
                                               : std::vector<int>{2000, 5000};
    const int trials = smoke ? 8 : 40;
    const double fraction = 0.1;
    const std::uint64_t audit_seed = 7;
    std::printf("n       threads  level-ms   failure-ms  (hw=%u, real=%.2f)\n",
                hw_threads, real_cores);
    std::printf("-----------------------------------------------\n");
    for (int an : audit_sizes) {
      geom::Rng rng(67000 + an);
      const auto pts =
          geom::make_instance(geom::Distribution::kUniformSquare, an, rng);
      const auto res = core::orient(pts, {2, kPi});
      dirant::sim::AuditSession session;
      session.load(pts, res.orientation);
      const int reps = smoke ? 2 : 3;
      AuditRow serial_row;
      serial_row.n = an;
      serial_row.threads = 1;
      serial_row.level_ms = std::numeric_limits<double>::infinity();
      serial_row.failure_ms = std::numeric_limits<double>::infinity();
      int serial_level = -1;
      double serial_mean = -1.0;
      for (int rep = 0; rep < reps; ++rep) {
        serial_row.level_ms =
            std::min(serial_row.level_ms, time_ms([&] {
                       serial_level = session.strong_connectivity_level(2);
                       benchmark::DoNotOptimize(serial_level);
                     }));
        serial_row.failure_ms =
            std::min(serial_row.failure_ms, time_ms([&] {
                       const auto st = session.failure_resilience(
                           fraction, trials, audit_seed);
                       serial_mean = st.mean_largest_scc;
                       benchmark::DoNotOptimize(serial_mean);
                     }));
      }
      serial_row.level_speedup = 1.0;
      serial_row.failure_speedup = 1.0;
      std::printf("%-7d %-8d %8.2f   %9.2f\n", an, 1, serial_row.level_ms,
                  serial_row.failure_ms);
      audit_json.push_back(audit_row_json(serial_row));
      for (int t : audit_threads) {
        session.set_threads(t);
        AuditRow row;
        row.n = an;
        row.threads = t;
        row.level_ms = std::numeric_limits<double>::infinity();
        row.failure_ms = std::numeric_limits<double>::infinity();
        int level = -1;
        double mean = -1.0;
        for (int rep = 0; rep < reps; ++rep) {
          row.level_ms = std::min(row.level_ms, time_ms([&] {
                           level = session.strong_connectivity_level(2);
                           benchmark::DoNotOptimize(level);
                         }));
          row.failure_ms =
              std::min(row.failure_ms, time_ms([&] {
                         const auto st = session.failure_resilience(
                             fraction, trials, audit_seed);
                         mean = st.mean_largest_scc;
                         benchmark::DoNotOptimize(mean);
                       }));
        }
        if (level != serial_level || mean != serial_mean) {
          std::printf("WARNING: audit mismatch at n=%d t=%d (level %d vs "
                      "%d, mean %.17g vs %.17g)\n",
                      an, t, serial_level, level, serial_mean, mean);
        }
        row.level_speedup =
            serial_row.level_ms / std::max(row.level_ms, 1e-9);
        row.failure_speedup =
            serial_row.failure_ms / std::max(row.failure_ms, 1e-9);
        std::printf("%-7d %-8d %8.2f   %9.2f   (%4.2fx / %4.2fx)\n", an, t,
                    row.level_ms, row.failure_ms, row.level_speedup,
                    row.failure_speedup);
        audit_json.push_back(audit_row_json(row));
      }
      session.set_threads(1);
    }
  }

  using dirant::bench::json_array;
  dirant::bench::record_sections(
      {{"certify", json_array(certify_json)},
       {"certify_parallel", json_array(certify_par_json)},
       {"audit_parallel", json_array(audit_json)}});
}

void BM_certify_csr(benchmark::State& state) {
  geom::Rng rng(62);
  const auto pts = geom::make_instance(geom::Distribution::kUniformSquare,
                                       static_cast<int>(state.range(0)), rng);
  const auto res = core::orient(pts, {2, kPi});
  antenna::TransmissionScratch tx;
  graph::SccScratch scratch;
  for (auto _ : state) {
    graph::Digraph g = antenna::induced_digraph_fast(
        pts, res.orientation, dirant::kAngleTol, dirant::kRadiusAbsTol, tx);
    const int count = graph::scc_count(g, scratch);
    benchmark::DoNotOptimize(count);
    std::move(g).release(tx.offsets, tx.targets);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_certify_csr)->RangeMultiplier(4)->Range(1024, 65536)->Complexity();

void BM_scc_only_csr(benchmark::State& state) {
  geom::Rng rng(63);
  const auto pts = geom::make_instance(geom::Distribution::kUniformSquare,
                                       static_cast<int>(state.range(0)), rng);
  const auto res = core::orient(pts, {2, kPi});
  const auto g = antenna::induced_digraph_fast(pts, res.orientation);
  graph::SccScratch scratch;
  graph::SccResult scc;
  for (auto _ : state) {
    graph::strongly_connected_components(g, scratch, scc);
    benchmark::DoNotOptimize(scc.count);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_scc_only_csr)
    ->RangeMultiplier(4)
    ->Range(1024, 65536)
    ->Complexity();

}  // namespace

DIRANT_BENCH_MAIN()
