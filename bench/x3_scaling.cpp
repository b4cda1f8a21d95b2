// X3 — engineering scaling study: EMST engines (Prim O(n^2) vs
// Delaunay+Kruskal), orientation algorithms, and transmission-graph
// construction across n.  Writes its emst_orient / session_reuse / batch
// sections of BENCH_scaling.json (n, engine, wall-ms, speedup) so later PRs
// have a perf trajectory to regress against, and uses core::orient_batch
// for the Monte-Carlo throughput measurement.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "antenna/transmission.hpp"
#include "common/constants.hpp"
#include "core/batch.hpp"
#include "core/planner.hpp"
#include "core/session.hpp"
#include "core/yao_baseline.hpp"
#include "delaunay/delaunay.hpp"
#include "mst/engine.hpp"
#include "parallel/thread_pool.hpp"

namespace geom = dirant::geom;
namespace core = dirant::core;
namespace mst = dirant::mst;
using dirant::kPi;

namespace {

using dirant::bench::format;
using dirant::bench::time_ms;

DIRANT_REPORT(x3) {
  using dirant::bench::section;
  // Smoke mode: tiny sizes, just enough to prove the bench still builds
  // and runs.  The parallel row records hw_threads and real_cores next to
  // its pool size: a ~1x pooled speedup with either near 1 is the box, not
  // a regression.
  const auto& [smoke, hw_threads, real_cores] = dirant::bench::environment();
  section("X3 — EMST+orient wall time per engine (BENCH_scaling.json)");
  std::vector<std::string> orient_json;

  std::printf("n       engine             wall-ms    speedup\n");
  std::printf("---------------------------------------------\n");
  const core::ProblemSpec spec{2, kPi};
  const mst::EmstEngine prim({mst::EngineKind::kPrim});
  const mst::EmstEngine& fast = mst::EmstEngine::shared();
  const std::vector<int> sizes = smoke ? std::vector<int>{200, 400}
                                       : std::vector<int>{500, 1000, 2000,
                                                          5000};
  for (int n : sizes) {
    geom::Rng rng(31000 + n);
    const auto pts =
        geom::make_instance(geom::Distribution::kUniformSquare, n, rng);
    double ms[2] = {0.0, 0.0};
    const mst::EmstEngine* engines[2] = {&prim, &fast};
    const char* names[2] = {"prim", "delaunay-kruskal"};
    for (int e = 0; e < 2; ++e) {
      // Best of three: single-shot timings on a shared box swing enough to
      // corrupt the recorded trajectory.
      ms[e] = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < 3; ++rep) {
        ms[e] = std::min(ms[e], time_ms([&] {
                  const auto tree = engines[e]->degree5(pts);
                  const auto res = core::orient_on_tree(pts, tree, spec);
                  benchmark::DoNotOptimize(res.measured_radius);
                }));
      }
    }
    for (int e = 0; e < 2; ++e) {
      const double speedup = ms[0] / std::max(ms[e], 1e-9);
      std::printf("%-7d %-18s %8.2f   %7.2fx\n", n, names[e], ms[e], speedup);
      orient_json.push_back(format("{\"n\": %d, \"engine\": \"%s\", "
                                   "\"wall_ms\": %.3f, \"speedup\": %.3f}",
                                   n, names[e], ms[e], speedup));
    }
  }

  section("X3 — session reuse (fresh orient() vs warm PlanSession)");
  // Per-call overhead of rebuilding every pipeline stage from scratch vs
  // streaming through one warm session (steady-state zero allocation).
  std::string session_json;
  {
    const int sn = smoke ? 200 : 5000;
    geom::Rng rng(47000 + sn);
    const auto pts =
        geom::make_instance(geom::Distribution::kUniformSquare, sn, rng);
    const int calls = smoke ? 3 : 10;
    // Fresh pipeline per call: new session each time, so every stage
    // re-allocates — this is what a sessionless caller pays.
    double fresh_ms = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      fresh_ms = std::min(fresh_ms, time_ms([&] {
                   for (int c = 0; c < calls; ++c) {
                     core::PlanSession session;
                     benchmark::DoNotOptimize(
                         session.orient(pts, spec).measured_radius);
                   }
                 }) / calls);
    }
    core::PlanSession warm;
    warm.orient(pts, spec);  // outside the timer: pay warm-up once
    double warm_ms = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      warm_ms = std::min(warm_ms, time_ms([&] {
                  for (int c = 0; c < calls; ++c) {
                    benchmark::DoNotOptimize(
                        warm.orient(pts, spec).measured_radius);
                  }
                }) / calls);
    }
    const double reuse_speedup = fresh_ms / std::max(warm_ms, 1e-9);
    std::printf(
        "session reuse (n=%d, k=%d): fresh %.3fms/call, warm %.3fms/call "
        "(%.2fx)\n",
        sn, spec.k, fresh_ms, warm_ms, reuse_speedup);
    session_json = format(
        "{\"n\": %d, \"k\": %d, \"fresh_ms\": %.3f, \"warm_ms\": %.3f, "
        "\"speedup\": %.3f}",
        sn, spec.k, fresh_ms, warm_ms, reuse_speedup);
  }

  section("X3 — Monte-Carlo batch throughput (core::orient_batch)");
  // Full pipeline runs (EMST + orient k=2) per second, serial vs pooled.
  const int instances = smoke ? 4 : 24, n = smoke ? 100 : 300;
  std::vector<std::vector<geom::Point>> inputs;
  for (int i = 0; i < instances; ++i) {
    geom::Rng rng(9000 + i);
    inputs.push_back(
        geom::make_instance(geom::Distribution::kUniformSquare, n, rng));
  }
  core::BatchOptions serial_opts;
  serial_opts.parallel = false;
  const double serial_ms =
      time_ms([&] { benchmark::DoNotOptimize(core::orient_batch(inputs, spec, serial_opts)); });
  const double pooled_ms =
      time_ms([&] { benchmark::DoNotOptimize(core::orient_batch(inputs, spec)); });
  // Record the pool size, the machine's hardware concurrency AND the cores
  // it measurably delivered: a ~1x batch speedup with hw_threads == 1 or
  // real_cores ~1 is the box, not a regression — the row documents its own
  // context so nobody quotes it against multi-core expectations.
  const unsigned threads = dirant::par::global_pool().thread_count();
  const double batch_speedup = serial_ms / std::max(pooled_ms, 1e-9);
  std::printf(
      "batch (n=%d) x %d instances: serial %.1fms, pooled %.1fms "
      "(%.2fx, %u pool threads, %u hw threads, %.2f real cores)\n",
      n, instances, serial_ms, pooled_ms, batch_speedup, threads,
      hw_threads, real_cores);
  dirant::bench::record_sections(
      {{"emst_orient", dirant::bench::json_array(orient_json)},
       {"session_reuse", session_json},
       {"batch", format("{\"instances\": %d, \"n\": %d, \"serial_ms\": %.3f, "
                        "\"pooled_ms\": %.3f, \"threads\": %u, "
                        "\"hw_threads\": %u, \"real_cores\": %.2f, "
                        "\"speedup\": %.3f}",
                        instances, n, serial_ms, pooled_ms, threads,
                        hw_threads, real_cores, batch_speedup)}});
}

void BM_emst_prim(benchmark::State& state) {
  geom::Rng rng(20);
  const auto pts = geom::make_instance(geom::Distribution::kUniformSquare,
                                       static_cast<int>(state.range(0)), rng);
  const mst::EmstEngine prim({mst::EngineKind::kPrim});
  for (auto _ : state) {
    auto t = prim.emst(pts);
    benchmark::DoNotOptimize(t);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_emst_prim)->RangeMultiplier(4)->Range(256, 4096)->Complexity();

void BM_emst_delaunay(benchmark::State& state) {
  geom::Rng rng(21);
  const auto pts = geom::make_instance(geom::Distribution::kUniformSquare,
                                       static_cast<int>(state.range(0)), rng);
  const mst::EmstEngine dk({mst::EngineKind::kDelaunayKruskal});
  for (auto _ : state) {
    auto t = dk.emst(pts);
    benchmark::DoNotOptimize(t);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_emst_delaunay)
    ->RangeMultiplier(4)
    ->Range(256, 16384)
    ->Complexity();

void BM_delaunay_only(benchmark::State& state) {
  geom::Rng rng(22);
  const auto pts = geom::make_instance(geom::Distribution::kUniformSquare,
                                       static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    auto t = dirant::delaunay::triangulate(pts);
    benchmark::DoNotOptimize(t);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_delaunay_only)
    ->RangeMultiplier(4)
    ->Range(256, 16384)
    ->Complexity();

void BM_transmission_fast(benchmark::State& state) {
  geom::Rng rng(23);
  const auto pts = geom::make_instance(geom::Distribution::kUniformSquare,
                                       static_cast<int>(state.range(0)), rng);
  const auto res = core::orient(pts, {2, kPi});
  for (auto _ : state) {
    auto g = dirant::antenna::induced_digraph_fast(pts, res.orientation);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_transmission_fast)->Arg(1000)->Arg(4000);

void BM_full_pipeline(benchmark::State& state) {
  geom::Rng rng(24);
  const auto pts = geom::make_instance(geom::Distribution::kUniformSquare,
                                       static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    auto res = core::orient(pts, {2, kPi});
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_full_pipeline)->Arg(500)->Arg(2000);

void BM_yao_grid(benchmark::State& state) {
  geom::Rng rng(26);
  const auto pts = geom::make_instance(geom::Distribution::kUniformSquare,
                                       static_cast<int>(state.range(0)), rng);
  const double lmax = mst::EmstEngine::shared().lmax(pts);
  for (auto _ : state) {
    auto res = core::orient_yao(pts, 6, 0.0, lmax);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_yao_grid)->Arg(1000)->Arg(4000);

}  // namespace

DIRANT_BENCH_MAIN()
