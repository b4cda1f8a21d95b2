// X3 — engineering scaling study: EMST engines (Prim O(n^2) vs
// Delaunay+Kruskal), orientation algorithms, and transmission-graph
// construction across n.  Writes its emst_orient / emst_parallel /
// session_reuse / batch sections of BENCH_scaling.json (n, engine, wall-ms,
// speedup) so later PRs have a perf trajectory to regress against, and
// uses core::orient_batch for the Monte-Carlo throughput measurement.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
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
#include "mst/boruvka.hpp"
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
  // and runs.  Every parallel row records hw_threads next to its pool
  // size: a ~1x pooled speedup with hw_threads == 1 is the box, not a
  // regression.
  const auto& [smoke, hw_threads] = dirant::bench::environment();
  section("X3 — EMST+orient wall time per engine (BENCH_scaling.json)");
  std::vector<std::string> orient_json, parallel_json;

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

  section("X3 — pool-parallel Boruvka EMST vs serial Kruskal "
          "(emst_parallel)");
  // End-to-end EMST (Delaunay + accept pass) through EmstEngine: threads=1
  // is the serial Kruskal path, threads>1 routes to the pool-parallel
  // filter-Boruvka over the same candidate set.  Identical tree either way
  // (shared exact total order) — these rows price the wall clock only.
  // DIRANT_X3_EMST_THREADS=t adds a shard count (the
  // bench_smoke_x3_emst_parallel ctest entry exercises the pooled engine
  // with it).
  {
    std::vector<int> emst_threads = smoke ? std::vector<int>{2}
                                          : std::vector<int>{2, 4};
    dirant::bench::add_env_threads("DIRANT_X3_EMST_THREADS", emst_threads);
    const std::vector<int> emst_sizes =
        smoke ? std::vector<int>{400}
              : std::vector<int>{2000, 10000, 50000};
    std::printf("n       threads  wall-ms    vs-serial  (hw=%u)\n",
                hw_threads);
    std::printf("---------------------------------------------\n");
    mst::EmstScratch serial_scratch;
    std::vector<mst::EmstScratch> par_scratch(emst_threads.size());
    mst::Tree serial_tree, par_tree;
    for (int en : emst_sizes) {
      geom::Rng rng(53000 + en);
      const auto pts =
          geom::make_instance(geom::Distribution::kUniformSquare, en, rng);
      std::vector<std::unique_ptr<dirant::par::ThreadPool>> pools;
      for (int t : emst_threads) {
        pools.push_back(std::make_unique<dirant::par::ThreadPool>(
            static_cast<unsigned>(t)));
      }
      double serial_ms = std::numeric_limits<double>::infinity();
      std::vector<double> par_ms(emst_threads.size(),
                                 std::numeric_limits<double>::infinity());
      // Interleave rep by rep so frequency drift cannot bias one side.
      for (int rep = 0; rep < 3; ++rep) {
        serial_ms = std::min(serial_ms, time_ms([&] {
                      fast.emst(pts, serial_tree, serial_scratch);
                      benchmark::DoNotOptimize(serial_tree.total_weight());
                    }));
        for (size_t ti = 0; ti < emst_threads.size(); ++ti) {
          par_ms[ti] = std::min(par_ms[ti], time_ms([&] {
                         fast.emst(pts, par_tree, par_scratch[ti],
                                   emst_threads[ti], pools[ti].get());
                         benchmark::DoNotOptimize(par_tree.total_weight());
                       }));
        }
      }
      // Relative tolerance, not exact: the serial baseline (Kruskal) and
      // the parallel engine (Boruvka) accept the SAME unique edge set but
      // sum it in different orders, so the last float bits of the total
      // legitimately differ.  Edge-set identity is enforced exactly by
      // tests/test_boruvka.cpp.
      const double wdiff =
          std::abs(par_tree.total_weight() - serial_tree.total_weight());
      if (wdiff > 1e-9 * (1.0 + serial_tree.total_weight())) {
        std::printf("WARNING: EMST weight mismatch at n=%d (serial %.17g "
                    "vs parallel %.17g)\n",
                    en, serial_tree.total_weight(),
                    par_tree.total_weight());
      }
      std::printf("%-7d %-8d %8.2f   %8s\n", en, 1, serial_ms, "-");
      parallel_json.push_back(
          format("{\"n\": %d, \"threads\": 1, \"wall_ms\": %.3f, "
                 "\"speedup_vs_serial\": 1.0, \"hw_threads\": %u}",
                 en, serial_ms, hw_threads));
      for (size_t ti = 0; ti < emst_threads.size(); ++ti) {
        const double speedup = serial_ms / std::max(par_ms[ti], 1e-9);
        std::printf("%-7d %-8d %8.2f   %7.2fx\n", en, emst_threads[ti],
                    par_ms[ti], speedup);
        parallel_json.push_back(
            format("{\"n\": %d, \"threads\": %d, \"wall_ms\": %.3f, "
                   "\"speedup_vs_serial\": %.3f, \"hw_threads\": %u}",
                   en, emst_threads[ti], par_ms[ti], speedup, hw_threads));
      }
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
  // Record the pool size AND the machine's hardware concurrency: a ~1x
  // batch speedup with hw_threads == 1 is the box, not a regression — the
  // row documents its own context so nobody quotes it against multi-core
  // expectations.
  const unsigned threads = dirant::par::global_pool().thread_count();
  const double batch_speedup = serial_ms / std::max(pooled_ms, 1e-9);
  std::printf(
      "batch (n=%d) x %d instances: serial %.1fms, pooled %.1fms "
      "(%.2fx, %u pool threads, %u hw threads)\n",
      n, instances, serial_ms, pooled_ms, batch_speedup, threads,
      hw_threads);
  dirant::bench::record_sections(
      {{"emst_orient", dirant::bench::json_array(orient_json)},
       {"emst_parallel", dirant::bench::json_array(parallel_json)},
       {"session_reuse", session_json},
       {"batch", format("{\"instances\": %d, \"n\": %d, \"serial_ms\": %.3f, "
                        "\"pooled_ms\": %.3f, \"threads\": %u, "
                        "\"hw_threads\": %u, \"speedup\": %.3f}",
                        instances, n, serial_ms, pooled_ms, threads,
                        hw_threads, batch_speedup)}});
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

void BM_emst_boruvka_parallel(benchmark::State& state) {
  geom::Rng rng(25);
  const auto pts = geom::make_instance(geom::Distribution::kUniformSquare,
                                       static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    auto t = mst::boruvka_emst_auto(pts, /*delaunay_threshold=*/1);
    benchmark::DoNotOptimize(t);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_emst_boruvka_parallel)
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
