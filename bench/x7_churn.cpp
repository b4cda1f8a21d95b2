// X7 — churn throughput study: sustained certified updates/sec through
// sim::ChurnEngine under a sustained-attrition workload, incremental
// recertification (candidate-pool Kruskal + digraph row patching) against
// the same engine pinned to the full-rebuild path (force_full).  The two
// engines consume the SAME event batches in lock step and must agree bit
// for bit on every certificate and every oriented sector — verified
// in-run, not assumed (the incremental path is an exact acceleration; see
// tests/test_churn.cpp for the from-scratch parity proof).
//
// Writes the "churn" section of BENCH_scaling.json: two rows per n
// (sustained ~1% attrition, and a small-batch workload with a handful of
// failures regardless of n — the sub-linear regime), one more small-batch
// row at n=200k to show how its step cost grows with n (printed as the
// p50 ratio between sizes), plus one mixed row at n=10k with the traffic
// benchmark's fail/recover/move batches (the escalating regime).  Each
// row has the sustained updates/sec of both paths, their ratio, the
// incremental hit rate (fraction of batches that stayed on both
// incremental paths — the pool degrades under churn and escalation is
// part of the design, so the hit rate is the honest context for the
// speedup), the localized hit rate (batches that stayed on the whole
// sub-linear ladder: localized MST repair + warm frontier orienter),
// p50/p99 and mean per-batch latency (a big-cut batch costs several times
// a clean one, so the mean and the tail carry what p50 hides), the mean
// affected-region size of the localized repairs, the certificate reuse
// rate, the row-patch rate, the escalation rate with its most frequent
// reason, and the heap the incremental engine holds after its batches
// (engine_heap_mb: glibc mallinfo2 in-use bytes the engine frees on
// destruction; 0 without glibc or under a sanitizer).  Every row carries
// hw_threads so numbers from a
// throttled 1-core box are never mistaken for the real trajectory.
//
// Smoke mode (DIRANT_BENCH_SMOKE=1): small n / few batches so the
// bench_smoke_x7_churn ctest entry keeps this binary from bit-rotting;
// the smoke run additionally asserts (via the report counters) that the
// small-batch sweep reached the localized + warm-orient path and that the
// attrition sweep re-planned a pool-Kruskal batch warm, exiting nonzero
// when the sub-linear ladder silently stopped engaging.
// DIRANT_X7_THREADS=t runs both engines with a t-worker pool (sharded
// full rebuilds + parallel SCC; results unchanged by contract).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
#include <malloc.h>
#define DIRANT_HEAP_COUNTERS 1
#endif

#include "bench_common.hpp"
#include "common/constants.hpp"
#include "core/session.hpp"
#include "geometry/generators.hpp"
#include "sim/churn.hpp"

namespace geom = dirant::geom;
namespace core = dirant::core;
namespace sim = dirant::sim;
using dirant::kPi;

namespace {

using dirant::bench::time_ms;

struct ChurnRow {
  /// "attrition" | "small_batch" | "traffic_mix"
  const char* workload = "attrition";
  int n = 0;
  double events_per_batch = 0.0;      ///< mean applied events per batch
  double updates_per_sec = 0.0;       ///< incremental engine
  double full_updates_per_sec = 0.0;  ///< force_full engine, same events
  double speedup = 0.0;               ///< updates_per_sec / full_...
  double incremental_hit_rate = 0.0;  ///< batches on both incremental paths
  /// Fraction of batches that stayed on the whole sub-linear ladder:
  /// localized MST repair (rung 1, no pool Kruskal) AND the warm frontier
  /// orienter (no O(n) sweep).
  double localized_hit_rate = 0.0;
  /// Pool-Kruskal (rung 2) batches the warm orienter re-planned (smoke
  /// check only, not recorded).
  int pool_warm_batches = 0;
  double p50_batch_ms = 0.0;  ///< per-batch latency, incremental engine
  double p99_batch_ms = 0.0;
  double mean_batch_ms = 0.0;
  /// Mean affected-region size over the localized batches (nodes the
  /// repair touched) — the "region" the sub-linear cost model bills to.
  double mean_mst_region = 0.0;
  /// Fraction of batches whose certificate was re-validated from the
  /// frontier (no SCC pass).
  double cert_reuse_rate = 0.0;
  /// Fraction of batches whose digraph was row-patched (vs rebuilt).
  double incremental_digraph_rate = 0.0;
  double escalation_rate = 0.0;  ///< batches that re-planned in full
  const char* escalation = "none";  ///< the most frequent escalation reason
  /// Heap the incremental engine holds after the last batch, MB.
  double engine_heap_mb = 0.0;
};

/// Heap in use (glibc mallinfo2: small-block arena plus mmapped blocks),
/// in MB; 0 where the counters are unavailable.
double heap_in_use_mb() {
#ifdef DIRANT_HEAP_COUNTERS
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
#else
  return 0.0;
#endif
}

/// One batch's event mix, drawn by ChurnEngine::poisson_schedule.
struct Mix {
  double fail_rate = 0.0;
  double recover_rate = 0.0;
  double move_rate = 0.0;
  double move_radius = 0.0;
};

/// Nearest-rank percentile over a scratch copy (q in [0, 1]).
double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto last = static_cast<double>(samples.size() - 1);
  const auto idx = static_cast<size_t>(last * q + 0.5);
  return samples[std::min(idx, samples.size() - 1)];
}

/// Lock-step parity: the incremental engine and the force_full engine ran
/// the same batch and must agree exactly.  Prints a WARNING (never
/// aborts) so a broken run is loud in the log and in the recorded table.
void check_parity(const sim::ChurnEngine& inc, const sim::ChurnEngine& full,
                  int n, int batch) {
  const auto& a = inc.last_report();
  const auto& b = full.last_report();
  const auto& ca = a.certificate;
  const auto& cb = b.certificate;
  bool same = a.alive == b.alive &&
              ca.strongly_connected == cb.strongly_connected &&
              ca.scc_count == cb.scc_count &&
              ca.max_radius == cb.max_radius &&
              ca.max_spread_sum == cb.max_spread_sum &&
              ca.max_antennas == cb.max_antennas;
  // Both plans are in original index space (dead rows empty).
  const auto& oa = inc.last_result().orientation;
  const auto& ob = full.last_result().orientation;
  for (int u = 0; same && u < inc.size(); ++u) {
    same = oa.node_equals(u, ob, u);
  }
  if (!same) {
    std::printf(
        "WARNING: incremental/full mismatch at n=%d batch=%d — the "
        "incremental path stopped being exact\n",
        n, batch);
  }
}

DIRANT_REPORT(x7) {
  using dirant::bench::section;
  const auto& [smoke, hw_threads, real_cores] = dirant::bench::environment();
  section(
      "X7 — churn engine: sustained certified updates/sec, incremental "
      "recertification vs full re-plan (k=2, phi=pi)");
  // Smoke runs the smallest full-scale size, where every rung still runs:
  // the cold batch's pool Kruskal (re-planned warm), rung 1 and the warm
  // orienter.
  const std::vector<int> sizes = smoke ? std::vector<int>{2000}
                                       : std::vector<int>{2000, 10000, 50000};
  const int batches = smoke ? 6 : 40;
  int threads = 1;
  if (const char* env = std::getenv("DIRANT_X7_THREADS")) {
    threads = std::max(1, std::atoi(env));
  }
  const core::ProblemSpec spec{2, kPi};
  std::printf(
      "workload    n        ev/batch   inc-upd/s   full-upd/s  speedup  "
      "inc    local  p50-ms   p99-ms  mean-ms   region  reuse  patch  esc   "
      "reason            heap-MB  (threads=%d, hw=%u)\n",
      threads, hw_threads);
  std::printf(
      "--------------------------------------------------------------------"
      "--------------------------------------------------------------------"
      "------------------------\n");

  std::vector<ChurnRow> rows;
  // Two workloads per n:
  //   * attrition — ~1% of the survivors drop per batch (the historical
  //     x7 row; batches scale with n, so every batch cuts the tree into
  //     many fragments and the warm orienter's gates fail more often);
  //   * small_batch — a handful of failures per batch regardless of n
  //     (the sub-linear regime: localized repair + warm frontier orient;
  //     the p50/p99 latency and mean region columns are what the
  //     locality contract promises stays flat-ish as n grows).
  const auto run_row = [&](const char* workload, int n,
                           const std::vector<geom::Point>& pts,
                           const Mix& mix) {
    auto inc = std::make_unique<sim::ChurnEngine>();
    sim::ChurnEngine full;
    sim::ChurnOptions full_opts;
    full_opts.force_full = true;
    inc->set_threads(threads);
    full.set_threads(threads);
    inc->init(pts, spec);
    full.init(pts, spec, full_opts);

    double inc_ms = 0.0, full_ms = 0.0;
    long long applied = 0;
    int incremental_batches = 0, localized_batches = 0, patched = 0;
    int reused = 0;
    int pool_warm_batches = 0;
    long long region_sum = 0;
    std::vector<std::pair<const char*, int>> reasons;  ///< static strings
    std::vector<double> batch_ms;
    batch_ms.reserve(batches);
    std::vector<sim::ChurnEvent> events;
    for (int b = 1; b <= batches; ++b) {
      events.clear();
      inc->poisson_schedule(4242, b, mix.fail_rate, mix.recover_rate,
                           mix.move_rate, mix.move_radius, events);
      const double step_ms = time_ms([&] {
        const auto& rep = inc->step(events);
        benchmark::DoNotOptimize(rep.certificate.scc_count);
      });
      inc_ms += step_ms;
      batch_ms.push_back(step_ms);
      full_ms += time_ms([&] {
        const auto& rep = full.step(events);
        benchmark::DoNotOptimize(rep.certificate.scc_count);
      });
      check_parity(*inc, full, n, b);
      for (const auto& ev : inc->last_report().events) {
        if (ev.applied) ++applied;
      }
      const auto& rep = inc->last_report();
      if (rep.incremental_plan && rep.incremental_digraph) {
        ++incremental_batches;
      }
      if (rep.localized_mst && rep.warm_orient) {
        ++localized_batches;
        region_sum += rep.mst_region;
      }
      // Escalated batches never orient warm, so this is rung 2.
      if (!rep.localized_mst && rep.warm_orient) ++pool_warm_batches;
      patched += rep.incremental_digraph;
      reused += rep.cert_reused;
      if (rep.escalation != nullptr) {
        auto it = std::find_if(reasons.begin(), reasons.end(),
                               [&](const auto& r) {
                                 return std::strcmp(r.first,
                                                    rep.escalation) == 0;
                               });
        if (it == reasons.end()) {
          reasons.emplace_back(rep.escalation, 1);
        } else {
          ++it->second;
        }
      }
    }
    ChurnRow row;
    row.workload = workload;
    row.n = n;
    row.events_per_batch = static_cast<double>(applied) / batches;
    row.updates_per_sec =
        static_cast<double>(applied) / std::max(inc_ms / 1000.0, 1e-12);
    row.full_updates_per_sec =
        static_cast<double>(applied) / std::max(full_ms / 1000.0, 1e-12);
    row.speedup = row.updates_per_sec /
                  std::max(row.full_updates_per_sec, 1e-12);
    row.incremental_hit_rate =
        static_cast<double>(incremental_batches) / batches;
    row.localized_hit_rate =
        static_cast<double>(localized_batches) / batches;
    row.pool_warm_batches = pool_warm_batches;
    row.p50_batch_ms = percentile(batch_ms, 0.5);
    row.p99_batch_ms = percentile(batch_ms, 0.99);
    row.mean_batch_ms = inc_ms / batches;
    row.mean_mst_region =
        localized_batches > 0
            ? static_cast<double>(region_sum) / localized_batches
            : 0.0;
    row.cert_reuse_rate = static_cast<double>(reused) / batches;
    row.incremental_digraph_rate = static_cast<double>(patched) / batches;
    int escalated = 0, top = 0;
    for (const auto& [reason, count] : reasons) {
      escalated += count;
      if (count > top) {
        top = count;
        row.escalation = reason;
      }
    }
    row.escalation_rate = static_cast<double>(escalated) / batches;
    // What the engine frees on destruction is what it held.
    const double held_mb = heap_in_use_mb();
    inc.reset();
    row.engine_heap_mb = held_mb - heap_in_use_mb();
    std::printf(
        "%-11s %-8d %7.1f  %10.1f  %10.1f  %6.2fx  %5.2f  %5.2f  %7.2f  "
        "%7.2f  %7.2f  %7.1f  %5.2f  %5.2f  %5.2f %-17s %6.1f\n",
        workload, n, row.events_per_batch, row.updates_per_sec,
        row.full_updates_per_sec, row.speedup, row.incremental_hit_rate,
        row.localized_hit_rate, row.p50_batch_ms, row.p99_batch_ms,
        row.mean_batch_ms, row.mean_mst_region, row.cert_reuse_rate,
        row.incremental_digraph_rate, row.escalation_rate, row.escalation,
        row.engine_heap_mb);
    rows.push_back(row);
  };

  for (int n : sizes) {
    geom::Rng rng(73000 + n);
    const auto pts =
        geom::make_instance(geom::Distribution::kUniformSquare, n, rng);
    // Fails only: a recover or move adds a star of ~alive candidate edges
    // to the pool, so those batches escalate to the full re-plan by design
    // (the traffic_mix row below measures exactly that).
    run_row("attrition", n, pts, {0.01, 0.0, 0.0, 0.0});
    run_row("small_batch", n, pts, {6.0 / n, 0.0, 0.0, 0.0});
  }
  if (!smoke) {
    // The small-batch trend: a warm step should pay for its region, not for
    // n.  Attrition is left out here — its batches grow with n.
    const int n = 200000;
    geom::Rng rng(73000 + n);
    const auto pts =
        geom::make_instance(geom::Distribution::kUniformSquare, n, rng);
    run_row("small_batch", n, pts, {6.0 / n, 0.0, 0.0, 0.0});
  }
  // The churn batches of perfbench's traffic_churn_10k (fail 1%, recover
  // 30%, move 1% by up to 0.02 of the unit spacing): every batch with a
  // move escalates (pool-invalid), so the step cost is a full re-plan plus
  // whatever the pool upkeep and the row patch add to it.
  {
    const int n = smoke ? 300 : 10000;
    geom::Rng rng(75000 + n);
    const auto pts =
        geom::make_instance(geom::Distribution::kUniformSquare, n, rng);
    run_row("traffic_mix", n, pts, {0.01, 0.3, 0.01, 0.02});
  }

  // Step-cost growth of the small-batch rows: p50 at each n over p50 at
  // the previous n.
  const ChurnRow* prev_sb = nullptr;
  for (const auto& r : rows) {
    if (std::strcmp(r.workload, "small_batch") != 0) continue;
    if (prev_sb != nullptr) {
      std::printf("small_batch p50(%d)/p50(%d) = %.2f  (n ratio %.1f)\n", r.n,
                  prev_sb->n, r.p50_batch_ms / prev_sb->p50_batch_ms,
                  static_cast<double>(r.n) / prev_sb->n);
    }
    prev_sb = &r;
  }

  std::vector<std::string> json;
  for (const auto& r : rows) {
    json.push_back(dirant::bench::format(
        "{\"workload\": \"%s\", \"n\": %d, \"events_per_batch\": %g, "
        "\"updates_per_sec\": %g, \"full_updates_per_sec\": %g, "
        "\"speedup\": %g, \"incremental_hit_rate\": %g, "
        "\"localized_hit_rate\": %g, \"p50_batch_ms\": %g, "
        "\"p99_batch_ms\": %g, \"mean_batch_ms\": %g, "
        "\"mean_mst_region\": %g, \"cert_reuse_rate\": %g, "
        "\"incremental_digraph_rate\": %g, \"escalation_rate\": %g, "
        "\"escalation\": \"%s\", \"engine_heap_mb\": %.2f, "
        "\"hw_threads\": %u}",
        r.workload, r.n, r.events_per_batch, r.updates_per_sec,
        r.full_updates_per_sec, r.speedup, r.incremental_hit_rate,
        r.localized_hit_rate, r.p50_batch_ms, r.p99_batch_ms,
        r.mean_batch_ms, r.mean_mst_region, r.cert_reuse_rate,
        r.incremental_digraph_rate, r.escalation_rate, r.escalation,
        r.engine_heap_mb, hw_threads));
  }
  dirant::bench::record_sections({{"churn", dirant::bench::json_array(json)}});
  if (smoke) {
    // Smoke numbers are throwaway, but the run still has to prove the
    // sub-linear path is alive: the small-batch sweep must have kept some
    // batches on localized repair + the warm frontier orienter, and the
    // attrition sweep must have re-planned a pool-Kruskal batch warm
    // (report counters, not timings, so this is deterministic).
    const auto row_of = [&](const char* workload) -> const ChurnRow& {
      return *std::find_if(rows.begin(), rows.end(), [&](const auto& r) {
        return std::strcmp(r.workload, workload) == 0;
      });
    };
    const auto& sb = row_of("small_batch");
    if (!(sb.localized_hit_rate > 0.0 && sb.mean_mst_region > 0.0)) {
      std::printf(
          "ERROR: small-batch smoke never reached the localized repair + "
          "warm orienter path (localized_hit_rate=%.2f)\n",
          sb.localized_hit_rate);
      std::exit(1);
    }
    if (row_of("attrition").pool_warm_batches == 0) {
      std::printf(
          "ERROR: attrition smoke never re-planned a pool-Kruskal batch "
          "with the warm orienter\n");
      std::exit(1);
    }
  }
}

void BM_churn_step_incremental(benchmark::State& state) {
  geom::Rng rng(74);
  const auto pts = geom::make_instance(geom::Distribution::kUniformSquare,
                                       static_cast<int>(state.range(0)), rng);
  sim::ChurnEngine eng;
  eng.init(pts, {2, kPi});
  std::vector<sim::ChurnEvent> events;
  int b = 0;
  for (auto _ : state) {
    events.clear();
    eng.poisson_schedule(4242, ++b, 0.01, 0.0, 0.0, 0.0, events);
    const auto& rep = eng.step(events);
    benchmark::DoNotOptimize(rep.certificate.scc_count);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_churn_step_incremental)
    ->RangeMultiplier(4)
    ->Range(1024, 16384)
    ->Complexity();

void BM_churn_step_full(benchmark::State& state) {
  geom::Rng rng(74);  // same instances as the incremental variant
  const auto pts = geom::make_instance(geom::Distribution::kUniformSquare,
                                       static_cast<int>(state.range(0)), rng);
  sim::ChurnEngine eng;
  sim::ChurnOptions opts;
  opts.force_full = true;
  eng.init(pts, {2, kPi}, opts);
  std::vector<sim::ChurnEvent> events;
  int b = 0;
  for (auto _ : state) {
    events.clear();
    eng.poisson_schedule(4242, ++b, 0.01, 0.0, 0.0, 0.0, events);
    const auto& rep = eng.step(events);
    benchmark::DoNotOptimize(rep.certificate.scc_count);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_churn_step_full)
    ->RangeMultiplier(4)
    ->Range(1024, 16384)
    ->Complexity();

}  // namespace

DIRANT_BENCH_MAIN()
