// X8 — packet-transport study: discrete-event throughput and delivery of
// sim::TrafficEngine over certified orientations, loss rate x churn rate.
//
// For each n the sweep runs ARQ over collection-tree routing
// (kCollectionTree) under { zero loss, per-link Bernoulli p=0.2 } x
// { static topology, poisson churn batches mid-run }, and records
// events/sec (the event-loop throughput denominator), delivered
// packets/sec, the delivery ratio, and the retransmission count that says
// how hard the ARQ layer worked for it.  Every row times best-of-5 and
// checks determinism: each timed run's report must equal the row's
// reference report field by field (any mismatch exits nonzero).
// warm_allocs records the operator-new count of an untimed warm run (the
// shared hook, tests/alloc_counter.cpp) — 0 on static rows is the
// zero-alloc contract made part of the recorded trajectory.
//
// Static rows time a WARM run (the second and later runs on the session,
// each checked against the cold run); churn rows time the run that
// actually steps the ChurnEngine, since recertification is part of the
// cost being measured, with a fresh, identically initialised engine pair
// per timed run — a run advances churn state.  Every row carries
// hw_threads so numbers from a throttled box are never mistaken for the
// real trajectory.
//
// Writes the "traffic" section of BENCH_scaling.json.  Smoke mode
// (DIRANT_BENCH_SMOKE=1): tiny n, and instead of recording numbers it
// asserts the engine's headline behaviours — zero-loss delivery >= 0.9,
// ARQ engagement (retransmissions > 0 with delivery above the no-retry
// baseline, kCollectionTree with max_retries = 0) under 20% per-link
// loss, and repeat-run report identity on every row including loss+churn
// — exiting nonzero when any silently regresses.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "bench_common.hpp"
#include "common/constants.hpp"
#include "core/session.hpp"
#include "geometry/generators.hpp"
#include "sim/churn.hpp"
#include "sim/traffic.hpp"

namespace geom = dirant::geom;
namespace core = dirant::core;
namespace sim = dirant::sim;
using dirant::kPi;

namespace {

using dirant::bench::time_ms;
using dirant::test::count_allocations;

struct TrafficRow {
  int n = 0;
  double loss = 0.0;
  const char* churn = "static";  ///< "static" | "poisson"
  double events_per_sec = 0.0;
  long long warm_allocs = 0;  ///< operator-new count of a warm run
  double packets_per_sec = 0.0;  ///< delivered per wall-clock second
  double delivery_ratio = 0.0;
  long long offered = 0;
  long long retransmissions = 0;
  double run_ms = 0.0;  ///< best of the reps
};

/// The determinism gate: a run of the same (topology, schedule, options)
/// must reproduce `ref` bit for bit.
void require_repeat(const sim::TrafficReport& ref,
                    const sim::TrafficReport& rep, int n, double loss,
                    const char* churn) {
  if (ref == rep) return;
  std::printf(
      "ERROR: repeated TrafficReport mismatch on n=%d loss=%.2f churn=%s "
      "(events %lld vs %lld, delivered %lld vs %lld)\n",
      n, loss, churn, ref.events, rep.events, ref.delivered, rep.delivered);
  std::exit(1);
}

/// Many-to-few collection workload: `flows` flows spread over the node
/// set, `packets` packets each.  `interval` sets the offered load: most
/// traffic funnels onto the shared collection tree, whose trunk services
/// one packet per service_ticks — the caller keeps the aggregate inject
/// rate below that so the sweep measures protocol behaviour, not
/// congestion collapse (x8 is a transport bench, not a saturation study).
sim::TrafficSchedule make_flows(int n, int flows, int packets,
                                std::uint64_t interval) {
  sim::TrafficSchedule sched;
  for (int i = 0; i < flows; ++i) {
    sim::Flow f;
    f.src = (i * 37 + 1) % n;
    f.dst = (i * 53 + n / 2) % n;
    if (f.dst == f.src) f.dst = (f.dst + 1) % n;
    f.packets = packets;
    f.start = static_cast<std::uint64_t>(7 * i);
    f.interval = interval;
    sched.flows.push_back(f);
  }
  return sched;
}

void add_poisson_churn(const sim::ChurnEngine& eng,
                       sim::TrafficSchedule& sched, int batches,
                       std::uint64_t horizon) {
  for (int b = 0; b < batches; ++b) {
    sim::TimedChurnBatch batch;
    batch.tick = horizon * (b + 1) / (batches + 1);
    eng.poisson_schedule(909, b + 1, /*fail_rate=*/0.01,
                         /*recover_rate=*/0.3, /*move_rate=*/0.01,
                         /*move_radius=*/0.02, batch.events);
    sched.churn.push_back(std::move(batch));
  }
}

DIRANT_REPORT(x8) {
  using dirant::bench::section;
  const auto& [smoke, hw_threads, real_cores] = dirant::bench::environment();
  section(
      "X8 — traffic engine: events/sec and delivery, loss x churn "
      "(ARQ over collection trees, k=2, phi=pi)");
  const std::vector<int> sizes =
      smoke ? std::vector<int>{300} : std::vector<int>{2000, 10000};
  const int flows = smoke ? 8 : 64;
  const int packets = smoke ? 10 : 150;
  const int reps = smoke ? 2 : 5;
  // Aggregate inject rate flows/interval must stay below the trunk service
  // rate 1/service_ticks (0.125 pkt/tick), with headroom for the 2-3x copy
  // amplification lost acks cause under 20% loss.
  const std::uint64_t interval = smoke ? 120 : 1600;
  const core::ProblemSpec spec{2, kPi};
  std::printf(
      "n        loss   churn     events/s   allocs  pkts/s   delivery  "
      "retx      ms       (hw=%u)\n",
      hw_threads);
  std::printf(
      "--------------------------------------------------------------------"
      "--------------\n");

  std::vector<TrafficRow> rows;
  double smoke_zero_loss_delivery = 0.0;
  double smoke_lossy_delivery = 0.0;
  long long smoke_lossy_retx = 0;
  double smoke_baseline_delivery = 1.0;

  const auto print_row = [&](const TrafficRow& r) {
    std::printf(
        "%-8d %.2f   %-8s %10.0f  %-6lld %8.0f     %5.3f   %-9lld %.1f\n",
        r.n, r.loss, r.churn, r.events_per_sec, r.warm_allocs,
        r.packets_per_sec, r.delivery_ratio, r.retransmissions, r.run_ms);
  };

  const auto fill_counters = [](TrafficRow& row, const sim::TrafficReport& rep,
                                double ms) {
    row.run_ms = ms;
    row.events_per_sec =
        static_cast<double>(rep.events) / std::max(ms / 1000.0, 1e-12);
    row.packets_per_sec =
        static_cast<double>(rep.delivered) / std::max(ms / 1000.0, 1e-12);
    row.delivery_ratio = rep.delivery_ratio;
    row.offered = rep.offered;
    row.retransmissions = rep.retransmissions;
  };

  for (int n : sizes) {
    geom::Rng rng(81000 + n);
    const auto pts =
        geom::make_instance(geom::Distribution::kUniformSquare, n, rng);

    for (double loss : {0.0, 0.2}) {
      sim::TrafficOptions opts;
      opts.policy = sim::RoutingPolicy::kCollectionTree;
      if (loss > 0.0) {
        opts.loss = {sim::LossKind::kBernoulli, loss, 0, 0, 0};
      }
      opts.arq.max_retries = 6;
      opts.ttl = 2048;  // n=10k tree paths run long; TTL guards loops
      opts.queue_capacity = 32;
      opts.seed = 5;

      // Static row: warm steady state — a cold run sizes every buffer and
      // is the reference every timed warm run must reproduce.
      {
        core::PlanSession plan;
        const auto& result = plan.orient(pts, spec);
        sim::TrafficEngine eng;
        eng.bind(pts, result.orientation);
        const sim::TrafficSchedule sched =
            make_flows(n, flows, packets, interval);
        const sim::TrafficReport ref = eng.run(sched, opts);  // cold
        double ms = std::numeric_limits<double>::infinity();
        for (int r = 0; r < reps; ++r) {
          ms = std::min(ms, time_ms([&] {
                          benchmark::DoNotOptimize(eng.run(sched, opts).events);
                        }));
          require_repeat(ref, eng.last_report(), n, loss, "static");
        }
        TrafficRow row;
        row.n = n;
        row.loss = loss;
        row.churn = "static";
        row.warm_allocs =
            count_allocations([&] { (void)eng.run(sched, opts); });
        fill_counters(row, ref, ms);
        print_row(row);
        rows.push_back(row);
        if (smoke && loss == 0.0) {
          smoke_zero_loss_delivery = ref.delivery_ratio;
        }
        if (smoke && loss > 0.0) {
          smoke_lossy_delivery = ref.delivery_ratio;
          smoke_lossy_retx = ref.retransmissions;
          // No-retry baseline on the identical scenario.
          sim::TrafficOptions base = opts;
          base.arq.max_retries = 0;
          smoke_baseline_delivery = eng.run(sched, base).delivery_ratio;
        }
      }

      // Churn row: poisson fail/recover/move batches land mid-run; the
      // timing includes the ChurnEngine recertification steps.  A run
      // advances churn state, so every timed run gets a fresh engine pair,
      // and identically initialised pairs must replay identically — the
      // determinism check on this row.
      {
        sim::TrafficSchedule sched = make_flows(n, flows, packets, interval);
        {
          sim::ChurnEngine sched_src;
          sched_src.init(pts, spec);
          const std::uint64_t horizon =
              sched.flows.back().start + static_cast<std::uint64_t>(packets) *
                                             sched.flows.back().interval;
          add_poisson_churn(sched_src, sched, smoke ? 2 : 4, horizon);
        }
        sim::TrafficReport ref;
        double ms = std::numeric_limits<double>::infinity();
        for (int r = 0; r < reps; ++r) {
          sim::ChurnEngine churn;
          churn.init(pts, spec);
          sim::TrafficEngine eng;
          eng.attach_churn(churn);
          ms = std::min(ms, time_ms([&] {
                          benchmark::DoNotOptimize(eng.run(sched, opts).events);
                        }));
          if (r == 0) {
            ref = eng.last_report();
          } else {
            require_repeat(ref, eng.last_report(), n, loss, "poisson");
          }
        }
        TrafficRow row;
        row.n = n;
        row.loss = loss;
        row.churn = "poisson";
        // Warm count for the churn shape: second run on the same engine
        // pair (the churn state has advanced — the count is the warm-
        // engine number, not a zero-alloc contract; recertification
        // allocates by design).
        {
          sim::ChurnEngine churn;
          churn.init(pts, spec);
          sim::TrafficEngine eng;
          eng.attach_churn(churn);
          (void)eng.run(sched, opts);
          row.warm_allocs =
              count_allocations([&] { (void)eng.run(sched, opts); });
        }
        fill_counters(row, ref, ms);
        print_row(row);
        rows.push_back(row);
      }
    }
  }

  std::vector<std::string> json;
  for (const auto& r : rows) {
    json.push_back(dirant::bench::format(
        "{\"n\": %d, \"loss\": %g, \"churn\": \"%s\", \"events_per_sec\": %g, "
        "\"warm_allocs\": %lld, \"packets_per_sec\": %g, "
        "\"delivery_ratio\": %g, \"offered\": %lld, "
        "\"retransmissions\": %lld, \"run_ms\": %g, \"hw_threads\": %u}",
        r.n, r.loss, r.churn, r.events_per_sec, r.warm_allocs,
        r.packets_per_sec, r.delivery_ratio, r.offered, r.retransmissions,
        r.run_ms, hw_threads));
  }
  dirant::bench::record_sections(
      {{"traffic", dirant::bench::json_array(json)}});
  if (smoke) {
    if (smoke_zero_loss_delivery < 0.9) {
      std::printf("ERROR: zero-loss delivery %.3f < 0.9\n",
                  smoke_zero_loss_delivery);
      std::exit(1);
    }
    if (!(smoke_lossy_retx > 0 &&
          smoke_lossy_delivery > smoke_baseline_delivery)) {
      std::printf(
          "ERROR: ARQ never engaged under loss (retx=%lld, delivery=%.3f, "
          "no-retry baseline=%.3f)\n",
          smoke_lossy_retx, smoke_lossy_delivery, smoke_baseline_delivery);
      std::exit(1);
    }
  }
}

void BM_traffic_run_warm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  geom::Rng rng(82);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, n, rng);
  core::PlanSession plan;
  const auto& result = plan.orient(pts, {2, kPi});
  sim::TrafficEngine eng;
  eng.bind(pts, result.orientation);
  const sim::TrafficSchedule sched = make_flows(n, 16, 20, 800);
  sim::TrafficOptions opts;
  opts.policy = sim::RoutingPolicy::kCollectionTree;
  opts.loss = {sim::LossKind::kBernoulli, 0.2, 0, 0, 0};
  (void)eng.run(sched, opts);
  for (auto _ : state) {
    const auto& rep = eng.run(sched, opts);
    benchmark::DoNotOptimize(rep.delivered);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_traffic_run_warm)
    ->RangeMultiplier(4)
    ->Range(1024, 16384)
    ->Complexity();

}  // namespace

DIRANT_BENCH_MAIN()
