// X8 — packet-transport study: discrete-event throughput and delivery of
// sim::TrafficEngine over certified orientations, loss rate x churn rate.
//
// For each n the sweep runs the ARQ+reroute policy (kGreedyTreeFallback)
// under { zero loss, per-link Bernoulli p=0.2 } x { static topology,
// poisson churn batches mid-run }, and records events/sec (the event-loop
// throughput denominator), delivered packets/sec, the delivery ratio, and
// the protocol counters (retransmissions, reroutes) that say how hard the
// ARQ layer worked for it.  Since PR 10 every row times BOTH event-queue
// kinds, interleaved best-of-5 in the same invocation: events_per_sec is
// the timing wheel, heap_events_per_sec the binary-heap oracle, and
// queue_speedup their ratio — the honest serial constant-factor number
// the perf.md guardrail (>= 2x on the warm n=10k zero-loss row) quotes.
// The wheel and heap reports are compared field by field on every row
// (bit-identity is the wheel's contract; any mismatch exits nonzero), and
// warm_allocs records the operator-new count of an untimed warm wheel run
// (the shared hook, tests/alloc_counter.cpp) — 0 on static rows is the
// zero-alloc contract made part of the recorded trajectory.
//
// Static rows time a WARM run (the second run on the session); churn rows
// time the run that actually steps the ChurnEngine, since recertification
// is part of the cost being measured, with a fresh engine per timed run —
// a run advances churn state.  Every row carries hw_threads so numbers
// from a throttled box are never mistaken for the real trajectory.
//
// Writes the "traffic" section of BENCH_scaling.json.  Smoke mode
// (DIRANT_BENCH_SMOKE=1): tiny n, and instead of recording numbers it
// asserts the engine's headline behaviours —
// zero-loss delivery >= 0.9, ARQ engagement (retransmissions > 0 with
// delivery above the no-retry baseline) under 20% per-link loss, and
// wheel/heap report parity on every row including loss+churn — exiting
// nonzero when any silently regresses.

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
  double events_per_sec = 0.0;   ///< timing wheel (the shipped default)
  double heap_events_per_sec = 0.0;  ///< binary-heap oracle, same trace
  double queue_speedup = 0.0;        ///< heap_ms / wheel_ms
  long long warm_allocs = 0;  ///< operator-new count of a warm wheel run
  double packets_per_sec = 0.0;  ///< delivered per wall-clock second
  double delivery_ratio = 0.0;
  long long offered = 0;
  long long retransmissions = 0;
  long long reroutes = 0;
  double run_ms = 0.0;       ///< wheel, best of the interleaved reps
  double heap_run_ms = 0.0;  ///< heap, best of the interleaved reps
};

void require_parity(const sim::TrafficReport& wheel,
                    const sim::TrafficReport& heap, const TrafficRow& row) {
  if (wheel == heap) return;
  std::printf(
      "ERROR: wheel/heap TrafficReport mismatch on n=%d loss=%.2f churn=%s "
      "(events %lld vs %lld, delivered %lld vs %lld)\n",
      row.n, row.loss, row.churn, wheel.events, heap.events, wheel.delivered,
      heap.delivered);
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
      "(ARQ+reroute policy, k=2, phi=pi; wheel vs heap oracle)");
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
      "n        loss   churn     events/s   heap-ev/s  qspd  allocs  "
      "pkts/s   delivery  retx      reroutes  ms       (hw=%u)\n",
      hw_threads);
  std::printf(
      "--------------------------------------------------------------------"
      "--------------------------------\n");

  std::vector<TrafficRow> rows;
  double smoke_zero_loss_delivery = 0.0;
  double smoke_lossy_delivery = 0.0;
  long long smoke_lossy_retx = 0;
  double smoke_baseline_delivery = 1.0;

  const auto print_row = [&](const TrafficRow& r) {
    std::printf(
        "%-8d %.2f   %-8s %10.0f %10.0f  %4.2f  %-6lld %8.0f     %5.3f   "
        "%-9lld %-9lld %.1f\n",
        r.n, r.loss, r.churn, r.events_per_sec, r.heap_events_per_sec,
        r.queue_speedup, r.warm_allocs, r.packets_per_sec, r.delivery_ratio,
        r.retransmissions, r.reroutes, r.run_ms);
  };

  const auto fill_counters = [](TrafficRow& row, const sim::TrafficReport& rep,
                                double wheel_ms, double heap_ms) {
    row.run_ms = wheel_ms;
    row.heap_run_ms = heap_ms;
    row.events_per_sec =
        static_cast<double>(rep.events) / std::max(wheel_ms / 1000.0, 1e-12);
    row.heap_events_per_sec =
        static_cast<double>(rep.events) / std::max(heap_ms / 1000.0, 1e-12);
    row.queue_speedup = heap_ms / std::max(wheel_ms, 1e-12);
    row.packets_per_sec = static_cast<double>(rep.delivered) /
                          std::max(wheel_ms / 1000.0, 1e-12);
    row.delivery_ratio = rep.delivery_ratio;
    row.offered = rep.offered;
    row.retransmissions = rep.retransmissions;
    row.reroutes = rep.reroutes;
  };

  for (int n : sizes) {
    geom::Rng rng(81000 + n);
    const auto pts =
        geom::make_instance(geom::Distribution::kUniformSquare, n, rng);

    for (double loss : {0.0, 0.2}) {
      sim::TrafficOptions wheel_opts;
      wheel_opts.policy = sim::RoutingPolicy::kGreedyTreeFallback;
      if (loss > 0.0) {
        wheel_opts.loss = {sim::LossKind::kBernoulli, loss, 0, 0, 0};
      }
      wheel_opts.arq.max_retries = 6;
      wheel_opts.ttl = 2048;  // n=10k tree paths run long; TTL guards loops
      wheel_opts.queue_capacity = 32;
      wheel_opts.seed = 5;
      wheel_opts.queue = sim::QueueKind::kTimingWheel;
      sim::TrafficOptions heap_opts = wheel_opts;
      heap_opts.queue = sim::QueueKind::kBinaryHeap;

      // Static row: warm steady state — cold run per kind to size every
      // buffer, then interleaved best-of-reps wheel/heap timings on the
      // same warm engine (interleaving shares whatever thermal/cache state
      // the box is in, so the ratio is honest).
      {
        core::PlanSession plan;
        const auto& result = plan.orient(pts, spec);
        sim::TrafficEngine eng;
        eng.bind(pts, result.orientation);
        const sim::TrafficSchedule sched =
            make_flows(n, flows, packets, interval);
        sim::TrafficReport wheel_rep, heap_rep;
        wheel_rep = eng.run(sched, wheel_opts);  // cold wheel
        (void)eng.run(sched, heap_opts);         // cold heap
        double wheel_ms = std::numeric_limits<double>::infinity();
        double heap_ms = std::numeric_limits<double>::infinity();
        for (int r = 0; r < reps; ++r) {
          wheel_ms = std::min(wheel_ms, time_ms([&] {
                                wheel_rep = eng.run(sched, wheel_opts);
                                benchmark::DoNotOptimize(wheel_rep.events);
                              }));
          heap_ms = std::min(heap_ms, time_ms([&] {
                               heap_rep = eng.run(sched, heap_opts);
                               benchmark::DoNotOptimize(heap_rep.events);
                             }));
        }
        TrafficRow row;
        row.n = n;
        row.loss = loss;
        row.churn = "static";
        require_parity(wheel_rep, heap_rep, row);
        row.warm_allocs =
            count_allocations([&] { (void)eng.run(sched, wheel_opts); });
        fill_counters(row, wheel_rep, wheel_ms, heap_ms);
        print_row(row);
        rows.push_back(row);
        if (smoke && loss == 0.0) {
          smoke_zero_loss_delivery = wheel_rep.delivery_ratio;
        }
        if (smoke && loss > 0.0) {
          smoke_lossy_delivery = wheel_rep.delivery_ratio;
          smoke_lossy_retx = wheel_rep.retransmissions;
          // No-retry baseline on the identical scenario.
          sim::TrafficOptions base = wheel_opts;
          base.policy = sim::RoutingPolicy::kGreedy;
          base.arq.max_retries = 0;
          const auto& brep = eng.run(sched, base);
          smoke_baseline_delivery = brep.delivery_ratio;
        }
      }

      // Churn row: poisson fail/recover/move batches land mid-run; the
      // timing includes the ChurnEngine recertification steps.  A run
      // advances churn state, so every timed run gets a fresh engine pair
      // (identically init'ed engines replay identically — that is the
      // determinism contract this bench leans on for the parity check).
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
        const auto churn_run = [&](const sim::TrafficOptions& opts,
                                   sim::TrafficReport& rep) -> double {
          sim::ChurnEngine churn;
          churn.init(pts, spec);
          sim::TrafficEngine eng;
          eng.attach_churn(churn);
          return time_ms([&] {
            rep = eng.run(sched, opts);
            benchmark::DoNotOptimize(rep.events);
          });
        };
        sim::TrafficReport wheel_rep, heap_rep;
        double wheel_ms = std::numeric_limits<double>::infinity();
        double heap_ms = std::numeric_limits<double>::infinity();
        for (int r = 0; r < reps; ++r) {
          wheel_ms = std::min(wheel_ms, churn_run(wheel_opts, wheel_rep));
          heap_ms = std::min(heap_ms, churn_run(heap_opts, heap_rep));
        }
        TrafficRow row;
        row.n = n;
        row.loss = loss;
        row.churn = "poisson";
        require_parity(wheel_rep, heap_rep, row);
        // Warm count for the churn shape: second run on the same engine
        // pair (the churn state has advanced — the count is the warm-
        // engine number, not a zero-alloc contract; recertification
        // allocates by design).
        {
          sim::ChurnEngine churn;
          churn.init(pts, spec);
          sim::TrafficEngine eng;
          eng.attach_churn(churn);
          (void)eng.run(sched, wheel_opts);
          sim::TrafficReport tmp;
          row.warm_allocs =
              count_allocations([&] { tmp = eng.run(sched, wheel_opts); });
        }
        fill_counters(row, wheel_rep, wheel_ms, heap_ms);
        print_row(row);
        rows.push_back(row);
      }
    }
  }

  std::vector<std::string> json;
  for (const auto& r : rows) {
    json.push_back(dirant::bench::format(
        "{\"n\": %d, \"loss\": %g, \"churn\": \"%s\", \"events_per_sec\": %g, "
        "\"heap_events_per_sec\": %g, \"queue_speedup\": %g, "
        "\"warm_allocs\": %lld, \"packets_per_sec\": %g, "
        "\"delivery_ratio\": %g, \"offered\": %lld, "
        "\"retransmissions\": %lld, \"reroutes\": %lld, \"run_ms\": %g, "
        "\"heap_run_ms\": %g, \"hw_threads\": %u}",
        r.n, r.loss, r.churn, r.events_per_sec, r.heap_events_per_sec,
        r.queue_speedup, r.warm_allocs, r.packets_per_sec, r.delivery_ratio,
        r.offered, r.retransmissions, r.reroutes, r.run_ms, r.heap_run_ms,
        hw_threads));
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
  opts.policy = sim::RoutingPolicy::kGreedyTreeFallback;
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
