// sim::TrafficEngine — the packet-transport acceptance suite.  Pillars:
//
//   * Determinism: the same (topology, schedule, seed) replays to a
//     bit-identical TrafficReport across repeated runs and at 1/2/4/8
//     threads, including mid-run churn recertification and ARQ timeouts
//     that park in the event queue's overflow heap.
//   * Robustness: under per-link loss p=0.2 plus a poisson churn schedule,
//     ARQ over collection-tree routing recovers >= 90% delivery on the
//     surviving endpoints while the no-retry baseline measurably degrades
//     — and the logical accounting invariant (offered == delivered + sum
//     of drops) holds on every run.
//   * Zero-alloc: the second identical run() on a warm static engine
//     performs zero heap allocations (the shared operator-new counting
//     hook, tests/alloc_counter.cpp).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "common/constants.hpp"
#include "core/session.hpp"
#include "geometry/generators.hpp"
#include "graph/digraph.hpp"
#include "sim/churn.hpp"
#include "sim/traffic.hpp"
#include "thread_counts.hpp"

namespace {

namespace core = dirant::core;
namespace geom = dirant::geom;
namespace graph = dirant::graph;
namespace sim = dirant::sim;
using dirant::kPi;
using dirant::test::count_allocations;
using dirant::test::for_each_thread_count;

std::vector<geom::Point> make_points(int n, int seed) {
  geom::Rng rng(seed);
  return geom::make_instance(geom::Distribution::kUniformSquare, n, rng);
}

// The logical accounting invariant: every offered packet ends exactly once.
void expect_invariant(const sim::TrafficReport& r) {
  EXPECT_EQ(r.offered, r.delivered + r.drop_queue + r.drop_ttl +
                           r.drop_retry + r.drop_no_route + r.drop_churn +
                           r.drop_battery + r.drop_stranded);
}

// Bit-identity, field by field — doubles compared with EXPECT_EQ on
// purpose: the contract is bit-identical, not approximately equal.
void expect_reports_equal(const sim::TrafficReport& a,
                          const sim::TrafficReport& b, const char* what) {
  EXPECT_EQ(a.offered, b.offered) << what;
  EXPECT_EQ(a.delivered, b.delivered) << what;
  EXPECT_EQ(a.delivery_ratio, b.delivery_ratio) << what;
  EXPECT_EQ(a.p50_latency, b.p50_latency) << what;
  EXPECT_EQ(a.p99_latency, b.p99_latency) << what;
  EXPECT_EQ(a.transmissions, b.transmissions) << what;
  EXPECT_EQ(a.retransmissions, b.retransmissions) << what;
  EXPECT_EQ(a.frames_lost, b.frames_lost) << what;
  EXPECT_EQ(a.acks_lost, b.acks_lost) << what;
  EXPECT_EQ(a.duplicates, b.duplicates) << what;
  EXPECT_EQ(a.reroutes, b.reroutes) << what;
  EXPECT_EQ(a.drop_queue, b.drop_queue) << what;
  EXPECT_EQ(a.drop_ttl, b.drop_ttl) << what;
  EXPECT_EQ(a.drop_retry, b.drop_retry) << what;
  EXPECT_EQ(a.drop_no_route, b.drop_no_route) << what;
  EXPECT_EQ(a.drop_churn, b.drop_churn) << what;
  EXPECT_EQ(a.drop_battery, b.drop_battery) << what;
  EXPECT_EQ(a.drop_stranded, b.drop_stranded) << what;
  EXPECT_EQ(a.events, b.events) << what;
  EXPECT_EQ(a.energy_drained, b.energy_drained) << what;
  EXPECT_EQ(a.battery_dead, b.battery_dead) << what;
  EXPECT_EQ(a.churn_killed, b.churn_killed) << what;
  EXPECT_EQ(a.alive_end, b.alive_end) << what;
  EXPECT_EQ(a.stranded, b.stranded) << what;
  // The defaulted operator== covers every field, including any added after
  // the per-field list above was written.
  EXPECT_TRUE(a == b) << what;
}

// A directed path 0 -> 1 -> ... -> n-1: the collection tree toward n-1
// walks the line.
graph::Digraph make_path(int n) {
  graph::DigraphBuilder b(n);
  for (int i = 0; i + 1 < n; ++i) b.add_edge(i, i + 1);
  return b.build();
}

// The endpoint set the acceptance tests route between; churn fail events
// touching these nodes are filtered out so "connected survivor graph"
// holds for the flows being measured.
sim::TrafficSchedule make_churn_schedule(sim::ChurnEngine& eng,
                                         const std::vector<int>& endpoints) {
  sim::TrafficSchedule sched;
  const int ne = static_cast<int>(endpoints.size());
  for (int i = 0; i < ne; ++i) {
    sim::Flow f;
    f.src = endpoints[i];
    f.dst = endpoints[(i + ne / 2) % ne];
    f.packets = 10;
    f.start = 10 * static_cast<std::uint64_t>(i);
    f.interval = 60;
    sched.flows.push_back(f);
  }
  const std::uint64_t ticks[2] = {200, 450};
  for (int b = 0; b < 2; ++b) {
    std::vector<sim::ChurnEvent> events;
    eng.poisson_schedule(/*seed=*/77, /*batch_tag=*/b + 1,
                         /*fail_rate=*/0.12, /*recover_rate=*/0.5,
                         /*move_rate=*/0.05, /*move_radius=*/0.02, events);
    sim::TimedChurnBatch batch;
    batch.tick = ticks[b];
    for (const auto& e : events) {
      bool endpoint = false;
      for (int u : endpoints) endpoint = endpoint || u == e.node;
      if (endpoint && e.kind == sim::ChurnEventKind::kFail) continue;
      batch.events.push_back(e);
    }
    sched.churn.push_back(std::move(batch));
  }
  return sched;
}

TEST(Traffic, RepeatedRunsAreBitIdentical) {
  const auto pts = make_points(70, 42);
  core::PlanSession plan;
  const auto& result = plan.orient(pts, core::ProblemSpec{2, kPi});
  sim::TrafficEngine eng;
  eng.bind(pts, result.orientation);

  sim::TrafficSchedule sched;
  for (int i = 0; i < 6; ++i) {
    sched.flows.push_back({2 * i, 69 - 3 * i, 8, 5 * std::uint64_t(i), 50});
  }
  sim::TrafficOptions opts;
  opts.policy = sim::RoutingPolicy::kCollectionTree;
  opts.loss = {sim::LossKind::kBernoulli, 0.2, 0, 0, 0};
  opts.arq.max_retries = 5;
  opts.seed = 7;

  const sim::TrafficReport first = eng.run(sched, opts);
  expect_invariant(first);
  EXPECT_GT(first.retransmissions, 0);
  EXPECT_EQ(first.reroutes, 0);
  for (int rep = 0; rep < 2; ++rep) {
    expect_reports_equal(first, eng.run(sched, opts), "repeat");
  }
}

TEST(Traffic, GilbertElliottIsDeterministic) {
  const auto pts = make_points(50, 5);
  core::PlanSession plan;
  const auto& result = plan.orient(pts, core::ProblemSpec{2, kPi});
  sim::TrafficEngine eng;
  eng.bind(pts, result.orientation);
  sim::TrafficSchedule sched;
  for (int i = 0; i < 4; ++i) sched.flows.push_back({i, 49 - i, 6, 0, 70});
  sim::TrafficOptions opts;
  opts.loss.kind = sim::LossKind::kGilbertElliott;
  opts.loss.p = 0.02;
  opts.loss.p_bad = 0.6;
  opts.seed = 31;
  const sim::TrafficReport first = eng.run(sched, opts);
  expect_invariant(first);
  EXPECT_GT(first.frames_lost + first.acks_lost, 0);
  const auto& second = eng.run(sched, opts);
  expect_reports_equal(first, second, "gilbert-elliott repeat");
}

// The headline determinism contract: with churn recertification happening
// mid-run, the whole report is bit-identical at every thread count — one
// shared reference across the whole sweep.  A fresh ChurnEngine per run —
// a run advances engine state.
TEST(Traffic, ThreadCountParityUnderChurn) {
  const auto pts = make_points(64, 2024);
  const core::ProblemSpec spec{1, 8.0 * kPi / 5.0};
  const std::vector<int> endpoints = {0, 1, 2, 3, 4, 5};

  bool have_ref = false;
  sim::TrafficReport ref;
  for_each_thread_count([&](int threads) {
    sim::ChurnEngine churn;
    churn.set_threads(threads);
    churn.init(pts, spec);
    const sim::TrafficSchedule sched = make_churn_schedule(churn, endpoints);

    sim::TrafficEngine eng;
    eng.set_threads(threads);
    eng.attach_churn(churn);
    sim::TrafficOptions opts;
    opts.policy = sim::RoutingPolicy::kCollectionTree;
    opts.loss = {sim::LossKind::kBernoulli, 0.2, 0, 0, 0};
    opts.arq.max_retries = 6;
    opts.seed = 11;
    const auto& rep = eng.run(sched, opts);
    expect_invariant(rep);
    if (!have_ref) {
      ref = rep;
      have_ref = true;
    } else {
      expect_reports_equal(ref, rep, "thread-count parity");
    }
  });
}

// The robustness acceptance: per-link loss p=0.2 plus poisson churn.  ARQ
// over collection trees holds >= 90% delivery between surviving
// endpoints; the no-retry baseline on the identical scenario loses
// measurably more.
TEST(Traffic, ArqRecoversWhereNoRetryBaselineDegrades) {
  const auto pts = make_points(64, 777);
  const core::ProblemSpec spec{1, 8.0 * kPi / 5.0};
  const std::vector<int> endpoints = {0, 1, 2, 3, 4, 5, 6, 7};

  const auto run_arq = [&](int retries) -> sim::TrafficReport {
    sim::ChurnEngine churn;
    churn.init(pts, spec);
    const sim::TrafficSchedule sched = make_churn_schedule(churn, endpoints);
    sim::TrafficEngine eng;
    eng.attach_churn(churn);
    sim::TrafficOptions opts;
    opts.policy = sim::RoutingPolicy::kCollectionTree;
    opts.loss = {sim::LossKind::kBernoulli, 0.2, 0, 0, 0};
    opts.arq.max_retries = retries;
    opts.seed = 3;
    sim::TrafficReport rep = eng.run(sched, opts);
    expect_invariant(rep);
    return rep;
  };

  const auto arq = run_arq(6);
  const auto baseline = run_arq(0);

  EXPECT_EQ(arq.offered, baseline.offered);
  EXPECT_GE(arq.delivery_ratio, 0.90) << "ARQ must recover";
  EXPECT_LT(baseline.delivery_ratio, arq.delivery_ratio - 0.05)
      << "no-retry baseline must measurably degrade";
  EXPECT_GT(arq.retransmissions, 0);
  EXPECT_EQ(baseline.retransmissions, 0);
}

TEST(Traffic, QueueTailDropOnBurst) {
  const graph::Digraph g = make_path(3);
  sim::TrafficEngine eng;
  eng.bind_graph(g);
  sim::TrafficSchedule sched;
  // Three simultaneous injections at node 0 with room for one.
  for (int i = 0; i < 3; ++i) sched.flows.push_back({0, 2, 1, 0, 1});
  sim::TrafficOptions opts;
  opts.policy = sim::RoutingPolicy::kCollectionTree;
  opts.queue_capacity = 1;
  const auto& rep = eng.run(sched, opts);
  EXPECT_EQ(rep.delivered, 1);
  EXPECT_EQ(rep.drop_queue, 2);
  expect_invariant(rep);
}

TEST(Traffic, TtlBoundsHops) {
  const graph::Digraph g = make_path(6);
  sim::TrafficEngine eng;
  eng.bind_graph(g);
  sim::TrafficSchedule sched;
  sched.flows.push_back({0, 5, 1, 0, 1});
  sim::TrafficOptions opts;
  opts.policy = sim::RoutingPolicy::kCollectionTree;
  opts.ttl = 2;
  const auto& rep = eng.run(sched, opts);
  EXPECT_EQ(rep.delivered, 0);
  EXPECT_EQ(rep.drop_ttl, 1);
  expect_invariant(rep);
}

TEST(Traffic, ZeroPacketFlowStrandsNothing) {
  // 0 <-> 1 plus the island 2.  The flow to 2 offers no packets, so it
  // wants nothing: 2 gets no collection tree and is not stranded.
  graph::DigraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  const graph::Digraph g = b.build();
  sim::TrafficEngine eng;
  eng.bind_graph(g);
  sim::TrafficSchedule sched;
  sched.flows.push_back({0, 1, 3, 0, 50});
  sched.flows.push_back({0, 2, 0, 0, 50});
  const auto& rep = eng.run(sched, sim::TrafficOptions{});
  EXPECT_EQ(rep.offered, 3);
  EXPECT_EQ(rep.delivered, 3);
  EXPECT_TRUE(rep.stranded.empty());
  expect_invariant(rep);
}

TEST(Traffic, BatteryDrainClampsAndKills) {
  const graph::Digraph g = make_path(3);
  sim::TrafficEngine eng;
  eng.bind_graph(g);
  sim::TrafficSchedule sched;
  sched.flows.push_back({0, 2, 3, 0, 100});
  sim::TrafficOptions opts;
  opts.policy = sim::RoutingPolicy::kCollectionTree;
  opts.battery.capacity = 1.5;  // cost 1.0 per transmission in graph mode
  const auto& rep = eng.run(sched, opts);
  // Packet 1 and 2 each cross both relays; the second transmission at each
  // relay drains the battery past empty (clamped at zero) and kills the
  // node AFTER the frame leaves — so 2 deliveries, then the third packet
  // finds its source dead.
  EXPECT_EQ(rep.delivered, 2);
  EXPECT_EQ(rep.battery_dead, 2);
  EXPECT_EQ(rep.drop_stranded, 1);
  EXPECT_EQ(rep.energy_drained, 3.0);  // 1.0 + 0.5 at nodes 0 and 1
  EXPECT_EQ(rep.churn_killed, 0);
  EXPECT_EQ(eng.battery_charge(0), 0.0);
  EXPECT_EQ(eng.battery_charge(1), 0.0);
  EXPECT_GE(eng.battery_charge(2), 0.0);
  expect_invariant(rep);
}

// Graceful degradation: killing a destination mid-run strands the later
// injections and is reported, never thrown.
TEST(Traffic, ChurnStrandsDeadDestination) {
  const auto pts = make_points(32, 8);
  const core::ProblemSpec spec{1, 8.0 * kPi / 5.0};
  sim::ChurnEngine churn;
  churn.init(pts, spec);
  sim::TrafficEngine eng;
  eng.attach_churn(churn);

  sim::TrafficSchedule sched;
  sched.flows.push_back({/*src=*/0, /*dst=*/9, /*packets=*/5, 0, 100});
  sim::TimedChurnBatch batch;
  batch.tick = 150;
  batch.events.push_back(
      {sim::ChurnEventKind::kFail, /*node=*/9, geom::Point{}});
  sched.churn.push_back(batch);

  sim::TrafficOptions opts;
  opts.policy = sim::RoutingPolicy::kCollectionTree;
  sim::TrafficReport rep;
  EXPECT_NO_THROW(rep = eng.run(sched, opts));
  ASSERT_EQ(rep.stranded.size(), 1u);
  EXPECT_EQ(rep.stranded[0], 9);
  EXPECT_GE(rep.drop_stranded, 3);  // injections at t=200,300,400
  EXPECT_EQ(rep.churn_killed, 1);
  expect_invariant(rep);
}

TEST(Traffic, CollectionTreeOverRecordedTree) {
  const auto pts = make_points(40, 21);
  core::PlanSession plan;
  const core::ProblemSpec spec{1, 8.0 * kPi / 5.0};
  const auto& result = plan.orient(pts, spec);
  const auto& tree = plan.last_tree();

  sim::TrafficEngine eng;
  eng.bind(pts, result.orientation, &tree);
  sim::TrafficSchedule sched;
  for (int i = 0; i < 5; ++i) sched.flows.push_back({i, 39 - i, 4, 0, 30});
  sim::TrafficOptions opts;
  opts.policy = sim::RoutingPolicy::kCollectionTree;
  opts.ttl = 80;
  const auto& rep = eng.run(sched, opts);
  expect_invariant(rep);
  // The recorded orientation tree's paths are covered by the oriented
  // sectors, so zero-loss tree collection delivers everything.
  EXPECT_EQ(rep.delivered, rep.offered);
}

TEST(Traffic, WarmRunIsAllocationFree) {
  const auto pts = make_points(60, 17);
  core::PlanSession plan;
  const auto& result = plan.orient(pts, core::ProblemSpec{2, kPi});
  sim::TrafficEngine eng;
  eng.bind(pts, result.orientation);

  sim::TrafficSchedule sched;
  for (int i = 0; i < 5; ++i) {
    sched.flows.push_back({i, 59 - 2 * i, 6, 3 * std::uint64_t(i), 40});
  }
  sim::TrafficOptions opts;
  opts.policy = sim::RoutingPolicy::kCollectionTree;
  opts.loss = {sim::LossKind::kBernoulli, 0.2, 0, 0, 0};
  opts.arq.max_retries = 4;

  (void)eng.run(sched, opts);  // cold: sizes every buffer
  sim::TrafficReport first = eng.run(sched, opts);  // warm it fully
  const long long allocs =
      count_allocations([&] { (void)eng.run(sched, opts); });
  EXPECT_EQ(allocs, 0) << "warm TrafficEngine::run must not allocate";
  expect_reports_equal(first, eng.last_report(), "warm repeat");
}

// The determinism matrix: loss x churn x thread count.  Every cell runs
// twice — the static cell on one warm engine, the churn cell on two
// identically initialised engine pairs (a run advances churn state) — and
// both runs must equal one shared reference per (loss, churn) scenario,
// with the accounting invariant holding on every run.
TEST(Traffic, RepeatRunParityMatrix) {
  const auto pts = make_points(48, 910);
  const core::ProblemSpec spec{1, 8.0 * kPi / 5.0};
  const std::vector<int> endpoints = {0, 1, 2, 3};
  core::PlanSession plan;
  const auto& oriented = plan.orient(pts, spec);

  for (const double loss : {0.0, 0.2}) {
    for (const bool with_churn : {false, true}) {
      bool have_ref = false;
      sim::TrafficReport ref;
      for_each_thread_count([&](int threads) {
        sim::TrafficOptions opts;
        opts.policy = sim::RoutingPolicy::kCollectionTree;
        if (loss > 0.0) {
          opts.loss = {sim::LossKind::kBernoulli, loss, 0, 0, 0};
        }
        opts.arq.max_retries = 5;
        opts.seed = 23;
        sim::TrafficEngine static_eng;
        static_eng.set_threads(threads);
        for (int rep = 0; rep < 2; ++rep) {
          sim::ChurnEngine churn;
          sim::TrafficEngine churn_eng;
          sim::TrafficEngine& eng = with_churn ? churn_eng : static_eng;
          sim::TrafficSchedule sched;
          if (with_churn) {
            churn.set_threads(threads);
            churn.init(pts, spec);
            sched = make_churn_schedule(churn, endpoints);
            eng.set_threads(threads);
            eng.attach_churn(churn);
          } else {
            const int ne = static_cast<int>(endpoints.size());
            for (int i = 0; i < ne; ++i) {
              sched.flows.push_back({endpoints[i], 47 - endpoints[i], 10,
                                     10 * std::uint64_t(i), 60});
            }
            if (rep == 0) eng.bind(pts, oriented.orientation);
          }
          const auto& got = eng.run(sched, opts);
          expect_invariant(got);
          if (!have_ref) {
            ref = got;
            have_ref = true;
          } else {
            expect_reports_equal(ref, got, "repeat-run parity matrix");
          }
        }
      });
    }
  }
}

// ARQ timeouts past the 2^24-tick wheel span: every retry parks in the
// overflow heap and cascades back through the upper wheels, under 20%
// loss — and a repeat run reproduces the report bit for bit.
TEST(Traffic, LongHorizonBackoffForcesOverflow) {
  const auto pts = make_points(40, 4096);
  core::PlanSession plan;
  const auto& result = plan.orient(pts, core::ProblemSpec{2, kPi});
  sim::TrafficEngine eng;
  eng.bind(pts, result.orientation);

  sim::TrafficSchedule sched;
  for (int i = 0; i < 4; ++i) {
    sched.flows.push_back({i, 39 - i, 6, 7 * std::uint64_t(i), 90});
  }
  sim::TrafficOptions opts;
  opts.policy = sim::RoutingPolicy::kCollectionTree;
  opts.loss = {sim::LossKind::kBernoulli, 0.2, 0, 0, 0};
  opts.arq.max_retries = 5;
  opts.arq.ack_timeout = (1ull << 24) + 123;  // beyond the wheel span
  opts.seed = 13;

  const sim::TrafficReport first = eng.run(sched, opts);
  expect_invariant(first);
  EXPECT_GT(first.frames_lost, 0);
  EXPECT_GT(eng.event_queue().parked(), 0u)
      << "retries must traverse the overflow heap";
  EXPECT_GT(eng.event_queue().cascaded(), 0u)
      << "drained retries must cascade down the upper wheels";

  const auto& again = eng.run(sched, opts);
  expect_reports_equal(first, again, "long-horizon repeat");
}

// Degenerate knobs are rejected with a structured error naming the field,
// before any engine state is touched — the previous report survives.
TEST(Traffic, OptionValidationRejectsDegenerateKnobs) {
  const graph::Digraph g = make_path(3);
  sim::TrafficEngine eng;
  eng.bind_graph(g);
  sim::TrafficSchedule sched;
  sched.flows.push_back({0, 2, 1, 0, 1});

  sim::TrafficOptions good;
  good.policy = sim::RoutingPolicy::kCollectionTree;
  const sim::TrafficReport before = eng.run(sched, good);
  EXPECT_EQ(before.delivered, 1);

  const auto expect_rejected =
      [&](const char* field,
          const std::function<void(sim::TrafficOptions&)>& mutate) {
        sim::TrafficOptions opts = good;
        mutate(opts);
        try {
          (void)eng.run(sched, opts);
          FAIL() << "expected TrafficOptionsError for " << field;
        } catch (const sim::TrafficOptionsError& e) {
          EXPECT_EQ(e.field(), field);
          EXPECT_NE(std::string(e.what()).find(field), std::string::npos);
        }
        // Validation precedes all mutation: the last report is intact.
        expect_reports_equal(before, eng.last_report(), field);
      };

  expect_rejected("queue_capacity",
                  [](sim::TrafficOptions& o) { o.queue_capacity = 0; });
  expect_rejected("ttl", [](sim::TrafficOptions& o) { o.ttl = -1; });
  expect_rejected("service_ticks",
                  [](sim::TrafficOptions& o) { o.service_ticks = 0; });
  expect_rejected("arq.max_retries",
                  [](sim::TrafficOptions& o) { o.arq.max_retries = -1; });
  expect_rejected("arq.ack_timeout", [](sim::TrafficOptions& o) {
    o.arq.max_retries = 3;
    o.arq.ack_timeout = 0;
  });
  expect_rejected("loss.p", [](sim::TrafficOptions& o) {
    o.loss.kind = sim::LossKind::kBernoulli;
    o.loss.p = 1.5;
  });
  expect_rejected("loss.p_bad", [](sim::TrafficOptions& o) {
    o.loss.kind = sim::LossKind::kGilbertElliott;
    o.loss.p_bad = -0.1;
  });
  expect_rejected("loss.p_good_to_bad", [](sim::TrafficOptions& o) {
    o.loss.kind = sim::LossKind::kGilbertElliott;
    o.loss.p_good_to_bad = std::nan("");
  });
  expect_rejected("battery.capacity",
                  [](sim::TrafficOptions& o) { o.battery.capacity = -1.0; });
  expect_rejected("battery.per_packet_scale", [](sim::TrafficOptions& o) {
    o.battery.per_packet_scale = std::nan("");
  });

  // No-retry ARQ with a zero timeout is fine: the timeout is never armed.
  sim::TrafficOptions noretry = good;
  noretry.arq.max_retries = 0;
  noretry.arq.ack_timeout = 0;
  EXPECT_NO_THROW((void)eng.run(sched, noretry));
}

}  // namespace

namespace {

// ---- Golden reports for the route rebuild --------------------------------

/// FNV-1a over every TrafficReport field (doubles by bit pattern).
std::uint64_t report_digest(const sim::TrafficReport& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&](std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const long long x :
       {r.offered, r.delivered, r.transmissions, r.retransmissions,
        r.frames_lost, r.acks_lost, r.duplicates, r.reroutes, r.drop_queue,
        r.drop_ttl, r.drop_retry, r.drop_no_route, r.drop_churn,
        r.drop_battery, r.drop_stranded, r.events}) {
    mix(static_cast<std::uint64_t>(x));
  }
  mix(std::bit_cast<std::uint64_t>(r.delivery_ratio));
  mix(std::bit_cast<std::uint64_t>(r.energy_drained));
  mix(r.p50_latency);
  mix(r.p99_latency);
  for (const int x : {r.battery_dead, r.churn_killed, r.alive_end}) {
    mix(static_cast<std::uint64_t>(x));
  }
  for (const int u : r.stranded) mix(static_cast<std::uint64_t>(u));
  return h;
}

/// `count` flows from random sources toward three shared destinations, so
/// each destination's route targets mix several sources.
std::vector<sim::Flow> golden_flows(int n, int count, geom::Rng& rng) {
  const int dsts[3] = {static_cast<int>(rng() % n), static_cast<int>(rng() % n),
                       static_cast<int>(rng() % n)};
  std::vector<sim::Flow> flows;
  for (int i = 0; i < count; ++i) {
    sim::Flow f;
    f.src = static_cast<int>(rng() % n);
    f.dst = dsts[i % 3];
    f.packets = 12;
    f.start = 7 * static_cast<std::uint64_t>(i);
    f.interval = 45;
    flows.push_back(f);
  }
  return flows;
}

/// Scenario `id` of the golden set: ids 0–13 run under churn (fails,
/// moves, recovers of earlier fails, escalated re-plans), 14–19 statically
/// with small batteries (relays die mid-run), 20–23 statically over the
/// recorded orientation tree.  Every run is lossy with ARQ retries, so
/// copies are in flight whenever the routes rebuild.
sim::TrafficReport golden_run(int id) {
  geom::Rng rng(4000 + id);
  const int n = 60 + 20 * (id % 4);
  const auto pts = make_points(n, 300 + id);
  const core::ProblemSpec spec = id % 2 == 0
                                     ? core::ProblemSpec{1, 8.0 * kPi / 5.0}
                                     : core::ProblemSpec{2, kPi};
  sim::TrafficOptions opts;
  opts.policy = sim::RoutingPolicy::kCollectionTree;
  opts.loss = id % 3 == 0
                  ? sim::LossModel{sim::LossKind::kGilbertElliott, 0.1, 0.5,
                                   0.05, 0.25}
                  : sim::LossModel{sim::LossKind::kBernoulli, 0.15, 0, 0, 0};
  opts.arq.max_retries = 4;
  opts.seed = 17 + id;
  sim::TrafficSchedule sched;
  sched.flows = golden_flows(n, 9, rng);
  if (id < 14) {
    sim::ChurnEngine churn;
    churn.init(pts, spec);
    std::vector<sim::ChurnEvent> events;
    std::vector<int> failed;
    const std::uint64_t ticks[3] = {120, 260, 430};
    for (int b = 0; b < 3; ++b) {
      sim::TimedChurnBatch batch;
      batch.tick = ticks[b];
      churn.poisson_schedule(/*seed=*/91 + id, /*batch_tag=*/b + 1,
                             /*fail_rate=*/0.08, /*recover_rate=*/0.0,
                             /*move_rate=*/0.06, /*move_radius=*/0.03,
                             events);
      batch.events = events;
      for (const auto& e : events) {
        if (e.kind == sim::ChurnEventKind::kFail) failed.push_back(e.node);
      }
      if (b > 0) {  // recover half of the nodes failed so far
        for (size_t i = 0; i < failed.size(); i += 2) {
          batch.events.push_back(
              {sim::ChurnEventKind::kRecover, failed[i], geom::Point{}});
        }
      }
      sched.churn.push_back(std::move(batch));
    }
    sim::TrafficEngine eng;
    eng.attach_churn(churn);
    return eng.run(sched, opts);
  }
  core::PlanSession plan;
  const auto& res = plan.orient(pts, spec);
  sim::TrafficEngine eng;
  if (id < 20) {
    opts.battery.capacity = 6.0 + 4.0 * (id - 14);
    eng.bind(pts, res.orientation);
  } else {
    eng.bind(pts, res.orientation, &plan.last_tree());
  }
  return eng.run(sched, opts);
}

TEST(Traffic, RouteRebuildsMatchGoldenReports) {
  // Reports recorded with routes rebuilt by full BFS passes over every
  // node.  A rebuild that stops at each destination's farthest packet
  // must reproduce them bit for bit.
  static constexpr std::uint64_t kGolden[24] = {
      0xd0b2ad7dc41c7c16ULL, 0x25d43c751b2590fbULL, 0x4b2ccec3933cd3d8ULL,
      0xce0146f08e4cbcddULL, 0x3c624fd75cb91c6cULL, 0x08c70e1643cc1b91ULL,
      0x3a998aa41825d30dULL, 0x570a2a7ecfb2fbe7ULL, 0x5992d0b47622f5e7ULL,
      0xdefa40bb3b841a77ULL, 0x6227f4ce8f4f8cc3ULL, 0xee4cadf2f376e72dULL,
      0xa7acf2a6a905cd5fULL, 0xa5f94a9531444317ULL, 0x373d21820d8d4822ULL,
      0xd715ce63b5da0150ULL, 0xb9ddd4dac643987cULL, 0x625a7dc8202a9a41ULL,
      0xdd5ecc09ad477952ULL, 0x7d62e35e02de2b7fULL, 0xa461b41485796ee6ULL,
      0x66e80f28e12acff7ULL, 0x24aee42fbcc385eaULL, 0x669ca3217573dc59ULL,
  };
  long long churn_killed = 0, battery_dead = 0, delivered = 0;
  for (int id = 0; id < 24; ++id) {
    const sim::TrafficReport rep = golden_run(id);
    expect_invariant(rep);
    churn_killed += rep.churn_killed;
    battery_dead += rep.battery_dead;
    delivered += rep.delivered;
    EXPECT_EQ(report_digest(rep), kGolden[id]) << "scenario " << id;
  }
  // The scenarios exercise what they claim to.
  EXPECT_GT(churn_killed, 0);
  EXPECT_GT(battery_dead, 0);
  EXPECT_GT(delivered, 0);
}

}  // namespace
