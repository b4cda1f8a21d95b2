// sim::TrafficEngine — the packet-transport acceptance suite.  Pillars:
//
//   * Parity: a zero-loss static flood reproduces AuditSession::flood's
//     transmission count exactly — the discrete-event machinery over the
//     same digraph is the same physics, just with timestamps.
//   * Determinism: the same (topology, schedule, seed) replays to a
//     bit-identical TrafficReport across repeated runs and at 1/2/4/8
//     threads, including mid-run churn recertification.
//   * Robustness: under per-link loss p=0.2 plus a poisson churn schedule,
//     the ARQ+reroute policy recovers >= 90% delivery on the surviving
//     endpoints while the no-retry baseline measurably degrades — and the
//     logical accounting invariant (offered == delivered + sum of drops)
//     holds on every run.
//   * Zero-alloc: the second identical run() on a warm static engine
//     performs zero heap allocations (the shared operator-new counting
//     hook, tests/alloc_counter.cpp).

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "common/constants.hpp"
#include "core/session.hpp"
#include "geometry/generators.hpp"
#include "graph/digraph.hpp"
#include "sim/audit.hpp"
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

// A directed path 0 -> 1 -> ... -> n-1 with positions on the x axis, so
// greedy forwarding walks the line.
graph::Digraph make_path(int n, std::vector<geom::Point>& pts) {
  pts.clear();
  graph::DigraphBuilder b(n);
  for (int i = 0; i < n; ++i) {
    pts.push_back({static_cast<double>(i), 0.0});
    if (i + 1 < n) b.add_edge(i, i + 1);
  }
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

TEST(Traffic, FloodParityWithAuditFlood) {
  const auto pts = make_points(80, 1234);
  core::PlanSession plan;
  const core::ProblemSpec spec{1, 8.0 * kPi / 5.0};
  const auto& result = plan.orient(pts, spec);

  sim::AuditSession audit;
  audit.load(pts, result.orientation);
  const auto ref = audit.flood(0);
  ASSERT_EQ(ref.reached, 80);  // strongly connected instance

  sim::TrafficEngine eng;
  eng.bind(pts, result.orientation);
  sim::TrafficSchedule sched;
  sched.flows.push_back({/*src=*/0, /*dst=*/79, /*packets=*/1, 0, 1});
  sim::TrafficOptions opts;
  opts.policy = sim::RoutingPolicy::kFlood;
  opts.ttl = 80;
  opts.queue_capacity = 4;
  const auto& rep = eng.run(sched, opts);

  EXPECT_EQ(rep.delivered, 1);
  EXPECT_EQ(rep.transmissions, ref.transmissions);
  EXPECT_EQ(rep.frames_lost, 0);
  expect_invariant(rep);
}

TEST(Traffic, FloodUnderLossNeverThrowsAndBalances) {
  const auto pts = make_points(60, 99);
  core::PlanSession plan;
  const auto& result = plan.orient(pts, core::ProblemSpec{2, 6.0 * kPi / 5.0});
  sim::TrafficEngine eng;
  eng.bind(pts, result.orientation);
  sim::TrafficSchedule sched;
  for (int i = 0; i < 4; ++i) {
    sched.flows.push_back({i, 59 - i, 3, 0, 40});
  }
  sim::TrafficOptions opts;
  opts.policy = sim::RoutingPolicy::kFlood;
  opts.loss = {sim::LossKind::kBernoulli, 0.3, 0, 0, 0};
  opts.ttl = 60;
  const auto& rep = eng.run(sched, opts);
  EXPECT_GT(rep.frames_lost, 0);
  expect_invariant(rep);
}

// Repeats are bit-identical under BOTH queue kinds — and the wheel run
// equals the heap run, the oracle half of the timing-wheel contract.
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
  opts.policy = sim::RoutingPolicy::kGreedyTreeFallback;
  opts.loss = {sim::LossKind::kBernoulli, 0.2, 0, 0, 0};
  opts.arq.max_retries = 5;
  opts.seed = 7;

  bool have_ref = false;
  sim::TrafficReport ref;
  for (const auto kind :
       {sim::QueueKind::kTimingWheel, sim::QueueKind::kBinaryHeap}) {
    opts.queue = kind;
    sim::TrafficReport first = eng.run(sched, opts);
    expect_invariant(first);
    const auto& second = eng.run(sched, opts);
    expect_reports_equal(first, second, sim::to_string(kind));
    if (!have_ref) {
      ref = first;
      have_ref = true;
    } else {
      expect_reports_equal(ref, first, "wheel vs heap");
    }
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
  opts.queue = sim::QueueKind::kBinaryHeap;
  const auto& oracle = eng.run(sched, opts);
  expect_reports_equal(first, oracle, "gilbert-elliott wheel vs heap");
}

// The headline determinism contract: with churn recertification happening
// mid-run, the whole report is bit-identical at every thread count AND
// under both queue kinds — one shared reference across the whole matrix.
// A fresh ChurnEngine per run — a run advances engine state.
TEST(Traffic, ThreadCountParityUnderChurn) {
  const auto pts = make_points(64, 2024);
  const core::ProblemSpec spec{1, 8.0 * kPi / 5.0};
  const std::vector<int> endpoints = {0, 1, 2, 3, 4, 5};

  bool have_ref = false;
  sim::TrafficReport ref;
  for_each_thread_count([&](int threads) {
    for (const auto kind :
         {sim::QueueKind::kTimingWheel, sim::QueueKind::kBinaryHeap}) {
      sim::ChurnEngine churn;
      churn.set_threads(threads);
      churn.init(pts, spec);
      const sim::TrafficSchedule sched = make_churn_schedule(churn, endpoints);

      sim::TrafficEngine eng;
      eng.set_threads(threads);
      eng.attach_churn(churn);
      sim::TrafficOptions opts;
      opts.policy = sim::RoutingPolicy::kGreedyTreeFallback;
      opts.loss = {sim::LossKind::kBernoulli, 0.2, 0, 0, 0};
      opts.arq.max_retries = 6;
      opts.seed = 11;
      opts.queue = kind;
      const auto& rep = eng.run(sched, opts);
      expect_invariant(rep);
      if (!have_ref) {
        ref = rep;
        have_ref = true;
      } else {
        expect_reports_equal(ref, rep, "thread/queue-kind parity");
      }
    }
  });
}

// The robustness acceptance: per-link loss p=0.2 plus poisson churn.  The
// ARQ+reroute policy holds >= 90% delivery between surviving endpoints;
// the no-retry greedy baseline on the identical scenario loses measurably
// more.
TEST(Traffic, ArqRecoversWhereNoRetryBaselineDegrades) {
  const auto pts = make_points(64, 777);
  const core::ProblemSpec spec{1, 8.0 * kPi / 5.0};
  const std::vector<int> endpoints = {0, 1, 2, 3, 4, 5, 6, 7};

  const auto run_policy = [&](sim::RoutingPolicy policy,
                              int retries) -> sim::TrafficReport {
    sim::ChurnEngine churn;
    churn.init(pts, spec);
    const sim::TrafficSchedule sched = make_churn_schedule(churn, endpoints);
    sim::TrafficEngine eng;
    eng.attach_churn(churn);
    sim::TrafficOptions opts;
    opts.policy = policy;
    opts.loss = {sim::LossKind::kBernoulli, 0.2, 0, 0, 0};
    opts.arq.max_retries = retries;
    opts.seed = 3;
    sim::TrafficReport rep = eng.run(sched, opts);
    expect_invariant(rep);
    return rep;
  };

  const auto arq = run_policy(sim::RoutingPolicy::kGreedyTreeFallback, 6);
  const auto baseline = run_policy(sim::RoutingPolicy::kGreedy, 0);

  EXPECT_EQ(arq.offered, baseline.offered);
  EXPECT_GE(arq.delivery_ratio, 0.90) << "ARQ+reroute must recover";
  EXPECT_LT(baseline.delivery_ratio, arq.delivery_ratio - 0.05)
      << "no-retry baseline must measurably degrade";
  EXPECT_GT(arq.retransmissions, 0);
  EXPECT_EQ(baseline.retransmissions, 0);
}

TEST(Traffic, QueueTailDropOnBurst) {
  std::vector<geom::Point> pts;
  const graph::Digraph g = make_path(3, pts);
  sim::TrafficEngine eng;
  eng.bind_graph(g, pts);
  sim::TrafficSchedule sched;
  // Three simultaneous injections at node 0 with room for one.
  for (int i = 0; i < 3; ++i) sched.flows.push_back({0, 2, 1, 0, 1});
  sim::TrafficOptions opts;
  opts.policy = sim::RoutingPolicy::kGreedy;
  opts.queue_capacity = 1;
  const auto& rep = eng.run(sched, opts);
  EXPECT_EQ(rep.delivered, 1);
  EXPECT_EQ(rep.drop_queue, 2);
  expect_invariant(rep);
}

TEST(Traffic, TtlBoundsHops) {
  std::vector<geom::Point> pts;
  const graph::Digraph g = make_path(6, pts);
  sim::TrafficEngine eng;
  eng.bind_graph(g, pts);
  sim::TrafficSchedule sched;
  sched.flows.push_back({0, 5, 1, 0, 1});
  sim::TrafficOptions opts;
  opts.policy = sim::RoutingPolicy::kGreedy;
  opts.ttl = 2;
  const auto& rep = eng.run(sched, opts);
  EXPECT_EQ(rep.delivered, 0);
  EXPECT_EQ(rep.drop_ttl, 1);
  expect_invariant(rep);
}

TEST(Traffic, BatteryDrainClampsAndKills) {
  std::vector<geom::Point> pts;
  const graph::Digraph g = make_path(3, pts);
  sim::TrafficEngine eng;
  eng.bind_graph(g, pts);
  sim::TrafficSchedule sched;
  sched.flows.push_back({0, 2, 3, 0, 100});
  sim::TrafficOptions opts;
  opts.policy = sim::RoutingPolicy::kGreedy;
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
  opts.policy = sim::RoutingPolicy::kGreedyTreeFallback;
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
  opts.policy = sim::RoutingPolicy::kGreedyTreeFallback;
  opts.loss = {sim::LossKind::kBernoulli, 0.2, 0, 0, 0};
  opts.arq.max_retries = 4;

  for (const auto kind :
       {sim::QueueKind::kTimingWheel, sim::QueueKind::kBinaryHeap}) {
    opts.queue = kind;
    (void)eng.run(sched, opts);  // cold: sizes every buffer
    sim::TrafficReport first = eng.run(sched, opts);  // warm it fully
    const long long allocs =
        count_allocations([&] { (void)eng.run(sched, opts); });
    EXPECT_EQ(allocs, 0) << "warm TrafficEngine::run must not allocate ("
                         << sim::to_string(kind) << ")";
    expect_reports_equal(first, eng.last_report(), sim::to_string(kind));
  }
}

// The acceptance matrix of the timing-wheel PR: loss x churn x thread
// count, every cell's TrafficReport bit-identical between the wheel and
// the heap oracle — one shared reference per (loss, churn) scenario.
TEST(Traffic, QueueKindParityMatrix) {
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
        for (const auto kind :
             {sim::QueueKind::kTimingWheel, sim::QueueKind::kBinaryHeap}) {
          sim::ChurnEngine churn;
          sim::TrafficEngine eng;
          eng.set_threads(threads);
          sim::TrafficSchedule sched;
          if (with_churn) {
            churn.set_threads(threads);
            churn.init(pts, spec);
            sched = make_churn_schedule(churn, endpoints);
            eng.attach_churn(churn);
          } else {
            const int ne = static_cast<int>(endpoints.size());
            for (int i = 0; i < ne; ++i) {
              sched.flows.push_back({endpoints[i], 47 - endpoints[i], 10,
                                     10 * std::uint64_t(i), 60});
            }
            eng.bind(pts, oriented.orientation);
          }
          sim::TrafficOptions opts;
          opts.policy = sim::RoutingPolicy::kGreedyTreeFallback;
          if (loss > 0.0) {
            opts.loss = {sim::LossKind::kBernoulli, loss, 0, 0, 0};
          }
          opts.arq.max_retries = 5;
          opts.seed = 23;
          opts.queue = kind;
          const auto& rep = eng.run(sched, opts);
          expect_invariant(rep);
          if (!have_ref) {
            ref = rep;
            have_ref = true;
          } else {
            expect_reports_equal(ref, rep, "queue-kind parity matrix");
          }
        }
      });
    }
  }
}

// ARQ timeouts past the 2^24-tick wheel span: every retry parks in the
// overflow heap and cascades back through the upper wheels, under 20%
// loss — and the report still matches the heap oracle bit for bit.
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
  opts.policy = sim::RoutingPolicy::kGreedyTreeFallback;
  opts.loss = {sim::LossKind::kBernoulli, 0.2, 0, 0, 0};
  opts.arq.max_retries = 5;
  opts.arq.ack_timeout = (1ull << 24) + 123;  // beyond the wheel span
  opts.seed = 13;

  const sim::TrafficReport wheel = eng.run(sched, opts);
  expect_invariant(wheel);
  EXPECT_GT(wheel.frames_lost, 0);
  EXPECT_GT(eng.event_queue().parked(), 0u)
      << "retries must traverse the overflow heap";
  EXPECT_GT(eng.event_queue().cascaded(), 0u)
      << "drained retries must cascade down the upper wheels";

  opts.queue = sim::QueueKind::kBinaryHeap;
  const auto& oracle = eng.run(sched, opts);
  expect_reports_equal(wheel, oracle, "long-horizon wheel vs heap");
}

// Degenerate knobs are rejected with a structured error naming the field,
// before any engine state is touched — the previous report survives.
TEST(Traffic, OptionValidationRejectsDegenerateKnobs) {
  std::vector<geom::Point> pts;
  const graph::Digraph g = make_path(3, pts);
  sim::TrafficEngine eng;
  eng.bind_graph(g, pts);
  sim::TrafficSchedule sched;
  sched.flows.push_back({0, 2, 1, 0, 1});

  sim::TrafficOptions good;
  good.policy = sim::RoutingPolicy::kGreedy;
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
