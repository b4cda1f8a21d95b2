/// \file perfbench.cpp
/// The repo benchmark: three serial user pipelines, each timed end to end
/// over a closed loop of ops (one caller; the next op starts when the
/// previous one returns), with every op's output checked.  A traced run
/// (`--trace 1`) times the calls into each layer's public functions from
/// this file instead and prints the per-layer metrics.  See README.md for
/// the workloads, the metrics and why everything runs on one thread.
///
///   perfbench --workload <plan_200k|churn_small_50k|traffic_churn_10k>
///             --seed <n> --seconds <s> --trace <0|1> [--smoke]
///
/// The last stdout line is one JSON object {correct, attempted, failed,
/// metrics}.  `--smoke` shrinks every instance so all gates and the traced
/// mode run in seconds.  An op that fails its gate is counted in `failed`
/// and makes `correct` false; the exit code is non-zero only when no result
/// could be produced.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "antenna/transmission.hpp"
#include "common/constants.hpp"
#include "core/session.hpp"
#include "core/validate.hpp"
#include "delaunay/delaunay.hpp"
#include "geometry/generators.hpp"
#include "graph/scc.hpp"
#include "mst/degree5.hpp"
#include "mst/emst.hpp"
#include "sim/churn.hpp"
#include "sim/traffic.hpp"

namespace {

using namespace dirant;
using Clock = std::chrono::steady_clock;

const core::ProblemSpec kSpec{2, kPi};
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile of an unsorted sample (0 for an empty one).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

/// FNV-1a over the bytes of each added value: the determinism digest.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  template <class T>
  void add(const T& v) {
    unsigned char b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    for (unsigned char c : b) h = (h ^ c) * 1099511628211ull;
  }
  void add_str(const char* s) {
    if (s == nullptr) s = "";
    for (; *s != '\0'; ++s) add(*s);
    add('\0');
  }
};

std::uint64_t certificate_digest(const core::Certificate& c) {
  Digest d;
  d.add(c.strongly_connected);
  d.add(c.scc_count);
  d.add(c.max_radius);
  d.add(c.max_spread_sum);
  d.add(c.max_antennas);
  d.add(c.spread_within_budget);
  d.add(c.antennas_within_k);
  d.add(c.radius_within_bound);
  return d.h;
}

std::uint64_t step_digest(const sim::StepReport& r) {
  Digest d;
  d.add(r.batch);
  d.add(r.alive);
  d.add(r.events.size());
  d.add(r.suggested_repair.size());
  d.add(r.incremental_plan);
  d.add(r.incremental_digraph);
  d.add(r.localized_mst);
  d.add_str(r.mst_fallback);
  d.add(r.mst_region);
  d.add(r.incremental_orient);
  d.add(r.orient_planned);
  d.add(r.warm_orient);
  d.add(r.cert_reused);
  d.add_str(r.escalation);
  d.add(certificate_digest(r.certificate));
  return d.h;
}

long long drop_total(const sim::TrafficReport& r) {
  return r.drop_queue + r.drop_ttl + r.drop_retry + r.drop_no_route +
         r.drop_churn + r.drop_battery + r.drop_stranded;
}

std::uint64_t traffic_digest(const sim::TrafficReport& r) {
  Digest d;
  for (long long v : {r.offered, r.delivered, r.transmissions,
                      r.retransmissions, r.frames_lost, r.acks_lost,
                      r.duplicates, r.reroutes, r.drop_queue, r.drop_ttl,
                      r.drop_retry, r.drop_no_route, r.drop_churn,
                      r.drop_battery, r.drop_stranded, r.events}) {
    d.add(v);
  }
  d.add(r.p50_latency);
  d.add(r.p99_latency);
  d.add(r.churn_killed);
  d.add(r.alive_end);
  for (int s : r.stranded) d.add(s);
  return d.h;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ------------------------------------------------------------ host noise

/// ns per step of a pointer chase over a fixed 4 MiB single-cycle
/// permutation: tracks how loaded the host's caches and memory are.
double host_chase_ns() {
  constexpr std::uint32_t kSlots = 1u << 20;  // 4 MiB of uint32 links
  constexpr int kSteps = 1 << 21;
  std::vector<std::uint32_t> next(kSlots);
  std::iota(next.begin(), next.end(), 0u);
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  for (std::uint32_t i = kSlots - 1; i > 0; --i) {  // Sattolo: one cycle
    s ^= s << 13, s ^= s >> 7, s ^= s << 17;
    std::swap(next[i], next[s % i]);
  }
  std::uint32_t at = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSteps; ++i) at = next[at];
  const auto t1 = Clock::now();
  if (at == kSlots) std::puts("");  // keeps the chase live
  return ms_between(t0, t1) * 1e6 / kSteps;
}

/// ms for a fixed register-only xorshift loop: tracks CPU share/frequency.
double host_spin_ms() {
  std::uint64_t s = 88172645463325252ull;
  const auto t0 = Clock::now();
  for (int i = 0; i < (1 << 25); ++i) s ^= s << 13, s ^= s >> 7, s ^= s << 17;
  const auto t1 = Clock::now();
  if (s == 0) std::puts("");
  return ms_between(t0, t1);
}

// ------------------------------------------------------------ reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Run {
  long long attempted = 0;
  long long failed = 0;
  std::uint64_t digest = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< printed before the JSON line

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string s) { notes.push_back(std::move(s)); }
};

std::string fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

/// Closed-loop measurement loop shared by the workloads: `op` runs until
/// `seconds` of wall time have passed since the loop began (and at least
/// `min_ops` ops have run).  `op` returns the op's own latency in ms, so
/// per-op housekeeping it does untimed stays out of the latency sample but
/// inside the wall time that ops_per_s divides by.
struct Sampler {
  std::vector<double> lat_ms;
  double wall_ms = 0.0;
  long long failed = 0;

  template <class Op>
  void loop(double seconds, int min_ops, Op&& op) {
    const auto t0 = Clock::now();
    while (wall_ms < seconds * 1000.0 ||
           static_cast<int>(lat_ms.size()) < min_ops) {
      bool ok = true;
      lat_ms.push_back(op(ok));
      if (!ok) ++failed;
      wall_ms = ms_between(t0, Clock::now());
    }
  }
};

/// Runs `setup` kSetups times from scratch and returns the median wall
/// time in seconds.  The previous state is destroyed (`state.reset()`) and
/// its memory handed back to the OS untimed, so each set-up pays its own
/// first-touch costs and peak RSS does not stack fragmentation from
/// earlier set-ups.
template <class State, class Setup>
double timed_setups(std::unique_ptr<State>& state, Setup&& setup) {
  std::vector<double> s;
  for (int i = 0; i < kSetups; ++i) {
    state.reset();
#ifdef __GLIBC__
    malloc_trim(0);
#endif
    const auto t0 = Clock::now();
    state = setup();
    s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  return median(s);
}

void end_to_end(Run& run, double setup_s, const Sampler& s,
                bool with_p90) {
  run.attempted = static_cast<long long>(s.lat_ms.size());
  run.failed = s.failed;
  const double p50 = median(s.lat_ms);
  const double p90 = percentile(s.lat_ms, 0.9);
  const double ops_per_s =
      static_cast<double>(s.lat_ms.size()) / (s.wall_ms / 1000.0);
  run.metric("setup_s", setup_s, "s");
  run.metric("op_p50_ms", p50, "ms");
  run.metric("ops_per_s", ops_per_s, "1/s");
  run.metric("peak_rss_mb", peak_rss_mb(), "MB");
  run.note(fmt("setup_s=%.4f (median of %d set-ups)", setup_s, kSetups));
  run.note(fmt("op_p50_ms=%.4f (%zu ops)", p50, s.lat_ms.size()));
  if (with_p90) {
    run.note(fmt("op_p90_ms=%.4f (%zu ops, %zu beyond p90)", p90,
                 s.lat_ms.size(),
                 s.lat_ms.size() - static_cast<size_t>(std::ceil(
                                       0.9 * static_cast<double>(
                                                 s.lat_ms.size())))));
  }
  run.note(fmt("ops_per_s=%.4f (%zu ops in %.3f s wall)", ops_per_s,
               s.lat_ms.size(), s.wall_ms / 1000.0));
  run.note(fmt("fail_rate=%.6f (%lld of %zu)",
               static_cast<double>(s.failed) /
                   static_cast<double>(s.lat_ms.size()),
               s.failed, s.lat_ms.size()));
}

/// Every per-layer metric a traced run prints, with its unit (main adds the
/// host diagnostics).  Workloads fill the layers their op calls from this
/// file; the rest read 0 (the layer is not called from the benchmark on
/// that workload).
const std::vector<std::pair<const char*, const char*>>& layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> kAll = {
      {"delaunay.triangulate_ms", "ms"},
      {"delaunay.edges", "count"},
      {"mst.kruskal_ms", "ms"},
      {"mst.degree5_ms", "ms"},
      {"core.orient_ms", "ms"},
      {"antenna.digraph_ms", "ms"},
      {"antenna.edges", "count"},
      {"graph.scc_ms", "ms"},
      {"plan.trace_coverage", "ratio"},
      {"plan.trace_overhead", "ratio"},
      {"churn.step_localized_ms", "ms"},
      {"churn.step_other_ms", "ms"},
      {"churn.localized_rate", "ratio"},
      {"churn.cert_reuse_rate", "ratio"},
      {"churn.patch_rate", "ratio"},
      {"churn.escalation_rate", "ratio"},
      {"churn.mst_region_mean", "nodes"},
      {"churn.orient_planned_mean", "nodes"},
      {"churn.fallback.mst-unseeded", "count"},
      {"churn.fallback.mst-region", "count"},
      {"churn.fallback.mst-candidates", "count"},
      {"churn.fallback.mst-walk-budget", "count"},
      {"churn.fallback.mst-disconnected", "count"},
      {"churn.fallback.mst-count", "count"},
      {"churn.fallback.mst-degree", "count"},
      {"churn.init_ms", "ms"},
      {"churn.recert_ms", "ms"},
      {"churn.escalations", "count"},
      {"traffic.loop_ms", "ms"},
      {"traffic.loop_events_per_s", "1/s"},
      {"traffic.events", "count"},
      {"traffic.retransmissions", "count"},
      {"traffic.duplicates", "count"},
      {"traffic.delivery_ratio", "ratio"},
      {"event_queue.cascaded", "count"},
      {"event_queue.parked", "count"},
  };
  return kAll;
}

/// Orders a traced run's metrics as layer_metrics() lists them, zero-filling
/// the layers this workload does not call.
void finish_layers(Run& run, const std::map<std::string, double>& got) {
  for (const auto& [name, unit] : layer_metrics()) {
    const auto it = got.find(name);
    run.metric(name, it == got.end() ? 0.0 : it->second, unit);
  }
}

std::vector<geom::Point> make_points(int n, std::uint64_t seed) {
  geom::Rng rng(seed);
  return geom::make_instance(geom::Distribution::kUniformSquare, n, rng);
}

// ============================================================ plan_200k
//
// Op: PlanSession::orient + PlanSession::certify on one warm serial
// session — points -> triangulation -> Kruskal -> degree-5 repair ->
// Table 1 orientation -> digraph -> SCC certificate.

struct PlanState {
  std::vector<geom::Point> pts;
  core::PlanSession session;
  std::uint64_t ref_digest = 0;  ///< the cold op's certificate
};

std::unique_ptr<PlanState> plan_setup(int n, std::uint64_t seed) {
  auto st = std::make_unique<PlanState>();
  st->pts = make_points(n, seed);
  st->session.orient(st->pts, kSpec);  // untimed cold op
  st->ref_digest = certificate_digest(st->session.certify(st->pts, kSpec));
  return st;
}

bool plan_gate(const core::Certificate& c, std::uint64_t ref_digest) {
  return c.ok() && certificate_digest(c) == ref_digest;
}

double plan_op(PlanState& st, bool& ok) {
  const auto t0 = Clock::now();
  st.session.orient(st.pts, kSpec);
  const core::Certificate& c = st.session.certify(st.pts, kSpec);
  const auto t1 = Clock::now();
  ok = plan_gate(c, st.ref_digest);
  return ms_between(t0, t1);
}

/// Working memory of the traced pipeline: the same buffers the session
/// owns internally, held here so each layer call is timed on warm memory.
struct PlanTraceScratch {
  delaunay::Triangulator triangulator;
  delaunay::Triangulation dt;
  mst::Tree tree;
  mst::KruskalScratch kruskal;
  mst::DegreeRepairScratch repair;
  antenna::TransmissionScratch transmission;
  graph::SccScratch scc;
};

struct PlanLayers {
  double triangulate, kruskal, degree5, orient, digraph, scc, total;
  long long dt_edges, dg_edges;
};

/// The untraced op's pipeline re-assembled from the layers' public calls,
/// each timed.  Returns false if the certificate differs from the
/// untraced op's.
bool plan_traced_op(PlanState& st, PlanTraceScratch& x, PlanLayers& L) {
  const auto& pts = st.pts;
  const auto t0 = Clock::now();
  x.triangulator.triangulate(pts, x.dt);
  const auto t1 = Clock::now();
  mst::kruskal_emst(pts, x.dt.edges, x.tree, x.kruskal);
  const auto t2 = Clock::now();
  mst::enforce_max_degree(pts, x.tree, 5, x.repair);
  const auto t3 = Clock::now();
  const core::Result& r = st.session.orient_on_tree(pts, x.tree, kSpec);
  const auto t4 = Clock::now();
  graph::Digraph g = antenna::induced_digraph_fast(
      pts, r.orientation, kAngleTol, kRadiusAbsTol, x.transmission);
  const auto t5 = Clock::now();
  const int sccs = graph::scc_count(g, x.scc);
  const auto t6 = Clock::now();
  const core::Certificate c = core::make_certificate(r, kSpec, sccs);
  L.dg_edges = g.edge_count();
  std::move(g).release(x.transmission.offsets, x.transmission.targets);
  const auto t7 = Clock::now();
  L.triangulate = ms_between(t0, t1);
  L.kruskal = ms_between(t1, t2);
  L.degree5 = ms_between(t2, t3);
  L.orient = ms_between(t3, t4);
  L.digraph = ms_between(t4, t5);
  L.scc = ms_between(t5, t6);
  L.total = ms_between(t0, t7);
  L.dt_edges = static_cast<long long>(x.dt.edges.size());
  return plan_gate(c, st.ref_digest);
}

void plan_workload(const Args& a, Run& run) {
  const int n = a.smoke ? 3000 : 200000;
  run.note(fmt("n=%d k=2 phi=pi uniform-square", n));
  std::unique_ptr<PlanState> st;
  const double setup_s =
      timed_setups(st, [&] { return plan_setup(n, a.seed); });
  run.digest = st->ref_digest;
  if (!a.trace) {
    Sampler s;
    s.loop(a.seconds, 3, [&](bool& ok) { return plan_op(*st, ok); });
    end_to_end(run, setup_s, s, false);
    return;
  }
  // Traced: alternate untraced and traced ops on the same warm session, so
  // the overhead ratio compares like with like.
  PlanTraceScratch x;
  PlanLayers warm{};
  const bool warm_ok = plan_traced_op(*st, x, warm);  // warms the scratch
  std::vector<double> untraced, tri, kru, deg, ori, dig, scc;
  Sampler traced;
  traced.loop(a.seconds, 3, [&](bool& ok) {
    bool plain_ok = true;
    untraced.push_back(plan_op(*st, plain_ok));
    PlanLayers L{};
    ok = plan_traced_op(*st, x, L) && plain_ok;
    tri.push_back(L.triangulate);
    kru.push_back(L.kruskal);
    deg.push_back(L.degree5);
    ori.push_back(L.orient);
    dig.push_back(L.digraph);
    scc.push_back(L.scc);
    warm = L;
    return L.total;
  });
  run.attempted = 2 * static_cast<long long>(traced.lat_ms.size()) + 1;
  run.failed = traced.failed + (warm_ok ? 0 : 1);
  const double traced_p50 = median(traced.lat_ms);
  const double layer_sum = median(tri) + median(kru) + median(deg) +
                           median(ori) + median(dig) + median(scc);
  std::map<std::string, double> m = {
      {"delaunay.triangulate_ms", median(tri)},
      {"delaunay.edges", static_cast<double>(warm.dt_edges)},
      {"mst.kruskal_ms", median(kru)},
      {"mst.degree5_ms", median(deg)},
      {"core.orient_ms", median(ori)},
      {"antenna.digraph_ms", median(dig)},
      {"antenna.edges", static_cast<double>(warm.dg_edges)},
      {"graph.scc_ms", median(scc)},
      {"plan.trace_coverage", layer_sum / traced_p50},
      {"plan.trace_overhead", traced_p50 / median(untraced)},
  };
  run.note(fmt("traced ops=%zu traced_p50_ms=%.4f untraced_p50_ms=%.4f",
               traced.lat_ms.size(), traced_p50, median(untraced)));
  finish_layers(run, m);
}

// ====================================================== churn_small_50k
//
// Op: one ChurnEngine::step of a fail-only poisson batch (~6 fails).  The
// batch sequence is replayed in cycles of `cycle_len` steps, re-initialising
// the engine between cycles, so at least 90% of nodes stay alive and cycle
// c's step i equals cycle 1's step i (checked through the per-step digest).
// A cycle's first step (the cold, "mst-unseeded" one) and the re-init are
// untimed.

struct ChurnState {
  std::vector<geom::Point> pts;
  sim::ChurnEngine eng;
  std::vector<sim::ChurnEvent> events;
  std::vector<std::uint64_t> cycle_digests;  ///< step i of cycle 1
  int step_in_cycle = 0;                     ///< steps done this cycle
  std::uint64_t sched_seed = 0;
  double fail_rate = 0.0;
  int cycle = 0;
  bool cold_ok = true;  ///< the set-up's untimed first step passed its gate
};

struct ChurnStep {
  double ms = 0.0;
  bool ok = true;
  bool first_cycle = false;
  const sim::StepReport* rep = nullptr;
};

/// Re-init the engine for a new cycle (its buffers stay warm).
void churn_restart(ChurnState& st) {
  st.eng.init(st.pts, kSpec);
  st.step_in_cycle = 0;
}

ChurnStep churn_step(ChurnState& st) {
  ChurnStep r;
  st.events.clear();
  st.eng.poisson_schedule(st.sched_seed, st.step_in_cycle + 1, st.fail_rate,
                           0.0, 0.0, 0.0, st.events);
  const auto t0 = Clock::now();
  const sim::StepReport& rep = st.eng.step(st.events);
  r.ms = ms_between(t0, Clock::now());
  r.rep = &rep;
  const std::uint64_t d = step_digest(rep);
  const auto i = static_cast<size_t>(st.step_in_cycle);
  if (i == st.cycle_digests.size()) {
    st.cycle_digests.push_back(d);
    r.first_cycle = true;
  } else if (st.cycle_digests[i] != d) {
    r.ok = false;
  }
  r.ok = r.ok && rep.certificate.ok() &&
         rep.alive * 10 >= static_cast<int>(st.pts.size()) * 9;
  ++st.step_in_cycle;
  return r;
}

/// Next timed step, restarting the cycle (untimed) when it is used up.
ChurnStep churn_op(ChurnState& st, int cycle_len) {
  if (st.step_in_cycle == cycle_len) {
    churn_restart(st);
    ++st.cycle;
  }
  if (st.step_in_cycle == 0) {
    const ChurnStep cold = churn_step(st);  // untimed cycle warm-up
    if (!cold.ok) return cold;
  }
  return churn_step(st);
}

void churn_workload(const Args& a, Run& run) {
  const int n = a.smoke ? 2000 : 50000;
  const int cycle_len = a.smoke ? 16 : 400;
  run.note(fmt("n=%d fail_rate=6/n cycle=%d steps", n, cycle_len));
  std::unique_ptr<ChurnState> st;
  const double setup_s = timed_setups(st, [&] {
    auto fresh = std::make_unique<ChurnState>();
    fresh->pts = make_points(n, a.seed);
    fresh->sched_seed = a.seed * 0x9e3779b97f4a7c15ull + 4242;
    fresh->fail_rate = 6.0 / n;
    churn_restart(*fresh);
    fresh->cold_ok = churn_step(*fresh).ok;
    return fresh;
  });
  Sampler s;
  s.failed = st->cold_ok ? 0 : 1;
  // Counters over cycle 1's timed steps: a fixed, deterministic step set.
  long long steps = 0, localized = 0, reused = 0, patched = 0, escalated = 0;
  double region = 0.0, planned = 0.0;
  std::map<std::string, double> fallbacks;
  std::vector<double> loc_ms, other_ms;
  const int digest_steps = std::min(cycle_len, 64);
  s.loop(a.seconds, a.trace ? cycle_len - 1 : digest_steps - 1,
         [&](bool& ok) {
           const ChurnStep r = churn_op(*st, cycle_len);
           ok = r.ok;
           if (a.trace) {
             (r.rep->localized_mst ? loc_ms : other_ms).push_back(r.ms);
             if (r.first_cycle) {
               ++steps;
               localized += r.rep->localized_mst;
               reused += r.rep->cert_reused;
               patched += r.rep->incremental_digraph;
               escalated += r.rep->escalation != nullptr;
               region += r.rep->mst_region;
               planned += r.rep->orient_planned;
               if (r.rep->mst_fallback != nullptr) {
                 fallbacks[std::string("churn.fallback.") +
                           r.rep->mst_fallback] += 1.0;
               }
             }
           }
           return r.ms;
         });
  // Every run sees at least the first `digest_steps` steps (min_ops), so
  // the digest is a function of the seed alone.
  Digest d;
  for (int i = 0; i < digest_steps; ++i) d.add(st->cycle_digests[i]);
  run.digest = d.h;
  run.note(fmt("cycles=%d", st->cycle + 1));
  if (!a.trace) {
    end_to_end(run, setup_s, s, true);
    return;
  }
  run.attempted = static_cast<long long>(s.lat_ms.size());
  run.failed = s.failed;
  const double k = static_cast<double>(std::max(1LL, steps));
  std::map<std::string, double> m = {
      {"churn.step_localized_ms", median(loc_ms)},
      {"churn.step_other_ms", median(other_ms)},
      {"churn.localized_rate", localized / k},
      {"churn.cert_reuse_rate", reused / k},
      {"churn.patch_rate", patched / k},
      {"churn.escalation_rate", escalated / k},
      {"churn.mst_region_mean", region / k},
      {"churn.orient_planned_mean", planned / k},
  };
  m.insert(fallbacks.begin(), fallbacks.end());
  run.note(fmt("traced steps: localized=%zu other=%zu (cycle-1 counters over "
               "%lld steps)",
               loc_ms.size(), other_ms.size(), steps));
  finish_layers(run, m);
}

// ==================================================== traffic_churn_10k
//
// Op: re-init the ChurnEngine over the instance and run the fixed traffic
// schedule (64 flows x 150 packets, collection-tree routing, 20% Bernoulli
// loss, ARQ with 6 retries, 4 timed poisson churn batches) on one reused,
// warm TrafficEngine attached to it.

struct TrafficState {
  std::vector<geom::Point> pts;
  sim::TrafficSchedule sched;
  sim::TrafficOptions opts;
  sim::TrafficEngine traffic;
  sim::ChurnEngine churn;
  sim::ChurnEngine twin;  ///< traced runs replay the churn batches on it
  std::uint64_t ref_digest = 0;
};

bool traffic_gate(const sim::TrafficReport& r) {
  return r.offered == r.delivered + drop_total(r) &&
         r.delivery_ratio >= 0.95;
}

std::unique_ptr<TrafficState> traffic_setup(int n, bool smoke,
                                            std::uint64_t seed) {
  auto st = std::make_unique<TrafficState>();
  st->pts = make_points(n, seed);
  const int flows = smoke ? 8 : 64;
  const int packets = smoke ? 10 : 150;
  // Aggregate inject rate flows/interval stays below the collection
  // trunk's service rate (1/service_ticks) with room for ARQ copies, so
  // the run measures protocol work rather than congestion collapse.
  const std::uint64_t interval = smoke ? 120 : 1600;
  const std::uint64_t horizon =
      static_cast<std::uint64_t>(7 * (flows - 1)) +
      static_cast<std::uint64_t>(packets) * interval;
  // Batch b is drawn against the state batches 1..b-1 leave behind (they
  // are applied to the engine here), so its recoveries name nodes that are
  // really dead and none of its events names a node already gone.
  std::vector<char> churned(static_cast<size_t>(n), 0);
  st->churn.init(st->pts, kSpec);
  constexpr int kBatches = 4;
  for (int b = 0; b < kBatches; ++b) {
    sim::TimedChurnBatch batch;
    batch.tick = horizon * (b + 1) / (kBatches + 1);
    st->churn.poisson_schedule(seed ^ 909, b + 1, /*fail_rate=*/0.01,
                               /*recover_rate=*/0.3, /*move_rate=*/0.01,
                               /*move_radius=*/0.02, batch.events);
    for (const auto& e : batch.events) churned[e.node] = 1;
    st->churn.step(batch.events);
    st->sched.churn.push_back(std::move(batch));
  }
  // Flow endpoints are nodes no batch touches (sinks and sources are the
  // stable part of a deployment): a churned endpoint strands its whole
  // flow, which would make delivery measure the schedule, not transport.
  const auto stable = [&](int u) {
    while (churned[u]) u = (u + 1) % n;
    return u;
  };
  for (int i = 0; i < flows; ++i) {
    sim::Flow f;
    f.src = stable((i * 37 + 1) % n);
    f.dst = stable((i * 53 + n / 2) % n);
    if (f.dst == f.src) f.dst = stable((f.dst + 1) % n);
    f.packets = packets;
    f.start = static_cast<std::uint64_t>(7 * i);
    f.interval = interval;
    st->sched.flows.push_back(f);
  }
  st->opts.policy = sim::RoutingPolicy::kCollectionTree;
  st->opts.loss = {sim::LossKind::kBernoulli, 0.2, 0, 0, 0};
  st->opts.arq.max_retries = 6;
  st->opts.ttl = 2048;  // long tree paths at n=10k; TTL only guards loops
  st->opts.queue_capacity = 32;
  st->opts.seed = seed + 5;
  return st;
}

/// One op: ChurnEngine re-init + run.  `init_ms`/`run_ms` split it.
const sim::TrafficReport& traffic_run(TrafficState& st, double& init_ms,
                                      double& run_ms) {
  const auto t0 = Clock::now();
  st.churn.init(st.pts, kSpec);
  st.traffic.attach_churn(st.churn);
  const auto t1 = Clock::now();
  const sim::TrafficReport& r = st.traffic.run(st.sched, st.opts);
  const auto t2 = Clock::now();
  init_ms = ms_between(t0, t1);
  run_ms = ms_between(t1, t2);
  return r;
}

void traffic_workload(const Args& a, Run& run) {
  const int n = a.smoke ? 1000 : 10000;
  run.note(fmt("n=%d flows=%d packets=%d loss=0.2 arq=6 churn_batches=4", n,
               a.smoke ? 8 : 64, a.smoke ? 10 : 150));
  std::unique_ptr<TrafficState> st;
  const double setup_s = timed_setups(st, [&] {
    auto fresh = traffic_setup(n, a.smoke, a.seed);
    double i = 0, r = 0;
    // A cold op that fails its gate fails every op: they repeat its report.
    const sim::TrafficReport& rep = traffic_run(*fresh, i, r);
    fresh->ref_digest = traffic_digest(rep);
    return fresh;
  });
  run.digest = st->ref_digest;
  const auto op = [&](bool& ok, double& init_ms, double& run_ms) {
    const sim::TrafficReport& rep = traffic_run(*st, init_ms, run_ms);
    ok = traffic_gate(rep) && traffic_digest(rep) == st->ref_digest;
    return init_ms + run_ms;
  };
  Sampler s;
  if (!a.trace) {
    s.loop(a.seconds, 3, [&](bool& ok) {
      double i = 0, r = 0;
      return op(ok, i, r);
    });
    end_to_end(run, setup_s, s, false);
    const sim::TrafficReport& rep = st->traffic.last_report();
    run.note(fmt("delivery_ratio=%.4f offered=%lld delivered=%lld "
                 "drops: queue=%lld ttl=%lld retry=%lld no_route=%lld "
                 "churn=%lld stranded=%lld",
                 rep.delivery_ratio, rep.offered, rep.delivered,
                 rep.drop_queue, rep.drop_ttl, rep.drop_retry,
                 rep.drop_no_route, rep.drop_churn, rep.drop_stranded));
    return;
  }
  // Traced: after each op, replay the same 4 batches on a twin engine
  // (batteries are off, so churn state depends only on the batch events)
  // to split the run into recertification and event-loop time.
  std::vector<double> init_ms, recert_ms, loop_ms, loop_eps;
  int escalations = 0;
  s.loop(a.seconds, 3, [&](bool& ok) {
    double i = 0, r = 0;
    const double ms = op(ok, i, r);
    sim::ChurnEngine& twin = st->twin;
    twin.init(st->pts, kSpec);
    double recert = 0.0;
    escalations = 0;
    for (const auto& b : st->sched.churn) {
      const auto t0 = Clock::now();
      const sim::StepReport& rep = twin.step(b.events);
      recert += ms_between(t0, Clock::now());
      escalations += rep.escalation != nullptr;
    }
    ok = ok && certificate_digest(twin.last_report().certificate) ==
                   certificate_digest(st->churn.last_report().certificate);
    init_ms.push_back(i);
    recert_ms.push_back(recert);
    loop_ms.push_back(r - recert);
    loop_eps.push_back(
        static_cast<double>(st->traffic.last_report().events) /
        ((r - recert) / 1000.0));
    return ms;
  });
  run.attempted = static_cast<long long>(s.lat_ms.size());
  run.failed = s.failed;
  const sim::TrafficReport& rep = st->traffic.last_report();
  const sim::EventQueue& q = st->traffic.event_queue();
  std::map<std::string, double> m = {
      {"churn.init_ms", median(init_ms)},
      {"churn.recert_ms", median(recert_ms)},
      {"churn.escalations", static_cast<double>(escalations)},
      {"traffic.loop_ms", median(loop_ms)},
      {"traffic.loop_events_per_s", median(loop_eps)},
      {"traffic.events", static_cast<double>(rep.events)},
      {"traffic.retransmissions", static_cast<double>(rep.retransmissions)},
      {"traffic.duplicates", static_cast<double>(rep.duplicates)},
      {"traffic.delivery_ratio", rep.delivery_ratio},
      {"event_queue.cascaded", static_cast<double>(q.cascaded())},
      {"event_queue.parked", static_cast<double>(q.parked())},
  };
  run.note(fmt("traced ops=%zu op_p50_ms=%.4f", s.lat_ms.size(),
               median(s.lat_ms)));
  finish_layers(run, m);
}

// ================================================================ main

bool parse(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a.trace = v[0] == '1';
    } else {
      return false;
    }
  }
  return have_workload;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--smoke]\n");
    return 2;
  }
  const std::map<std::string, std::function<void(const Args&, Run&)>>
      workloads = {
          {"plan_200k", plan_workload},
          {"churn_small_50k", churn_workload},
          {"traffic_churn_10k", traffic_workload},
      };
  const auto it = workloads.find(a.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 a.workload.c_str());
    return 2;
  }

  // Host diagnostics, probed before and after the workload: printed (and
  // reported by traced runs) but never folded into an end-to-end metric.
  std::vector<double> chase, spin;
  const auto probe_host = [&] {
    for (int i = 0; i < 3; ++i) {
      chase.push_back(host_chase_ns());
      spin.push_back(host_spin_ms());
    }
  };
  probe_host();
  Run run;
  try {
    it->second(a, run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", a.workload.c_str(),
                 e.what());
    return 1;
  }
  probe_host();
  const double chase_ns = median(chase), spin_ms = median(spin);
  if (a.trace) {
    run.metric("host.chase_ns", chase_ns, "ns");
    run.metric("host.spin_ms", spin_ms, "ms");
  }

  std::printf("perfbench workload=%s seed=%" PRIu64 " trace=%d smoke=%d "
              "threads=1\n",
              a.workload.c_str(), a.seed, a.trace ? 1 : 0, a.smoke ? 1 : 0);
  std::printf(
      "host.chase_ns=%.4f host.spin_ms=%.4f (median of 6; start %.2f/%.2f, "
      "end %.2f/%.2f)\n",
      chase_ns, spin_ms, median({chase.begin(), chase.begin() + 3}),
      median({spin.begin(), spin.begin() + 3}),
      median({chase.begin() + 3, chase.end()}),
      median({spin.begin() + 3, spin.end()}));
  for (const auto& s : run.notes) std::printf("%s\n", s.c_str());
  std::printf("digest=%016" PRIx64 "\n", run.digest);

  std::string json = "{\"correct\": ";
  json += run.failed == 0 ? "true" : "false";
  json += fmt(", \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              run.attempted, run.failed);
  for (size_t i = 0; i < run.metrics.size(); ++i) {
    const auto& m = run.metrics[i];
    json += fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
