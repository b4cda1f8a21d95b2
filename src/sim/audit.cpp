#include "sim/audit.hpp"

#include <algorithm>
#include <atomic>
#include <random>

#include "common/assert.hpp"
#include "common/constants.hpp"
#include "parallel/thread_pool.hpp"

namespace dirant::sim {

namespace {

/// Seed for trial `t`'s independent RNG stream: splitmix64 over the user
/// seed and the trial index.  A pure function of (seed, t) — the
/// per-trial-RNG determinism contract (docs/architecture.md) rests on it.
std::uint64_t trial_seed(std::uint64_t seed, int t) {
  std::uint64_t z =
      seed + 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(t) + 1);
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ull;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z;
}

}  // namespace

AuditSession::AuditSession() : audit_workers_(1) {}
AuditSession::~AuditSession() = default;

void AuditSession::bind(const graph::Digraph& g) {
  bound_ = &g;
  transpose_valid_ = false;
}

const graph::Digraph& AuditSession::load(std::span<const geom::Point> pts,
                                         const antenna::Orientation& o) {
  // Hand the previous build's CSR buffers back before rebuilding, so the
  // steady state cycles one pair of arrays instead of allocating.
  std::move(own_).release(tx_.offsets, tx_.targets);
  own_ = antenna::induced_digraph_fast(pts, o, kAngleTol, kRadiusAbsTol, tx_,
                                       threads_, pool_.get());
  bind(own_);
  return own_;
}

const graph::Digraph& AuditSession::load_omni(std::span<const geom::Point> pts,
                                              double radius) {
  // Rebuilt in place: a session currently bound to the omni digraph must
  // not keep the previous build's transpose (load() is covered by its
  // unconditional bind()).
  if (bound_ == &omni_) transpose_valid_ = false;
  std::move(omni_).release(omni_tx_.offsets, omni_tx_.targets);
  omni_ = antenna::unit_disk_digraph(pts, radius, omni_tx_);
  return omni_;
}

const graph::Digraph& AuditSession::digraph() const {
  DIRANT_ASSERT_MSG(bound_ != nullptr,
                    "AuditSession: no digraph bound (call bind or load)");
  return *bound_;
}

const graph::Digraph& AuditSession::transpose() {
  const auto& g = digraph();
  if (!transpose_valid_) {
    g.reversed_into(transpose_);
    transpose_valid_ = true;
  }
  return transpose_;
}

bool AuditSession::strongly_connected() {
  const auto& g = digraph();
  if (g.size() <= 1) return true;
  return graph::is_strongly_connected(g, transpose(),
                                     audit_workers_[0].reach);
}

int AuditSession::scc_count() {
  return graph::scc_count(digraph(), audit_workers_[0].scc);
}

BroadcastResult AuditSession::flood(int source) {
  const auto& g = digraph();
  BroadcastResult r;
  const int n = g.size();
  if (n == 0) return r;
  DIRANT_ASSERT(source >= 0 && source < n);
  graph::bfs_distances(g, source, dist_, bfs_);
  long long total_hops = 0;
  for (int v = 0; v < n; ++v) {
    if (dist_[v] < 0) continue;
    ++r.reached;
    r.rounds = std::max(r.rounds, dist_[v]);
    total_hops += dist_[v];
    // A node forwards iff it has somebody to forward to; sinks only listen.
    if (g.out_degree(v) > 0) ++r.transmissions;
  }
  r.delivery_ratio = static_cast<double>(r.reached) / n;
  r.mean_hops = r.reached > 1
                    ? static_cast<double>(total_hops) / (r.reached - 1)
                    : 0.0;
  return r;
}

StretchResult AuditSession::hop_stretch(const graph::Digraph& omni,
                                        int sample_sources) {
  const auto& g = digraph();
  StretchResult res;
  const int n = g.size();
  DIRANT_ASSERT(omni.size() == n);
  if (n <= 1) return res;
  const int step = std::max(1, n / std::max(1, sample_sources));
  double total = 0.0;
  for (int s = 0; s < n; s += step) {
    graph::bfs_distances(g, s, dist_, bfs_);
    graph::bfs_distances(omni, s, dist_omni_, bfs_);
    for (int v = 0; v < n; ++v) {
      if (v == s || dist_omni_[v] <= 0 || dist_[v] < 0) continue;
      const double stretch = static_cast<double>(dist_[v]) / dist_omni_[v];
      total += stretch;
      res.max_stretch = std::max(res.max_stretch, stretch);
      ++res.sampled_pairs;
    }
  }
  res.mean_stretch = res.sampled_pairs > 0 ? total / res.sampled_pairs : 0.0;
  return res;
}

int AuditSession::strong_connectivity_level(int max_level) {
  const auto& g = digraph();
  const int n = g.size();
  const int cap = std::max(max_level, 0);
  if (n <= 1) return cap;
  if (cap == 0) return 0;
  // Every deletion probe shares the session-cached transpose: one
  // O(n + m) transpose per bind, zero allocations per probe.
  const auto& gt = transpose();
  auto& w0 = audit_workers_[0];
  if (!graph::is_strongly_connected(g, gt, w0.reach)) return 0;
  if (cap == 1) return 1;
  // Single-deletion probes in contiguous chunks, one per session thread,
  // claimed off the pool through the allocation-free run_job fan-out (run
  // inline when there is no pool).  Each chunk owns its ReachScratch and
  // deletion mask; the cached transpose is shared read-only.  The level
  // is the AND of all probe outcomes — a set property — so chunking and
  // scheduling cannot change it; the `failed` flag only lets chunks stop
  // early once the answer is known.
  const int chunks = threads_;
  std::atomic<int> failed{0};
  par::run_indexed(pool_.get(), chunks, [&](int ci) {
    auto& w = audit_workers_[ci];
    w.removed.assign(n, 0);
    // Size the BFS scratch up front: the `failed` check below is
    // timing-dependent, so a chunk may run zero probes on one sweep and
    // some on the next — a probe must never be what first grows these
    // buffers or warm sweeps stop being allocation-free.
    w.reach.seen.reserve(n);
    w.reach.stack.reserve(n);
    const int lo = static_cast<int>(static_cast<long long>(n) * ci / chunks);
    const int hi =
        static_cast<int>(static_cast<long long>(n) * (ci + 1) / chunks);
    for (int v = lo; v < hi; ++v) {
      if (failed.load(std::memory_order_relaxed)) return;
      w.removed[v] = 1;
      const bool ok =
          graph::is_strongly_connected(g, gt, w.reach, w.removed.data());
      w.removed[v] = 0;
      if (!ok) {
        failed.store(1, std::memory_order_relaxed);
        return;
      }
    }
  });
  if (failed.load(std::memory_order_relaxed)) return 1;
  if (cap == 2 || n > 80) return 2;  // exhaustive pairs only when affordable
  // Chunk 0's mask is all zero again: every probe restores its vertex.
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      w0.removed[a] = w0.removed[b] = 1;
      const bool ok =
          graph::is_strongly_connected(g, gt, w0.reach, w0.removed.data());
      w0.removed[a] = w0.removed[b] = 0;
      if (!ok) return 2;
    }
  }
  return 3;
}

namespace {

/// One failure trial: draw deletions from the trial's own RNG stream and
/// return the largest surviving SCC as a fraction of the survivors — one
/// masked Tarjan pass over `g` itself (the deleted vertices left out), no
/// survivor copy.  Depends only on (g, fraction, seed, t) and the
/// caller-owned buffers — never on which worker runs it — which is what
/// makes the trial sweep bit-identical at every thread count.  Each trial
/// runs serial Tarjan: trials are the parallel axis, and the SCC partition
/// is a graph property either way.
double failure_trial(const graph::Digraph& g, double fraction,
                     std::uint64_t seed, int t, std::vector<char>& present,
                     std::vector<char>& isolated, std::vector<int>& sizes,
                     graph::SccScratch& scc, graph::SccResult& scc_result) {
  const int n = g.size();
  std::mt19937_64 rng(trial_seed(seed, t));
  present.assign(n, 1);
  isolated.assign(n, 0);
  int alive = n;
  for (int v = 0; v < n; ++v) {
    if ((rng() % 1000000) / 1e6 < fraction && alive > 1) {
      present[v] = 0;
      --alive;
    }
  }
  const int best =
      graph::largest_scc(g, present, isolated, scc, scc_result, sizes);
  return best < 0 ? 0.0 : static_cast<double>(sizes[best]) / alive;
}

}  // namespace

FailureStats AuditSession::failure_resilience(double fraction, int trials,
                                              std::uint64_t seed) {
  // Degenerate fractions clamp to the unit interval: fraction <= 0 deletes
  // nothing, fraction >= 1 deletes every node the alive > 1 guard allows.
  // The per-trial draw is (rng() % 1e6) / 1e6 in [0, 1), so the clamped
  // endpoints consume the same RNG stream as any out-of-range input — the
  // clamp pins the documented semantics without changing any in-range
  // result (tests/test_audit_parallel.cpp, DegenerateFractions).
  fraction = std::clamp(fraction, 0.0, 1.0);
  const auto& g = digraph();
  FailureStats st;
  const int n = g.size();
  if (n == 0 || trials <= 0) return st;
  trial_frac_.resize(static_cast<size_t>(trials));
  // Contiguous trial chunks, one per session thread (inline when there is
  // no pool), each chunk on its own AuditWorker buffers.  Per-trial
  // fractions land in trial_frac_[t] and the reduction below runs in trial
  // order, so the float accumulation (and hence the report) is the same
  // bit for bit at every thread count.
  const int chunks = threads_;
  par::run_indexed(pool_.get(), chunks, [&](int ci) {
    auto& w = audit_workers_[ci];
    const int t_lo =
        static_cast<int>(static_cast<long long>(trials) * ci / chunks);
    const int t_hi =
        static_cast<int>(static_cast<long long>(trials) * (ci + 1) / chunks);
    for (int t = t_lo; t < t_hi; ++t) {
      trial_frac_[t] = failure_trial(g, fraction, seed, t, w.present,
                                     w.isolated, w.sizes, w.scc, w.scc_result);
    }
  });
  for (int t = 0; t < trials; ++t) {
    st.mean_largest_scc += trial_frac_[t];
    st.worst_largest_scc = std::min(st.worst_largest_scc, trial_frac_[t]);
  }
  st.trials = trials;
  st.mean_largest_scc /= st.trials;
  return st;
}

RoutingStats AuditSession::routing_stats(std::span<const geom::Point> pts,
                                         int samples, std::uint64_t seed) {
  const auto& g = digraph();
  RoutingStats st;
  const int n = g.size();
  DIRANT_ASSERT(static_cast<int>(pts.size()) == n);
  if (n < 2) return st;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> pick(0, n - 1);
  long long hops = 0;
  double stretch = 0.0;
  int delivered = 0, stretch_count = 0;
  for (int i = 0; i < samples; ++i) {
    int s = pick(rng), t = pick(rng);
    while (t == s) t = pick(rng);
    const auto r = greedy_route(g, pts, s, t);
    ++st.attempted;
    if (!r.delivered) continue;
    ++delivered;
    hops += r.hops;
    graph::bfs_distances(g, s, dist_, bfs_);
    if (dist_[t] > 0) {
      stretch += static_cast<double>(r.hops) / dist_[t];
      ++stretch_count;
    }
  }
  st.delivery_rate =
      st.attempted > 0 ? static_cast<double>(delivered) / st.attempted : 0.0;
  st.mean_hops = delivered > 0 ? static_cast<double>(hops) / delivered : 0.0;
  st.mean_stretch = stretch_count > 0 ? stretch / stretch_count : 0.0;
  return st;
}

FullReport AuditSession::full_report(std::span<const geom::Point> pts,
                                     const antenna::Orientation& o,
                                     const AuditOptions& opts) {
  FullReport rep;
  const auto& g = load(pts, o);
  const auto& omni = load_omni(pts, o.max_radius());
  const int n = g.size();

  rep.scc_count = scc_count();
  rep.strongly_connected = rep.scc_count <= 1;

  if (n > 0) {
    const int step = std::max(1, n / std::max(1, opts.flood_sources));
    for (int s = 0; s < n; s += step) {
      const auto b = flood(s);
      ++rep.flood.sources;
      rep.flood.mean_rounds += b.rounds;
      rep.flood.mean_hops += b.mean_hops;
      rep.flood.mean_transmissions += static_cast<double>(b.transmissions);
      rep.flood.min_delivery =
          std::min(rep.flood.min_delivery, b.delivery_ratio);
    }
    rep.flood.mean_rounds /= rep.flood.sources;
    rep.flood.mean_hops /= rep.flood.sources;
    rep.flood.mean_transmissions /= rep.flood.sources;
  }

  rep.stretch = hop_stretch(omni, opts.stretch_sources);
  rep.connectivity_level =
      strong_connectivity_level(opts.max_connectivity_level);
  rep.failure = failure_resilience(opts.failure_fraction, opts.failure_trials,
                                   opts.seed);
  rep.routing = routing_stats(pts, opts.routing_samples, opts.seed + 1);
  rep.energy = energy_report(o, opts.energy);
  return rep;
}

void AuditSession::set_threads(int threads) {
  threads_ = par::ensure_pool(pool_, threads);
  if (static_cast<int>(audit_workers_.size()) < threads_) {
    audit_workers_.resize(threads_);
  }
}

}  // namespace dirant::sim
