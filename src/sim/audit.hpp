#pragma once
/// \file audit.hpp
/// AuditSession — the network-analysis API.  One session owns the
/// transmission digraph, its cached transpose, and every piece of metric
/// working memory (BFS distance buffers, the per-chunk reachability, Tarjan
/// and survivor-subgraph scratch), so a warm session streams the whole
/// metric set — flooding, hop stretch, k-level strong connectivity,
/// failure resilience, routing stats, energy — off ONE digraph build and
/// ONE transpose with zero steady-state heap allocations (enforced by
/// tests/test_session_alloc.cpp, SecondAuditIsAllocationFree).  This
/// extends to the analysis stack the discipline core::PlanSession
/// established for planning: the Monte-Carlo connectivity audits the
/// related work treats as the primary experiment (Damian–Flatland 2010,
/// Georgiou–Nguyen 2015) rebuild nothing per trial.
///
/// Lifecycle / reuse contract (mirrors core::PlanSession):
///   * Construct once per worker, not per call; the first audit sizes every
///     buffer, subsequent same-size audits are allocation-free at every
///     thread count — pooled fan-outs go through ThreadPool::run_job (a
///     fixed slot, no task closures) and the per-chunk AuditWorker scratch
///     is session-owned and recycled.
///   * `bind(g)` points the session at a caller-owned digraph (non-owning;
///     the caller keeps `g` alive and unchanged while bound).  `load(...)`
///     builds the induced transmission digraph into session storage and
///     binds it; `load_omni(...)` builds the omnidirectional reference.
///     Either invalidates the cached transpose, which rebuilds lazily.
///   * Sessions are NOT thread-safe; share nothing, or one per thread.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "antenna/orientation.hpp"
#include "antenna/transmission.hpp"
#include "graph/digraph.hpp"
#include "graph/scc.hpp"
#include "graph/traversal.hpp"
#include "sim/energy.hpp"
#include "sim/routing.hpp"

namespace dirant::par {
class ThreadPool;
}

namespace dirant::sim {

/// Knobs for `AuditSession::full_report`.
struct AuditOptions {
  int flood_sources = 4;        ///< evenly spaced flood sample sources
  int stretch_sources = 8;      ///< hop-stretch sample sources
  int max_connectivity_level = 2;  ///< deletion-probe depth (2 = single)
  double failure_fraction = 0.1;   ///< Monte-Carlo deletion fraction
  int failure_trials = 20;
  int routing_samples = 200;
  std::uint64_t seed = 1;
  EnergyModel energy{};
};

/// Result of flooding one message from a source (one hop per round).
struct BroadcastResult {
  int rounds = 0;             ///< rounds until no new node is reached
  int reached = 0;            ///< nodes that ever got the message
  double delivery_ratio = 0;  ///< reached / n
  double mean_hops = 0.0;     ///< mean hop distance over reached nodes
  /// Forwarding transmissions: every reached node with at least one
  /// out-edge rebroadcasts exactly once.  Sinks (out-degree 0) receive but
  /// never transmit, so transmissions <= reached always holds.
  long long transmissions = 0;
};

/// Directional-vs-omni hop stretch: mean and max over sampled source pairs
/// of (directional hop distance) / (omni hop distance).
struct StretchResult {
  double mean_stretch = 0.0;
  double max_stretch = 0.0;
  int sampled_pairs = 0;
};

/// Monte-Carlo failure study: delete a uniformly random fraction of the
/// sensors and measure how much of the survivor set stays mutually
/// reachable (largest SCC / survivors).
struct FailureStats {
  double mean_largest_scc = 0.0;  ///< fraction of survivors, averaged
  double worst_largest_scc = 1.0;
  int trials = 0;
};

/// Flood metrics aggregated over the sampled sources.
struct FloodSummary {
  int sources = 0;
  double mean_rounds = 0.0;
  double mean_hops = 0.0;
  double mean_transmissions = 0.0;
  double min_delivery = 1.0;  ///< worst delivery ratio over the sources
};

/// Everything the analysis layer can say about one orientation, off one
/// digraph build + one transpose.
struct FullReport {
  bool strongly_connected = false;
  int scc_count = 0;
  FloodSummary flood;
  StretchResult stretch;
  int connectivity_level = 0;
  FailureStats failure;
  RoutingStats routing;
  EnergyReport energy;
};

class AuditSession {
 public:
  // Out of line: the owned ThreadPool is an incomplete type here.
  AuditSession();
  ~AuditSession();
  AuditSession(const AuditSession&) = delete;
  AuditSession& operator=(const AuditSession&) = delete;

  /// Bind to a caller-owned digraph (non-owning view).  Invalidates the
  /// cached transpose; metric calls then audit `g`.  The caller keeps `g`
  /// alive while bound.
  void bind(const graph::Digraph& g);

  /// Build the induced transmission digraph (antenna layer) into session
  /// storage — CSR buffers and grid index recycled across loads, sharded
  /// over the session pool when `threads() > 1` — and bind it.
  const graph::Digraph& load(std::span<const geom::Point> pts,
                             const antenna::Orientation& o);

  /// Build the omnidirectional reference digraph (edge iff distance <=
  /// radius) into session storage.  Does NOT rebind: the directional
  /// digraph stays the audit subject; pass the returned reference to
  /// `hop_stretch`.
  const graph::Digraph& load_omni(std::span<const geom::Point> pts,
                                  double radius);

  /// The bound digraph (contract violation when nothing is bound).
  const graph::Digraph& digraph() const;

  /// The bound digraph's transpose, built on first use and cached until
  /// the next bind/load.
  const graph::Digraph& transpose();

  /// Strong connectivity via forward+backward reachability over the cached
  /// transpose (allocation-free warm).
  bool strongly_connected();

  /// SCC count: serial Tarjan at every thread count.
  int scc_count();

  /// Flood from `source` over the bound digraph: one BFS into the
  /// session's distance buffer, so sweeps over many sources allocate
  /// nothing.
  BroadcastResult flood(int source);
  StretchResult hop_stretch(const graph::Digraph& omni,
                            int sample_sources = 8);

  /// Strong c-connectivity audit (the paper's open problem, §5): the
  /// largest c <= max_level such that the digraph stays strongly connected
  /// after deleting any set of fewer than c vertices (1 = strongly
  /// connected, 2 = survives every single-vertex deletion, 3 = every pair,
  /// tested only when n <= 80; 0 = not strongly connected).  The result
  /// always lies in [0, max(max_level, 0)]: a graph of <= 1 vertex
  /// survives everything and reads the cap itself.  The level-2 pass (n
  /// single-vertex deletion probes, 2 BFS each) runs as contiguous probe
  /// chunks, one per session thread, with per-chunk ReachScratch +
  /// deletion mask, all sharing the one cached transpose; at one thread
  /// it is a single chunk that stops at the first failed probe.  The level
  /// is an AND over probe outcomes — order-independent — so the result is
  /// identical at every thread count.
  int strong_connectivity_level(int max_level = 3);

  /// Monte-Carlo random-failure resilience.  Each trial draws its
  /// deletions from an independent RNG stream seeded deterministically
  /// from (seed, trial index), so trial t sees the same failures no matter
  /// which worker runs it or whether the loop is serial — the report is
  /// bit-identical at every thread count (per-trial fractions are recorded
  /// by index and reduced in trial order).  `threads() > 1` fans trials
  /// out over the session pool with per-chunk subgraph CSR scratch.
  /// `fraction` is clamped to [0, 1]: <= 0 deletes nothing (mean and worst
  /// read 1.0 on a connected graph), >= 1 deletes everything the
  /// one-survivor guard allows — no out-of-range input changes the RNG
  /// stream or trips UB.
  FailureStats failure_resilience(double fraction, int trials,
                                  std::uint64_t seed);
  RoutingStats routing_stats(std::span<const geom::Point> pts, int samples,
                             std::uint64_t seed);

  /// The one-call audit: loads the induced digraph (and the omni reference
  /// at the orientation's max radius), then runs the full metric set off
  /// that single build.  Deterministic for a fixed (pts, o, opts).
  FullReport full_report(std::span<const geom::Point> pts,
                         const antenna::Orientation& o,
                         const AuditOptions& opts = {});

  /// Audit parallelism knob (same contract as PlanSession::set_threads):
  /// `threads <= 1` keeps every path serial and allocation-free;
  /// `threads > 1` spawns a session-owned pool, shards `load`'s digraph
  /// build, and fans out the deletion probes and failure trials over it.
  /// Results never change — only wall clock.
  void set_threads(int threads);
  int threads() const { return threads_; }

 private:
  const graph::Digraph* bound_ = nullptr;
  graph::Digraph own_;    ///< storage behind load()
  graph::Digraph omni_;   ///< storage behind load_omni()
  graph::Digraph transpose_;
  bool transpose_valid_ = false;

  antenna::TransmissionScratch tx_;       ///< induced-digraph build buffers
  antenna::TransmissionScratch omni_tx_;  ///< omni build buffers
  graph::BfsScratch bfs_;
  std::vector<int> dist_, dist_omni_;  ///< BFS distance buffers

  /// Per-chunk working memory for the audit loops (deletion probes,
  /// failure trials): one entry per chunk (= the session thread count),
  /// each with its own reachability scratch, deletion mask, Tarjan scratch
  /// and the masks of a trial's masked SCC pass.
  /// Worker 0 also serves the single-threaded metrics (strongly_connected,
  /// scc_count, the level-3 pair sweep).  Warm after the first audit, so
  /// repeated sweeps allocate nothing.
  struct AuditWorker {
    graph::ReachScratch reach;
    std::vector<char> removed;
    graph::SccScratch scc;
    graph::SccResult scc_result;
    std::vector<char> present, isolated;  ///< failure-trial SCC masks
    std::vector<int> sizes;
  };
  std::vector<AuditWorker> audit_workers_;  ///< >= threads_ entries
  std::vector<double> trial_frac_;  ///< per-trial largest-SCC fraction

  int threads_ = 1;
  std::unique_ptr<par::ThreadPool> pool_;
};

}  // namespace dirant::sim
