#pragma once
/// \file churn.hpp
/// ChurnEngine — deterministic fault injection plus incremental
/// recertification for long-lived planning sessions.
///
/// The paper plans a network once; this engine keeps a plan *certified*
/// while the network churns.  It owns the original point set with an alive
/// mask, applies batches of fail / recover / move events, and after every
/// batch produces an orientation, a certified transmission digraph, and a
/// core::Certificate that are **bit-identical to a from-scratch
/// `PlanSession::orient()` + `certify()` over the surviving points at every
/// thread count** (tests/test_churn.cpp) — while doing much less work on
/// the common path:
///
///   * EMST: a maintained Delaunay-superset candidate pool
///     (mst::DelaunayEdgePool) feeds Kruskal directly, skipping the
///     triangulation.  Exact by the unique-MST argument (mst/repair.hpp);
///     escalates to the full `orient()` pipeline when the pool degrades
///     (and reseeds it from the fresh triangulation's candidate edges,
///     gated on mst::EmstScratch::last_kind).
///   * Digraph: per-row patching of the previous certified CSR.  A node
///     whose sectors are unchanged (the re-plan reports exactly which rows
///     it rewrote) and which did not move keeps its row — dead targets
///     dropped, moved/recovered targets retested through one grid query
///     per event node (antenna::accepting_rows) — while dirty rows rebuild
///     from a grid query.  Row edge *sets* equal the fresh builder's by
///     induction, so the SCC count (a graph property) and hence the
///     certificate match exactly.  Escalates to the sharded full rebuild
///     when the dirty fraction crosses `ChurnOptions::dirty_threshold`.
///   * Certificate: the cached hub in/out trees re-certify from the dirty
///     frontier (graph::IncrementalSccCert, in-edges read off the patched
///     transpose); otherwise the Tarjan SCC count plugs into
///     core::make_certificate — the same arithmetic `certify` runs.
///
/// Index space: the engine's plan, certified CSR and its transpose, spatial
/// grid and witness trees all live in *original* id space (dead ids are
/// empty rows) and are patched in place, so a warm step touches only its
/// region.  Each is held once.  Compact (surviving-only) ids exist only
/// where a from-scratch plan runs — the escalated pipeline, the pool
/// Kruskal, the fresh sweep — and the sweep writes its rows straight into
/// the original-space plan through the compact-to-original row map.  The
/// full digraph build runs in original space over a grid masked to the
/// survivors, and the audit fallback's Tarjan pass runs on the certified
/// digraph itself.
///
/// Graceful degradation: before re-planning, each step audits the **frozen
/// survivor graph** — the previous certified digraph restricted to stable
/// nodes (alive in both batches, not moved) — answering "what does the
/// field look like right now, before new orientations are pushed?".
/// Moved/recovered nodes are conservatively stranded until the re-plan
/// re-aims them.  The audit is answered from the cached hub out-tree and
/// in-tree of the last certificate (graph::IncrementalSccCert::
/// audit_removal): only the subtrees hanging below this batch's removed
/// nodes are examined, and a masked Tarjan pass over the certified digraph
/// (dead ids left out, moved/recovered ids isolated) runs only when that
/// witness cannot answer (no valid trees, hub removed, subtrees too
/// large, or a hub component not holding a strict majority).
/// Certification failure mid-churn never throws: the DegradedReport
/// carries the largest-SCC coverage fraction, the stranded list, the
/// k-level achieved (optional deletion probes), and the dirty node set
/// doubles as the suggested repair re-orientation.
///
/// Determinism: event application, pool maintenance, escalation decisions,
/// the dirty diff, and the frozen audit are all serial functions of the
/// (seeded) event sequence; the one thread-sensitive stage (the sharded CSR
/// build) carries its own bit-identity contract — so the whole
/// StepReport is bit-identical at every thread count, under asan and tsan.
///
/// Reuse contract: construct once, `init` once, then `step` forever.  From
/// the second step on, a steady-state batch (stable alive count) performs
/// zero heap allocations on both the incremental and the escalated path
/// (tests/test_session_alloc.cpp, WarmChurnLoopIsAllocationFree).  Batches
/// that shrink and regrow the alive set may grow compact-space buffers,
/// like every session in this library.
/// Not thread-safe; the engine parallelizes internally via `set_threads`.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "antenna/orientation.hpp"
#include "common/max_tree.hpp"
#include "core/session.hpp"
#include "core/two_antennae.hpp"
#include "core/validate.hpp"
#include "geometry/point.hpp"
#include "graph/digraph.hpp"
#include "graph/recert.hpp"
#include "graph/scc.hpp"
#include "mst/repair.hpp"
#include "mst/tree.hpp"
#include "spatial/grid_index.hpp"

namespace dirant::par {
class ThreadPool;
}

namespace dirant::sim {

enum class ChurnEventKind {
  kFail,     ///< alive node goes dark (deleted from the alive set)
  kRecover,  ///< dead node rejoins at its last known position
  kMove,     ///< alive node relocates to `to`
};

const char* to_string(ChurnEventKind k);

/// One churn event addressed by *original* index (the init() point order);
/// indices are stable across the whole session regardless of churn.
struct ChurnEvent {
  ChurnEventKind kind = ChurnEventKind::kFail;
  int node = -1;
  geom::Point to{};  ///< kMove destination (ignored otherwise)
};

/// Event log entry: `applied == false` means the event was rejected and
/// the state is unchanged.  Rejected are: failing a dead node, recovering
/// an alive one, moving a dead one, a fail that would drop the alive count
/// below ChurnOptions::min_alive, a move onto the exact position of
/// another alive node, and a recover at a position another alive node now
/// occupies exactly (the orientation layer cannot aim at a coincident
/// point).  Events apply in order, so the occupancy a move or recover
/// sees includes the earlier events of its own batch.  Rejections are
/// deterministic, so logs replay.
struct AppliedEvent {
  ChurnEvent event{};
  bool applied = false;
};

struct ChurnOptions {
  /// Dirty-sector fraction above which the digraph patch path escalates to
  /// the full (sharded) rebuild.
  double dirty_threshold = 0.25;
  /// Probe the frozen survivor graph's deletion-robustness level (0 =
  /// disconnected, 1 = strongly connected, 2 = survives every single-node
  /// deletion).  n reachability probes per step — off by default.
  bool probe_k_level = false;
  /// Disable both incremental paths (baseline / bench denominator).
  bool force_full = false;
  /// Fail events that would leave fewer than this many alive nodes are
  /// rejected (the engine always has a plannable point set).
  int min_alive = 3;
};

/// Pre-repair field state (see file comment).  `coverage_fraction` is the
/// largest strongly connected component of the frozen survivor graph over
/// the alive count; `stranded` lists the alive original ids outside it.
struct DegradedReport {
  bool degraded = false;  ///< coverage_fraction < 1
  double coverage_fraction = 1.0;
  int largest_scc = 0;  ///< vertex count of the largest surviving SCC
  int k_level = -1;     ///< -1 = not probed (ChurnOptions::probe_k_level)
  std::vector<int> stranded;
};

/// Everything one step produced.  Returned by const reference into
/// engine-owned storage — valid until the next `step`/`init`; copy out to
/// keep.  Every field is bit-identical at every thread count.
struct StepReport {
  int batch = 0;  ///< 0 = the init() full plan
  int alive = 0;
  std::vector<AppliedEvent> events;  ///< in input order
  DegradedReport degraded;           ///< pre-repair audit
  /// Alive original ids whose sectors changed in the re-plan (or which
  /// moved/recovered): the orientations to push to the field — the
  /// "suggested repair re-orientation".
  std::vector<int> suggested_repair;
  double dirty_fraction = 0.0;
  bool incremental_plan = false;     ///< pool-Kruskal path (vs full orient)
  bool incremental_digraph = false;  ///< row-patch path (vs full rebuild)
  /// Localized MST repair carried the tree across this batch (the pool
  /// Kruskal was skipped entirely).  Implies `incremental_plan`.
  bool localized_mst = false;
  /// Why the localized repair was skipped or abandoned this batch
  /// (nullptr = it ran, or the step escalated before reaching it):
  /// "mst-unseeded", "mst-region", "mst-candidates", "mst-walk-budget",
  /// "mst-disconnected", "mst-count", "mst-degree".  All reasons are pure
  /// functions of the event sequence — deterministic across thread counts.
  const char* mst_fallback = nullptr;
  /// Affected-region size of the localized repair (nodes the repair
  /// touched); 0 when `localized_mst` is false.
  int mst_region = 0;
  /// The warm orienter ran: only `orient_planned` vertices re-planned and
  /// every other sector row is the previous plan's, left in place.  Always
  /// equal to `warm_orient`, the only incremental orienter.
  bool incremental_orient = false;
  int orient_planned = 0;
  /// The plan came from the warm frontier orienter — the recorded tree was
  /// patched with the batch's net MST edge delta (rung 1: the repair
  /// layer's; rung 2: the diff against the pool-Kruskal tree) and only the
  /// affected region re-planned, instead of a fresh O(n) sweep.
  bool warm_orient = false;
  /// The strong-connectivity certificate was revalidated from the dirty
  /// frontier against the cached spanning in/out trees — no SCC pass ran.
  bool cert_reused = false;
  /// Why the plan escalated (nullptr = it didn't): "forced",
  /// "pool-invalid", "below-prim-cutoff", "pool-oversized",
  /// "pool-disconnected".
  const char* escalation = nullptr;
  /// Post-repair certificate over the surviving set — bit-identical to
  /// `PlanSession::certify` on a fresh session at the same thread count.
  core::Certificate certificate{};
};

class ChurnEngine {
 public:
  ChurnEngine();
  ~ChurnEngine();
  ChurnEngine(const ChurnEngine&) = delete;
  ChurnEngine& operator=(const ChurnEngine&) = delete;

  /// Full plan + certification over `pts` (all alive); seeds the candidate
  /// pool and the certified digraph.  Returns the batch-0 report.
  const StepReport& init(std::span<const geom::Point> pts,
                         const core::ProblemSpec& spec,
                         const ChurnOptions& opts = {});

  /// Apply one event batch, audit, re-plan, re-certify.  Never throws on
  /// degraded connectivity — that is what the report's DegradedReport is
  /// for.  See the file comment for the path selection rules.
  const StepReport& step(std::span<const ChurnEvent> events);

  /// Parallelism for the full digraph rebuild and the SCC pass.  Results
  /// never change (both stages carry bit-identity contracts); wall clock
  /// does.  The serial default keeps the zero-allocation steady state.
  void set_threads(int threads);
  int threads() const { return threads_; }

  int size() const { return n_orig_; }
  int alive_count() const { return alive_count_; }
  const std::vector<char>& alive() const { return alive_; }
  /// Current positions in original index space (dead nodes keep their last
  /// position and rejoin there on kRecover unless moved first).
  const std::vector<geom::Point>& positions() const { return positions_; }
  /// Compact (surviving) index -> original id, ascending.  Built on
  /// demand: O(n) on the first call after a batch that changed the alive
  /// set or a position.
  const std::vector<int>& compact_to_orig() const;
  /// The current plan, in **original** index space: row u holds alive node
  /// u's sectors, dead rows are empty.  `lmax`, `bound_factor`,
  /// `measured_radius` and `algorithm` are those of the survivors' plan.
  const core::Result& last_result() const { return plan_; }
  /// The certified transmission digraph of the last step, in **original**
  /// index space: one row per original id, dead ids are empty rows that no
  /// row points at.  Bind an AuditSession to it (`AuditSession::bind`) to
  /// run the full metric sweep without a rebuild.
  const graph::Digraph& certified_digraph() const { return dg_; }
  /// Its transpose (row u lists the sources of u's in-edges, ascending),
  /// kept equal to `certified_digraph().reversed()` by patching.
  const graph::Digraph& certified_transpose() const { return dgt_; }
  const StepReport& last_report() const { return report_; }

  /// Deterministic Poisson-thinned schedule: every alive node fails with
  /// probability `fail_rate` (else moves with `move_rate`, displaced
  /// uniformly in a `move_radius` box), every dead node recovers with
  /// `recover_rate`; all draws come from per-(seed, batch_tag, node)
  /// splitmix64 streams, so the schedule depends only on the arguments and
  /// the current alive mask.  Appends to `out`.
  void poisson_schedule(std::uint64_t seed, int batch_tag, double fail_rate,
                        double recover_rate, double move_rate,
                        double move_radius, std::vector<ChurnEvent>& out) const;

  /// Adversarial "kill the articulation set": fail the `count` alive nodes
  /// of highest degree in the last plan's spanning tree (ties by smaller
  /// id) — the tree's internal nodes are exactly its articulation points.
  /// O(n log n): the degrees are counted here, not kept per step.
  void adversarial_schedule(int count, std::vector<ChurnEvent>& out) const;

 private:
  bool position_taken(int v, const geom::Point& p) const;
  void touch(int u);
  void build_compact() const;
  void audit_frozen();
  void replan();
  void derive_mst_events();
  /// Row map of the original-space plan; the sweep records the warm
  /// orienter's memory only when `record` (a degree-repaired tree differs
  /// from the one the repair layer reports deltas against).
  core::PlanRows plan_rows(bool record);
  bool orient_warm(std::span<const std::pair<int, int>> removed,
                   std::span<const std::pair<int, int>> added);
  void adopt_warm_plan();
  void adopt_fresh_plan();
  void adopt_rows(std::span<const int> changed);
  void diff_recorded_tree();
  void refresh_row(int u);
  int certify_sccs();
  void build_digraph();
  void full_build();
  void patch_transpose();
  void install(graph::Digraph& g, std::vector<int>& offsets,
               std::vector<int>& targets);
  void reseed_pool();

  core::PlanSession session_;  ///< always serial inside (determinism anchor)
  core::ProblemSpec spec_{};
  ChurnOptions opts_{};
  int threads_ = 1;
  std::unique_ptr<par::ThreadPool> pool_;

  // Original-space state.
  int n_orig_ = 0;
  std::vector<geom::Point> positions_;
  std::vector<char> alive_;
  int alive_count_ = 0;
  // Batch scratch: the flags of the nodes in touched_ are cleared at the
  // start of the next batch, so no per-batch pass covers every node.
  std::vector<char> moved_;        ///< this batch
  std::vector<char> recovered_;    ///< this batch
  std::vector<char> changed_pos_;  ///< moved_ | recovered_
  std::vector<int> touched_;       ///< nodes with an applied event
  std::vector<int> touch_stamp_;   ///< == batch_: in touched_
  std::vector<char> start_alive_;  ///< alive when the batch began (touched)
  std::vector<int> event_nodes_; ///< alive & (moved|recovered), ascending
  std::vector<int> batch_dead_;  ///< fails applied this batch, ascending
  std::vector<int> pending_fails_;  ///< buffered pool erases (one batch)
  std::vector<int> dirty_stamp_;    ///< == batch_: row in suggested_repair
  std::vector<int> rewrite_stamp_;  ///< == batch_: row patch rewrites row

  // Compact maps, built on demand (fresh plans, pool Kruskal) for the
  // current alive set and positions.
  mutable std::vector<int> comp_of_, orig_of_;
  mutable std::vector<geom::Point> compact_pts_;
  mutable bool compact_valid_ = false;

  // Incremental plan.
  mst::DelaunayEdgePool pool_edges_;
  mst::Tree inc_tree_;
  /// The last plan's spanning tree is the repair layer's (warm orient), not
  /// `session_.last_tree()` over the compact ids of that step.
  bool tree_in_repair_ = false;

  // Sub-linear warm path: the maintained EMST (layer 1), the warm
  // orienter's plan memory (layer 2), and the frontier recertifier's
  // spanning in/out trees (layer 3).
  mst::LocalMstRepair repair_;
  core::TwoAntennaeMemory orient_mem_;
  /// Rung 2's net diff from the recorded tree to the Kruskal tree.
  std::vector<std::pair<int, int>> tree_removed_, tree_added_;
  std::vector<int> kept_stamp_;  ///< == batch_: recorded parent edge kept
  std::vector<int> mst_removed_, mst_inserted_;
  graph::IncrementalSccCert recert_;
  std::vector<int> suspects_;  ///< dirty ∪ this-batch dead, ascending

  // The plan in original space, with exact per-row maxima for the
  // certificate (rows shrink as well as grow).  Fresh sweeps write it in
  // place through orig_of_ (PlanSession's row-mapped overloads).
  core::Result plan_;
  std::vector<int> plan_changed_;  ///< rows the last fresh plan rewrote
  MaxTree radius_max_, spread_max_, count_max_;

  // Certified digraph (original space) + certification scratch.  The CSR
  // buffer pairs (dg_'s own, the patch pair, the transmission scratch's)
  // circulate through Digraph adopt/release, so warm steady-state steps of
  // either flavour allocate nothing.
  graph::Digraph dg_;
  /// dg_'s transpose, in-lists in ascending source order — always exactly
  /// `dg_.reversed_into`: the full build transposes, the row patch patches
  /// the in-lists its rewritten rows touch.
  graph::Digraph dgt_;
  core::CertifyScratch cx_;
  spatial::GridIndex grid_;  ///< alive positions, kept current per event
  std::vector<int> patch_offsets_, patch_targets_;
  std::vector<int> tpatch_offsets_, tpatch_targets_;
  std::vector<int> rewrite_;  ///< rows the patch rewrites, ascending
  std::vector<std::pair<int, int>> tgained_;  ///< (target, rewritten source)
  std::vector<int> tlists_;  ///< in-lists the row patch changes, ascending
  std::vector<std::pair<int, int>> event_hits_;  ///< (clean row, event node)

  // Frozen-survivor audit scratch.
  std::vector<int> audit_removed_, audit_outside_;
  graph::SccResult scc_result_;
  std::vector<int> scc_sizes_;
  graph::ReachScratch reach_;
  std::vector<char> probe_removed_;  ///< k-level probe mask, original ids

  StepReport report_;
  int batch_ = 0;
  bool inited_ = false;
};

}  // namespace dirant::sim
