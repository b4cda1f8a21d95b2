#pragma once
/// \file session.hpp
/// PlanSession — the reusable planning core.  One session owns every piece
/// of pipeline working memory (EMST engine scratch, degree-repair worklists,
/// tree and traversal buffers, the per-k orienter output arena, and the
/// certification scratch), so the second and subsequent `orient()` calls
/// through a session allocate nothing in steady state: same-size instances
/// stream through EMST -> degree repair -> orient touching only warm
/// buffers (enforced by tests/test_session_alloc.cpp).  This extends to the
/// whole orientation pipeline the discipline CertifyScratch established for
/// certification; `certify` recycles the CSR/SCC buffers AND the grid index
/// (GridIndex::rebuild), so a warm serial certify allocates nothing either.
///
/// Lifecycle / reuse contract:
///   * A session is cheap to construct but expensive to warm up (first call
///     sizes every buffer); keep one per worker thread, not one per call.
///   * `orient` / `orient_on_tree` / `orient_with` return a reference into
///     session-owned storage.  The referenced Result (and the tree from
///     `last_tree()`) stays valid until the next orienting call on the same
///     session — copy it out if it must outlive that.
///   * Sessions are NOT thread-safe; share nothing, or one per thread
///     (core::orient_batch keeps one per pool worker).
///   * Steady-state zero allocation holds for the Table 1 tree regimes on
///     same-size instances; the bottleneck-cycle heuristic (kBtspCycle,
///     kBidirCycle — NP-hard machinery with its own DP tables), the Yao
///     grid baseline and degenerate-input fallbacks may still allocate.
///
/// Degenerate input: the Theorem 3 regimes (k = 2) need distinct positions.
/// Exact duplicates make `orient` throw dirant::contract_violation (a beam
/// or ccw sort at a coincident point); the session stays usable afterwards.
///
/// The free functions core::orient / core::orient_on_tree (planner.hpp)
/// remain the one-shot front door; they run over a thread-local session and
/// copy the result out.

#include <memory>
#include <span>
#include <vector>

#include "core/heterogeneous.hpp"
#include "core/lemma1.hpp"
#include "core/types.hpp"
#include "core/validate.hpp"
#include "geometry/point.hpp"
#include "mst/engine.hpp"
#include "mst/rooted.hpp"
#include "mst/tree.hpp"

namespace dirant::par {
class ThreadPool;
}

namespace dirant::core {

struct TwoAntennaeMemory;
struct OrientWarmDelta;

/// Destination of a row-mapped plan (PlanSession's `PlanRows` overloads):
/// vertex v of the planned point set owns row `row_of[v]` of `*plan`.
struct PlanRows {
  std::span<const int> row_of;
  Result* plan = nullptr;
  std::vector<int>* changed = nullptr;  ///< rewritten rows, ascending
};

/// Working memory shared by the per-k orienters.  Owned by PlanSession;
/// every orienter's `*_into` variant takes one of these and must not
/// allocate once the buffers are warm.
struct OrienterScratch {
  mst::RootedTree rooted;                         ///< flat BFS rooted view
  std::vector<std::pair<int, geom::Point>> work;  ///< (vertex, target) stack
  std::vector<std::vector<int>> adjacency;        ///< tree neighbour lists
  std::vector<int> degrees;                       ///< per-vertex degrees
  std::vector<geom::Point> targets;               ///< per-node cover targets
  std::vector<geom::Point> order_pts;  ///< points gathered into BFS order
  std::vector<int> order_parent;       ///< parent position per BFS position
  std::vector<geom::Sector> cover;                ///< lemma1_cover output
  std::vector<int> parent_hint;  ///< warm orienter's per-vertex parent view
  Lemma1Scratch lemma1;
};

class PlanSession {
 public:
  // Constructors/destructor out of line: the owned ThreadPool is an
  // incomplete type here.
  PlanSession();
  explicit PlanSession(mst::EngineConfig engine_cfg);
  ~PlanSession();

  /// Full pipeline: degree-5 EMST of `pts`, then the Table 1 regime
  /// `planned_algorithm(spec)` over it.  Equivalent to core::orient.
  const Result& orient(std::span<const geom::Point> pts,
                       const ProblemSpec& spec);

  /// Orient over a caller-provided degree-<=5 spanning tree.  The tree must
  /// span `pts`: node count and edge indices are checked (contract
  /// violation otherwise).
  const Result& orient_on_tree(std::span<const geom::Point> pts,
                               const mst::Tree& tree, const ProblemSpec& spec);

  /// Dispatch a specific registry entry (including the non-selectable
  /// extension planners: kYaoBaseline, kBidirCycle, kHeterogeneous) over a
  /// caller-provided tree.
  const Result& orient_with(Algorithm algo, std::span<const geom::Point> pts,
                            const mst::Tree& tree, const ProblemSpec& spec);

  /// `orient` for a consumer that keeps its plan in another index space
  /// (sim::ChurnEngine keeps one row per original id): the same pipeline,
  /// but each vertex's row lands in place in `rows.plan` through
  /// `rows.row_of`, a row whose sectors are bitwise unchanged is left
  /// alone, and `rows.changed` receives the rewritten rows, ascending.  A
  /// Theorem 3 regime writes straight from its sweep (orient_two_antennae
  /// with a row map), so the session's own result table is never filled;
  /// every other regime plans into it and syncs each row across.  The
  /// header (algorithm, bound_factor, lmax, cases) is set;
  /// `measured_radius` is the caller's.
  void orient(std::span<const geom::Point> pts, const ProblemSpec& spec,
              const PlanRows& rows);

  /// Incremental orient entry point, row-mapped like the `orient` above:
  /// skip EMST construction and start the pipeline from a caller-provided
  /// *exact Euclidean MST* of `pts` (the unique minimum tree under the
  /// (d2, min, max) total order — e.g. a Kruskal run over any candidate
  /// superset of the Delaunay edges, which is how sim::ChurnEngine repairs
  /// locally).  The tree is copied into the session tree buffer (capacity
  /// reused), degree-5 repair runs exactly as in `orient`, and the same
  /// regime dispatch follows — so the rows are bit-identical to `orient`'s
  /// whenever `emst` equals the tree the engine would have built.  Unlike
  /// `orient_on_tree`, the input here is the raw EMST, not a
  /// degree-bounded tree.
  void orient_on_emst(std::span<const geom::Point> pts,
                      const mst::Tree& emst, const ProblemSpec& spec,
                      const PlanRows& rows);

  /// The sub-linear warm orienter (orient_two_antennae_warm) for churn
  /// consumers that keep their plan in original index space: re-hangs the
  /// recorded tree from `delta` and patches only the affected rows of
  /// `plan` in place, with no tree and no compact copy.  Returns false,
  /// leaving `plan` untouched, when the regime is not a Theorem 3
  /// two-antennae planner or a warm gate fails; the caller then re-plans
  /// with the row-mapped `orient_on_emst` and records `mem` from that
  /// sweep (core::record_two_antennae_memory over `scratch()`).
  bool orient_warm(const ProblemSpec& spec, TwoAntennaeMemory& mem,
                   const OrientWarmDelta& delta, Result& plan);

  /// Certify the last result against `spec` (independent reconstruction of
  /// the transmission digraph; see core/validate.hpp).  Allocation-free in
  /// steady state via the session-owned CertifyScratch (grid index and CSR
  /// buffers recycled) when `threads() <= 1`; with `set_threads(t > 1)` the
  /// digraph build shards over the session-owned pool — identical
  /// certificate, parallel wall clock.  The SCC pass is serial Tarjan
  /// either way.
  const Certificate& certify(std::span<const geom::Point> pts,
                             const ProblemSpec& spec);

  /// Instance-adaptive Theorem 3 planner over a caller-provided tree
  /// (binary-searched radius cap; see two_antennae.hpp).  The probe loop
  /// runs over a session-owned double-buffered Result — best and probe swap
  /// instead of reallocating — plus a recycled candidate-cap buffer, so a
  /// warm session's fleet-tuning probes allocate nothing.  The EMST is
  /// caller-provided and radius-cap-invariant: reuse one tree across every
  /// probe and call.
  const Result& orient_adaptive(std::span<const geom::Point> pts,
                                const mst::Tree& tree, double phi);

  /// Session parallelism knob.  `threads <= 1` (the default) keeps the
  /// serial, zero-allocation paths; `threads > 1` spawns (or resizes) a
  /// session-owned thread pool of that many workers and shards the
  /// certification digraph build across it.  Nothing else changes: `orient`
  /// runs the serial EMST engine and `certify` the serial Tarjan pass at
  /// every thread count.  The knob never changes results — the sharded CSR
  /// is bit-identical to the serial one.
  void set_threads(int threads);
  int threads() const { return threads_; }

  /// Per-node budgets for the kHeterogeneous registry entry.  When unset
  /// (or of mismatched size) the planner falls back to the uniform
  /// (spec.k, spec.phi) budget.
  void set_budgets(std::span<const NodeBudget> budgets);
  std::span<const NodeBudget> budgets() const { return budgets_; }

  /// Session-owned uniform budget fill (the kHeterogeneous fallback when no
  /// per-node budgets are registered); recycled like every other buffer.
  std::span<const NodeBudget> uniform_budgets(int n, NodeBudget b);

  /// Report of the last kHeterogeneous run through this session.
  const HeterogeneousReport& heterogeneous_report() const {
    return hetero_report_;
  }
  HeterogeneousReport& heterogeneous_report() { return hetero_report_; }

  /// The degree-5 EMST built by the last `orient` (not `orient_on_tree`).
  const mst::Tree& last_tree() const { return tree_; }
  const Result& last_result() const { return result_; }

  const mst::EmstEngine& engine() const { return engine_; }
  OrienterScratch& scratch() { return scratch_; }
  CertifyScratch& certify_scratch() { return certify_scratch_; }
  /// The EMST stage's working memory.  Incremental consumers
  /// (sim::ChurnEngine) read `candidates`/`last_kind` after a full plan to
  /// seed their candidate pool, and borrow the Kruskal scratch for local
  /// repairs between plans.
  mst::EmstScratch& emst_scratch() { return emst_scratch_; }

 private:
  /// Dispatch without the spanning-tree scan (internal trees are valid by
  /// construction; the public tree-taking entry points validate first).
  const Result& run(Algorithm algo, std::span<const geom::Point> pts,
                    const mst::Tree& tree, const ProblemSpec& spec);
  void run(Algorithm algo, std::span<const geom::Point> pts,
           const mst::Tree& tree, const ProblemSpec& spec,
           const PlanRows& rows);

  mst::EmstEngine engine_;
  mst::EmstScratch emst_scratch_;
  mst::Tree tree_;
  OrienterScratch scratch_;
  Result result_;
  Result result_alt_;  ///< adaptive probe buffer (double-buffered Result)
  std::vector<double> adaptive_cands_;  ///< candidate radius caps, recycled
  Certificate certificate_;
  CertifyScratch certify_scratch_;
  std::vector<NodeBudget> budgets_;
  std::vector<NodeBudget> uniform_budgets_;
  HeterogeneousReport hetero_report_;
  int threads_ = 1;  ///< digraph-build shards (1 = serial, allocation-free)
  std::unique_ptr<par::ThreadPool> pool_;  ///< owned workers when threads_>1
};

}  // namespace dirant::core
