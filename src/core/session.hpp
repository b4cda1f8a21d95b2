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
///   * `orient` / `orient_on_tree` return a reference into session-owned
///     storage.  The referenced Result (and the tree from `last_tree()`)
///     stays valid until the next orienting call on the same session —
///     copy it out if it must outlive that.
///   * Sessions are NOT thread-safe; share nothing, or one per thread
///     (core::orient_batch keeps one per pool worker).
///   * A session runs the Table 1 regimes only (`planned_algorithm`).  The
///     extension planners beyond the paper — the Yao baseline, the
///     bidirected cycle, heterogeneous fleets, the adaptive radius cap —
///     are free functions with their own scratch.
///   * Steady-state zero allocation holds for the Table 1 tree regimes on
///     same-size instances; the bottleneck-cycle heuristic (kBtspCycle —
///     NP-hard machinery with its own DP tables) and degenerate-input
///     fallbacks may still allocate.
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

#include "common/workspace.hpp"
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
  /// When set, a Theorem 3 sweep records its plan memory here in row space
  /// (see orient_two_antennae); any other regime leaves it invalid.
  TwoAntennaeMemory* memory = nullptr;
};

/// Working memory shared by the per-k orienters.  Owned by PlanSession;
/// every orienter's `*_into` variant takes one of these and must not
/// allocate once the buffers are warm.  Per-call arrays (the rooted view,
/// the sweep's BFS-ordered points and targets) are taken from `ws` for the
/// length of one call: PlanSession shares its Workspace here.
struct OrienterScratch {
  WorkspaceSource ws;
  std::vector<std::pair<int, geom::Point>> work;  ///< (vertex, target) stack
  std::vector<std::vector<int>> adjacency;        ///< tree neighbour lists
  std::vector<int> degrees;                       ///< per-vertex degrees
  std::vector<geom::Point> targets;               ///< per-node cover targets
  std::vector<geom::Sector> cover;                ///< lemma1_cover output
  std::vector<int> parent_hint;  ///< warm orienter's per-vertex parent view
  Lemma1Scratch lemma1;
};

class PlanSession {
 public:
  // Constructors/destructor out of line: the owned ThreadPool is an
  // incomplete type here.
  PlanSession();
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
  /// with the row-mapped `orient_on_emst`, recording `mem` from that sweep
  /// (`PlanRows::memory`).
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

  /// Session parallelism knob.  `threads <= 1` (the default) keeps the
  /// serial, zero-allocation paths; `threads > 1` spawns (or resizes) a
  /// session-owned thread pool of that many workers and shards the
  /// certification digraph build across it.  Nothing else changes: `orient`
  /// runs the serial EMST engine and `certify` the serial Tarjan pass at
  /// every thread count.  The knob never changes results — the sharded CSR
  /// is bit-identical to the serial one.
  void set_threads(int threads);
  int threads() const { return threads_; }

  /// The degree-5 EMST built by the last `orient` (not `orient_on_tree`).
  const mst::Tree& last_tree() const { return tree_; }
  const Result& last_result() const { return result_; }

  const mst::EmstEngine& engine() const { return engine_; }
  OrienterScratch& scratch() { return scratch_; }
  /// The EMST stage's working memory.  Incremental consumers
  /// (sim::ChurnEngine) read `candidates`/`last_kind` after a full plan to
  /// seed their candidate pool, and run their pool Kruskal through its
  /// Kruskal scratch between plans.
  mst::EmstScratch& emst_scratch() { return emst_scratch_; }
  /// The Workspace every stage borrows its per-call temporaries from
  /// (triangulator, Kruskal, sweep, digraph build, Tarjan), and that
  /// sim::ChurnEngine's cold path borrows from too; whatever a later call
  /// or stage reads (result, tree, candidates, CSR) stays owned.
  Workspace& workspace() { return workspace_; }

 private:
  /// Dispatch `planned_algorithm(spec)` without the spanning-tree scan
  /// (internal trees are valid by construction; the public tree-taking
  /// entry points validate first).
  const Result& run(std::span<const geom::Point> pts, const mst::Tree& tree,
                    const ProblemSpec& spec);
  void run(std::span<const geom::Point> pts, const mst::Tree& tree,
           const ProblemSpec& spec, const PlanRows& rows);

  mst::EmstEngine engine_;
  Workspace workspace_;  ///< declared before the scratches that link to it
  mst::EmstScratch emst_scratch_;
  mst::Tree tree_;
  OrienterScratch scratch_;
  Result result_;
  Certificate certificate_;
  CertifyScratch certify_scratch_;
  int threads_ = 1;  ///< digraph-build shards (1 = serial, allocation-free)
  std::unique_ptr<par::ThreadPool> pool_;  ///< owned workers when threads_>1
};

}  // namespace dirant::core
