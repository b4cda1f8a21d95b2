#pragma once
/// \file recert.hpp
/// Frontier-bounded strong-connectivity recertification.
///
/// A digraph is strongly connected iff some hub vertex reaches every vertex
/// (an *out-tree*) and every vertex reaches the hub (an *in-tree*).
/// IncrementalSccCert caches those two spanning trees in *original*
/// (churn-stable) index space — the digraph's own: sim::ChurnEngine keeps
/// its certified CSR there, dead ids as empty rows — between batches and,
/// on a warm step, revalidates them against the newly patched CSR rows
/// starting from the dirty frontier alone:
///
///   * Every certificate edge that *could* have vanished is re-verified by a
///     row scan: edges incident to dirty rows (rebuilt wholesale), edges
///     into moved/recovered targets (clean rows drop and retest exactly
///     those), and edges incident to this batch's dead nodes.  The patch
///     builder's row semantics make this enumeration exhaustive — an edge
///     between two clean, unmoved nodes cannot disappear.
///   * A broken link orphans only its lower endpoint's *root*: the subtree
///     hanging below it kept all of its own edges, so re-anchoring the root
///     re-anchors the subtree for free.  Orphaned roots re-attach under any
///     *anchored* parent (one whose hub chain avoids every still-orphaned
///     root — checked by a stamped, path-compressed ancestor walk), which
///     preserves acyclicity and hub-reachability by induction.  A root whose
///     every candidate parent lies inside its own subtree (attaching would
///     close a cycle) is instead re-rooted by a path graft: BFS through the
///     subtree until an anchored node appears, then relink the whole chain.
///   * Out-tree parents are found through the transmission grid (any edge
///     w→u has dist(w,u) ≤ the query radius, so the disk query is a
///     superset); in-tree successors come from the node's own CSR row.
///
/// When every orphan re-attaches, the two trees are a constructive witness
/// that the digraph is strongly connected — the SCC count is 1 without
/// running Tarjan, and the resulting core::Certificate is bit-identical to
/// the one the full pass would produce.  Any failure (budget, hub death,
/// frontier too large, an orphan with no anchored parent) invalidates the
/// cache and the caller falls back to the full SCC pass, rebuilding the
/// trees from its answer.  Every decision is a serial function of the
/// suspect set and the CSR rows — deterministic and thread-count
/// independent.  All buffers recycle; a warm repair or rebuild
/// allocates nothing once the kid lists reach steady state.

#include <span>
#include <utility>
#include <vector>

#include "geometry/point.hpp"
#include "graph/digraph.hpp"
#include "spatial/grid_index.hpp"

namespace dirant::graph {

struct RecertConfig {
  /// The patch is abandoned when suspects + orphaned roots exceed
  /// slack + alive / divisor (the frontier is no longer "local").
  int budget_slack = 256;
  int budget_divisor = 8;
  /// Ancestor-walk step budget per repair = walk_slack + walk_factor*alive.
  int walk_slack = 2048;
  int walk_factor = 4;
};

/// See file comment.
class IncrementalSccCert {
 public:
  explicit IncrementalSccCert(RecertConfig cfg = {}) : cfg_(cfg) {}

  void invalidate() { valid_ = false; }
  bool valid() const { return valid_; }
  const RecertConfig& config() const { return cfg_; }

  /// Rebuild both trees from a digraph whose alive vertices are known to
  /// be strongly connected (dead ids are empty rows nobody points at):
  /// BFS from the smallest alive id over `dg`, then over its transpose —
  /// computed into `transpose_scratch`, reusing its storage.
  void rebuild(const Digraph& dg, Digraph& transpose_scratch,
               std::span<const char> alive, int alive_count);

  /// Frontier-bounded patch against the new rows.  `suspects` = ids,
  /// ascending: the dirty re-plan set plus this batch's dead nodes;
  /// `changed_pos[u]` flags moved/recovered nodes; `grid` must index the
  /// alive `positions` and `query_radius` bound every row's accept limit.
  /// Returns true when both trees re-certified (the digraph is strongly
  /// connected); false invalidates the cache.
  bool repair(const Digraph& dg, std::span<const char> alive,
              int alive_count, std::span<const geom::Point> positions,
              const spatial::GridIndex& grid, double query_radius,
              std::span<const int> suspects, std::span<const char> changed_pos,
              std::vector<int>& hits);

  /// Read-only removal audit on the graph the trees certify: which
  /// survivors of `dg` minus `removed` (ascending ids; members, or ids
  /// that joined since) are still in the hub's strongly connected
  /// component?  Survivors outside every removed node's subtree in both
  /// trees keep their tree paths, so only those subtrees are examined:
  /// an out-subtree node is reached iff an edge enters its subtree's
  /// closure from an anchored survivor (in-edges found through `grid`, as
  /// in `repair`), an in-subtree node reaches the hub iff a path leaves
  /// it.  `outside` receives the survivors not in the hub's component,
  /// ascending; its size is exact, so the component is the survivors
  /// minus `outside`.  Returns false — the caller runs an SCC pass — when
  /// the cache is invalid, the hub is removed, or a cut subtree exceeds
  /// budget_slack + alive_count / 4 nodes (past that, the grid queries
  /// that prove nodes stranded cost more than the pass).  The trees are never
  /// touched, so `repair` runs on them afterwards exactly as it would have.
  bool audit_removal(const Digraph& dg, std::span<const int> removed,
                     int alive_count, std::span<const geom::Point> positions,
                     const spatial::GridIndex& grid, double query_radius,
                     std::vector<int>& outside, std::vector<int>& hits);

 private:
  /// Intrusive sibling lists (head per parent, next/prev per child): kid
  /// link/unlink is O(1) and allocation-free after the initial resize —
  /// vector-of-vectors kid lists would reallocate on warm repairs.
  struct KidList {
    std::vector<int> head, next, prev;
    void resize(int n) {
      head.resize(n, -1);
      next.resize(n, -1);
      prev.resize(n, -1);
    }
    void unlink(int parent, int u) {
      if (prev[u] >= 0) {
        next[prev[u]] = next[u];
      } else {
        head[parent] = next[u];
      }
      if (next[u] >= 0) prev[next[u]] = prev[u];
    }
    void link(int parent, int u) {
      prev[u] = -1;
      next[u] = head[parent];
      if (head[parent] >= 0) prev[head[parent]] = u;
      head[parent] = u;
    }
  };

  static bool row_has(const Digraph& dg, int from, int to);
  bool anchored(int w, const std::vector<int>& parent, std::vector<int>& memo,
                int* walk_budget);

  RecertConfig cfg_;
  bool valid_ = false;
  int n_ = 0;
  int hub_ = -1;  ///< original id; any alive vertex works as the hub
  std::vector<int> out_parent_;  ///< edge parent→u certifies hub reaches u
  std::vector<int> in_next_;     ///< edge u→next certifies u reaches hub
  KidList out_kids_, in_kids_;   ///< reverse links of the two trees
  std::vector<char> member_;     ///< alive as of the cached trees
  int epoch_ = 0;                      ///< stamp era (bumped per call)
  std::vector<int> mark_out_, mark_in_;      ///< orphan-root stamps
  std::vector<int> anchor_out_, anchor_in_;  ///< anchored-walk memo stamps
  std::vector<int> roots_out_, roots_in_;    ///< orphaned roots, in order
  std::vector<int> tmp_;   ///< kid-list iteration copy
  std::vector<int> path_;  ///< ancestor walk recording
  std::vector<int> bfs_;   ///< rebuild / graft BFS queue
  int gepoch_ = 0;                ///< graft-BFS visit era
  std::vector<int> gvis_, gpred_;  ///< graft-BFS visit stamp + predecessor
  std::vector<int> rev_off_, rev_tgt_;  ///< audit: in-closure reverse CSR
  std::vector<std::pair<int, int>> rev_pairs_;
};

}  // namespace dirant::graph
