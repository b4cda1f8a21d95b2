#pragma once
/// \file recert.hpp
/// Frontier-bounded strong-connectivity recertification.
///
/// A digraph is strongly connected iff some hub vertex reaches every vertex
/// (an *out-tree*) and every vertex reaches the hub (an *in-tree*).
/// IncrementalSccCert caches those two spanning trees in *original*
/// (churn-stable) index space between batches of sim::ChurnEngine and, on a
/// warm step, revalidates them against the newly patched CSR rows starting
/// from the dirty frontier alone:
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

  /// Rebuild both trees from a digraph known to be strongly connected
  /// (BFS from compact vertex 0 over `dg`, then over its transpose —
  /// computed into `transpose_scratch`, reusing its storage).
  void rebuild(const Digraph& dg, Digraph& transpose_scratch,
               std::span<const int> orig_of, std::span<const int> comp_of,
               int n_orig);

  /// Frontier-bounded patch against the new rows.  `suspects` = original
  /// ids, ascending: the dirty re-plan set plus this batch's dead nodes;
  /// `changed_pos[u]` flags moved/recovered originals; `grid` must be the
  /// index the row patch just built over `compact_pts` and `query_radius`
  /// its query radius.  Returns true when both trees re-certified (the
  /// digraph is strongly connected); false invalidates the cache.
  bool repair(const Digraph& dg, std::span<const int> orig_of,
              std::span<const int> comp_of,
              std::span<const geom::Point> compact_pts,
              const spatial::GridIndex& grid, double query_radius,
              std::span<const int> suspects, std::span<const char> changed_pos,
              std::vector<int>& hits);

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

  static bool row_has(const Digraph& dg, std::span<const int> comp_of,
                      int from, int to);
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
};

}  // namespace dirant::graph
