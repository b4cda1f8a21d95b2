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
///   * Out-tree parents come from the node's in-list in the transpose the
///     caller keeps next to the digraph (sim::ChurnEngine patches both in
///     step); in-tree successors come from the node's own CSR row.  Every
///     candidate is a real edge — no geometry is consulted.
///   * Anchorage walks memoize both verdicts: a positive one holds for the
///     rest of the call, a negative one until the next attachment (only an
///     attachment changes a parent link), so a long orphaned chain is walked
///     once per attachment, not once per candidate.
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

#include "graph/digraph.hpp"

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

  /// Every call takes the digraph `dg` together with its transpose `dgt`
  /// (`dg.reversed_into(dgt)` or an exact patch of it): row u of `dgt`
  /// lists the sources of u's in-edges.

  /// Rebuild both trees from a digraph whose alive vertices are known to
  /// be strongly connected (dead ids are empty rows nobody points at):
  /// BFS from the smallest alive id over `dg`, then over `dgt`.
  void rebuild(const Digraph& dg, const Digraph& dgt,
               std::span<const char> alive, int alive_count);

  /// Frontier-bounded patch against the new rows.  `suspects` = ids,
  /// ascending: the dirty re-plan set plus this batch's dead nodes;
  /// `changed_pos[u]` flags moved/recovered nodes.  Returns true when both
  /// trees re-certified (the digraph is strongly connected); false
  /// invalidates the cache.
  bool repair(const Digraph& dg, const Digraph& dgt,
              std::span<const char> alive, int alive_count,
              std::span<const int> suspects,
              std::span<const char> changed_pos);

  /// Read-only removal audit on the graph the trees certify: which
  /// survivors of `dg` minus `removed` (ascending ids; members, or ids
  /// that joined since) are still in the hub's strongly connected
  /// component?  Survivors outside every removed node's subtree in both
  /// trees keep their tree paths, so only those subtrees are examined:
  /// an out-subtree node is reached iff an edge enters its subtree's
  /// closure from an anchored survivor, an in-subtree node reaches the hub
  /// iff a path leaves it (both read off `dgt`'s in-lists).  `outside`
  /// receives the survivors not in the hub's component, ascending; its
  /// size is exact, so the component is the survivors minus `outside`.
  /// Returns false — the caller runs an SCC pass — when the cache is
  /// invalid, the hub is removed, or a cut subtree exceeds budget_slack +
  /// alive_count / 4 nodes (past that, walking the subtrees costs more
  /// than the pass).  The trees are never touched, so `repair` runs on
  /// them afterwards exactly as it would have.
  bool audit_removal(const Digraph& dg, const Digraph& dgt,
                     std::span<const int> removed, int alive_count,
                     std::vector<int>& outside);

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
  /// Is w's hub chain intact?  `memo` stamps (epoch_) known-anchored
  /// nodes, `unanchored` stamps (attach_epoch_) nodes known to hang below
  /// an orphan root since the last attachment.
  bool anchored(int w, const std::vector<int>& parent, std::vector<int>& memo,
                std::vector<int>& unanchored, int* walk_budget);

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
  std::vector<int> unanch_out_, unanch_in_;  ///< negative verdict stamps
  int attach_epoch_ = 0;  ///< bumped by every attachment in `repair`
  std::vector<int> roots_out_, roots_in_;    ///< orphaned roots, in order
  std::vector<int> tmp_;   ///< kid-list iteration copy
  std::vector<int> path_;  ///< ancestor walk recording
  std::vector<int> bfs_;   ///< rebuild / graft BFS queue
  int gepoch_ = 0;                ///< graft-BFS visit era
  std::vector<int> gvis_, gpred_;  ///< graft-BFS visit stamp + predecessor
};

}  // namespace dirant::graph
