#pragma once
/// \file repair.hpp
/// Localized EMST repair between full plans: a conservative Delaunay
/// candidate pool over the alive point set.
///
/// The pool is a duplicate-free set of undirected edges (original ids,
/// both endpoints alive) maintained under node deletion, insertion, and
/// movement so that the invariant
///
///     pool  ⊇  Delaunay(alive)  ⊇  EMST(alive)
///
/// always holds.  That makes incremental re-planning exact: Kruskal over the
/// pool yields the *unique* Euclidean MST of the alive set under the
/// library's strict (d2, min, max) total order — byte-identical to the tree
/// a from-scratch triangulate-plus-Kruskal run would build — without
/// re-triangulating (sim::ChurnEngine feeds the result to
/// core::PlanSession::orient_on_emst).
///
/// The maintenance rules are the classical incremental-Delaunay containments
/// (no exact predicates needed because the pool is allowed to be a
/// superset):
///   * delete w:  Del(S∖{w}) ⊆ Del(S) ∪ {pairs of w's Delaunay neighbours},
///     and w's Delaunay neighbours are among w's pool neighbours — so drop
///     w's incident edges and add all pairs of its former pool neighbours.
///   * insert v:  Del(S∪{v}) ⊆ Del(S) ∪ {v-incident edges} — so add v×alive.
///   * move = delete(old id) + insert(new position), ids unchanged.
///
/// Representation: the pool tracks its member set (the alive nodes) and
/// keeps an inserted node as a *star* — the implicit edge set v × members —
/// next to an explicit edge set that never touches a star.  The explicit set
/// is a sorted *base* list plus the work staged since the last compaction:
///   * erased ids are tombstoned, and a base entry touching a tombstone is
///     dead (a tombstoned id never gains explicit edges again before the
///     next compaction: it is absent, or re-inserted as a star);
///   * closure edges are staged in an unsorted list with per-node chains,
///     each checked against the live base (binary search) and the staged
///     chains first, so the staged list never duplicates a live edge;
///   * an erase finds its neighbours through the staged chains plus a
///     per-node index of the base list, built lazily at most once between
///     compactions.  The first erase after a compaction skips the index and
///     scans the base once instead (staged work and tombstones are empty
///     then), so a fail-only batch pays one read pass, as before.
/// The explicit size is kept exact by counting.  `edges()` compacts: one
/// pass drops dead base entries and merges in the staged edges plus every
/// star's edges, so a batch that escalates (the pool goes invalid, which
/// drops the staged work) never pays for a rewrite.  An insert is O(1) and
/// an erase costs O(degree · log m + degree²) once the index exists.
/// Every `valid()` / `size()` / `oversized()` / `edges()` answer is exactly
/// that of the materialised pool (tests/reference_edge_pool.hpp is the
/// oracle).
///
/// Superset-ness is free but not unbounded: each insert adds ~alive logical
/// edges and deletes add O(deg²), so the pool degrades toward the complete
/// graph under sustained churn.  Guards invalidate the pool (forcing the
/// caller to escalate to a full re-plan, which reseeds it from a fresh
/// triangulation) when an erased node's pool degree exceeds `degree_cap`
/// (a star's degree is members − 1) or the pool size crosses
/// `size_factor * alive + size_slack`.  All guards are functions of the
/// event sequence alone — deterministic and thread-count independent.

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/max_tree.hpp"
#include "common/workspace.hpp"
#include "geometry/point.hpp"
#include "mst/euler_tour.hpp"
#include "mst/tree.hpp"

namespace dirant::mst {

struct EdgePoolConfig {
  /// Erasing a node whose pool degree exceeds this invalidates the pool
  /// instead of adding O(deg²) closure pairs.
  int degree_cap = 64;
  /// Pool is oversized (escalate + reseed) when
  /// size > size_factor * alive + size_slack.  A planar triangulation has
  /// < 3n edges, so 6n leaves room for a few batches of insert fill-in.
  double size_factor = 6.0;
  int size_slack = 32;
};

/// See file comment.  All buffers are recycled; a warm pool performs zero
/// heap allocations once its edge, index and scratch vectors have grown to
/// the churn steady state.
class DelaunayEdgePool {
 public:
  explicit DelaunayEdgePool(EdgePoolConfig cfg = {}) : cfg_(cfg) {}

  /// Seed from a triangulation's edge list given in a compact index space;
  /// `orig_of` maps compact ids to original ids and its entries are the
  /// member (alive) set.  Clears every star and all staged work.  The pool
  /// becomes valid.  The edges are radix-sorted as packed (min, max) keys
  /// in buffers borrowed from `ws` (sim::ChurnEngine passes its session's
  /// shared Workspace), so the pool holds no sort memory between seeds;
  /// the two-argument form sorts in a call-local Workspace.
  void seed(std::span<const std::pair<int, int>> edges,
            std::span<const int> orig_of, Workspace& ws);
  void seed(std::span<const std::pair<int, int>> edges,
            std::span<const int> orig_of);

  /// True while the maintained superset invariant holds.  Operations on an
  /// invalid pool are no-ops; `seed` restores validity.
  bool valid() const { return valid_; }
  /// Drop the staged work and stop maintaining the pool until `seed`.
  void invalidate();

  /// Remove every edge incident to `w` and close its neighbour set (all
  /// pairs).  Invalidates the pool instead when w's degree exceeds the cap.
  void erase_node(int w) { erase_nodes(std::span<const int>(&w, 1)); }

  /// Batched erase of distinct ids.  The closure is computed per
  /// *connected component* of the erased set (through pool edges): all
  /// pairs of each component's surviving boundary — exactly the edge set
  /// sequential `erase_node` calls would leave behind, since intermediate
  /// pairs between erased nodes are themselves erased later in the
  /// sequence.  Invalidates the pool when a component's boundary exceeds
  /// the degree cap.
  void erase_nodes(std::span<const int> ws);

  /// Add v × {u : alive[u], u != v} as a star, in O(1).  Call with alive[v]
  /// already set, v not a member (erase it first), and every other alive
  /// node a member — the event loop contract sim::ChurnEngine keeps by
  /// flushing erases before inserts.
  void insert_node(int v, std::span<const char> alive);

  /// Logical edge count, stars included (exact, no materialisation).
  std::size_t size() const {
    const std::size_t s = stars_.size();
    const std::size_t m = static_cast<std::size_t>(members_);
    return explicit_size_ + s * (m - s) + s * (s - 1) / 2;
  }

  /// Size guard against the alive count (see EdgePoolConfig).
  bool oversized(int alive_count) const {
    return static_cast<double>(size()) >
           cfg_.size_factor * alive_count + cfg_.size_slack;
  }

  /// The candidate edges, sorted by (u, v) with u < v, unique.  Compacts
  /// first (see the file comment); the span is valid until the next
  /// mutation.
  std::span<const std::pair<int, int>> edges() {
    compact();
    return pool_;
  }

  /// Visit every candidate edge {u, v} of live member `u` as f(v),
  /// without compacting: through the per-node base index (built at most
  /// once between compactions) and u's staged chain, O(pool degree of u).
  /// Stars are the exception — their edges are implicit, so a pool holding
  /// any is compacted first (see `settle`).
  template <typename F>
  void for_each_neighbour(int u, F&& f) {
    settle();
    if (!index_built_) build_index();
    if (u + 1 < static_cast<int>(index_off_.size())) {
      for (int k = index_off_[u]; k < index_off_[u + 1]; ++k) {
        if (!tomb_[index_[k]]) f(index_[k]);
      }
    }
    for (int h = staged_head_[u]; h >= 0; h = staged_next_[h]) {
      const auto& [a, b] = staged_[h >> 1];
      const int v = (h & 1) != 0 ? a : b;
      if (!tomb_[v]) f(v);
    }
  }

  const EdgePoolConfig& config() const { return cfg_; }

 private:
  enum State : std::uint8_t { kAbsent = 0, kMember = 1, kStar = 2 };

  bool is_member(int u) const {
    return u >= 0 && u < static_cast<int>(state_.size()) &&
           state_[u] != kAbsent;
  }
  /// Size the per-node arrays for ids below `n`.
  void grow(int n);
  /// Rewrite the base list as the whole explicit pool: drop dead entries,
  /// merge in the staged edges and every star's edges, clear the stars.
  void compact();
  /// Before a read without `edges()`: write out any stars (their edges are
  /// implicit), and fold in staged work once it outgrows an eighth of the
  /// base, so reads stay O(what they visit) and each compaction is paid
  /// for by the batches that staged it.
  void settle() {
    if (!stars_.empty() ||
        staged_.size() + tombs_.size() > pool_.size() / 8 + 64) {
      compact();
    }
  }
  /// Clear tombstones, staged edges and the base index (O(staged work)).
  void drop_pending();
  /// Build the per-node index of `pool_` (positions, CSR by node).
  void build_index();
  /// Append (w, x) to `boundary_`/`uf_` for every live explicit edge of
  /// the marked erased set; returns how many edges it visited.
  std::size_t collect_neighbours(std::span<const int> ws);
  /// Stage the closure edge (a, b), a < b, unless it is already live.
  void stage(int a, int b);

  std::vector<std::pair<int, int>> pool_;  ///< base list: sorted, no star end
  std::size_t explicit_size_ = 0;          ///< live base + staged edges
  std::vector<std::pair<int, int>> staged_;  ///< closure edges, unsorted
  std::vector<int> staged_next_;  ///< [2i + side] -> next chain entry (-1)
  std::vector<int> staged_head_;  ///< orig id -> first chain entry (-1)
  std::vector<char> tomb_;        ///< orig id -> erased since compaction
  std::vector<int> tombs_;        ///< the tombstoned ids
  std::vector<int> index_off_, index_;  ///< node -> base neighbours (CSR)
  bool index_built_ = false;
  bool scanned_ = false;  ///< an erase has run since the last compaction
  std::vector<std::pair<int, int>> additions_;  ///< compaction: new edges
  std::vector<std::pair<int, int>> merged_;     ///< merge double buffer
  std::vector<int> stars_;           ///< inserted nodes, edges implicit
  std::vector<std::uint8_t> state_;  ///< orig id -> State
  int members_ = 0;                  ///< nodes with state_ != kAbsent
  std::vector<int> mark_;      ///< orig id -> local erased index + 1 (0 = no)
  std::vector<int> uf_;        ///< union-find over the erased set
  std::vector<std::pair<int, int>> boundary_;   ///< (component root, survivor)
  bool valid_ = false;
  EdgePoolConfig cfg_;
};

struct LocalRepairConfig {
  /// Insertion-side exact candidate disk (closed, radius²
  /// max(d2(v, NN), lmax²)) may hold at most this many points.
  int candidate_cap = 256;
  /// Total tree-path walk steps per batch across all cycle-max searches.
  int walk_slack = 1024;
  int walk_factor = 4;  ///< budget = walk_slack + walk_factor * alive
};

/// Maintains the exact Euclidean MST of the alive set across churn batches
/// in *original* index space, so a warm batch repairs the tree in time
/// proportional to the affected region instead of re-running Kruskal over
/// the whole candidate pool.
///
/// Exactness contract: after a successful `apply_batch`, the maintained
/// edge set IS the unique EMST of the alive point set under the library's
/// strict (d2, min endpoint, max endpoint) total order, and `export_tree`
/// reproduces `kruskal_emst`'s emission byte for byte (same edge pairs,
/// same order — it sorts by that key, and the compact remap is monotone).
/// The tree lives only as the flat adjacency plus per-node maxima of the
/// incident edge lengths (MaxTree), so a batch costs its region: the net
/// edge delta, the longest edge `lmax()` and the degrees are read without
/// any pass over the whole tree.  The two repair moves:
///
///   * **Deletions** (fails + moved-away nodes): dropping a tree node cuts
///     the tree into fragments.  An Euler-tour forest (mst/euler_tour.hpp)
///     mirrors the tree edge for edge, so the surviving endpoints of the
///     cut edges group into fragments by tree identity and each fragment's
///     exact size is read off its tour.  Only the fragments other than the
///     largest are walked — every crossing edge touches one — and they are
///     reconnected by Borůvka rounds over the candidate pool edges incident
///     to their nodes: each fragment's minimum crossing edge under the
///     strict order is an MST edge by the cut property, and the pool ⊇
///     Delaunay(alive) superset invariant guarantees every needed
///     replacement is present.  A deletion costs what it cuts off, never
///     a pass over the whole tree.
///   * **Insertions** (recoveries + moved-to nodes, ascending id): vertex
///     v's incident MST edges all lie in the closed disk of squared radius
///     max(d2(v, NN), lmax²) — cycle property against the tree plus the
///     edge (v, NN).  Each candidate in ascending (d2, min, max) order is
///     either rejected (cycle max ≤ candidate) or swapped in for the
///     maximum edge on the tree path it closes; the first candidate is the
///     NN edge, which always enters.  Sequential one-edge insertions keep
///     the intermediate trees exact, so the final tree is MST(alive).
///
/// Every guard (batch size, candidate cap, walk budget, fragment
/// disconnection) is a pure function of the event sequence — deterministic
/// and thread-count independent; on any guard the state invalidates and
/// the caller escalates (pool Kruskal reseeds via `seed`).  All buffers
/// recycle: a warm steady-state `apply_batch` performs zero heap
/// allocations.
class LocalMstRepair {
 public:
  explicit LocalMstRepair(LocalRepairConfig cfg = {}) : cfg_(cfg) {}

  /// Seed from a compact-space exact EMST whose edge list is already in
  /// canonical (d2, min, max) order (a `kruskal_emst` output).  `orig_of`
  /// maps compact ids to original ids; `positions` / `alive` are
  /// original-space and must match the tree.
  void seed(const Tree& emst, std::span<const int> orig_of,
            std::span<const geom::Point> positions,
            std::span<const char> alive);

  void invalidate() { valid_ = false; }
  bool valid() const { return valid_; }

  /// Apply one batch: `removed` = original ids leaving the tree (fails and
  /// moved nodes, any order), `inserted` = original ids (re)entering at
  /// their current position (moves and recoveries, ascending), `pool` the
  /// maintained Delaunay-superset candidate edges (read per node through
  /// `for_each_neighbour`, never compacted wholesale).  Returns nullptr on
  /// success or a static reason string ("mst-region", "mst-walk-budget",
  /// "mst-candidates", "mst-disconnected", "mst-count") — the state is
  /// invalidated on failure and the caller must escalate and reseed.
  const char* apply_batch(std::span<const geom::Point> positions,
                          std::span<const char> alive, int alive_count,
                          std::span<const int> removed,
                          std::span<const int> inserted,
                          DelaunayEdgePool& pool);

  /// Emit the maintained tree in compact space, byte-identical to
  /// `kruskal_emst` over any candidate superset (edge pairs and order).
  /// O(n log n): gathers the adjacency and sorts it — the fallback paths
  /// that need a whole tree pay it, a warm batch never does.
  void export_tree(std::span<const int> comp_of,
                   std::span<const geom::Point> compact_pts, Tree& out);

  /// Longest edge of the maintained tree (geom::dist, exactly the value
  /// `Tree::lmax()` reads off an exported tree) — O(1).
  double lmax() const { return len_max_.max(); }
  /// Tree degree per original id (0 off the tree).
  std::span<const std::uint8_t> degrees() const { return tdeg_; }

  /// Nodes touched by the last successful `apply_batch` — removed +
  /// inserted + fragment seeds + the nodes of every fragment but the
  /// largest + two per reconnecting or swapped edge + insertion candidates:
  /// the affected-region telemetry.
  int last_region() const { return last_region_; }

  /// Net tree-edge delta of the last successful `apply_batch` in original
  /// ids (u < v): edges of the previous tree no longer present / edges of
  /// the new tree that were not in the previous one.  Pairs that toggled
  /// within the batch and ended where they started cancel out.  This is the
  /// exact structural diff the warm orienter re-hangs from.
  std::span<const std::pair<int, int>> last_removed() const {
    return net_removed_;
  }
  std::span<const std::pair<int, int>> last_added() const {
    return net_added_;
  }

  const LocalRepairConfig& config() const { return cfg_; }

 private:
  struct LEdge {
    double d2;
    int u, v;  ///< original ids, u < v
    bool operator<(const LEdge& o) const {
      if (d2 != o.d2) return d2 < o.d2;
      if (u != o.u) return u < o.u;
      return v < o.v;
    }
  };

  // Dynamic uniform grid over alive original-space positions (cells keep
  // membership under O(1) insert/erase; within-cell order is historical and
  // never observable: queries reduce by exact (d2, id) keys only).
  void grid_build(std::span<const geom::Point> positions,
                  std::span<const char> alive);
  void grid_insert(int u, const geom::Point& p);
  void grid_erase(int u);
  int cell_index(const geom::Point& p) const;

  /// Tree-edge changes keep the adjacency and the Euler-tour forest in
  /// step (a cut always precedes the link that replaces it).
  void adj_remove(int u, int v);
  void adj_add(int u, int v);
  /// Drop v from u's list only; returns the edge's Euler-tour handle.
  int adj_strip(int u, int v);
  const char* delete_phase(std::span<const geom::Point> positions,
                           std::span<const int> removed,
                           DelaunayEdgePool& pool);
  const char* insert_phase(std::span<const geom::Point> positions,
                           std::span<const char> alive, int alive_count,
                           std::span<const int> inserted);
  const char* insert_vertex(std::span<const geom::Point> positions, int v,
                            int* walk_budget);
  /// Record an adjacency change of this batch (chronological).
  void log_op(int u, int v, bool add) {
    ops_.push_back({std::min(u, v), std::max(u, v),
                    static_cast<int>(ops_.size()), add});
  }
  /// Re-read u's incident edge maxima into the two MaxTrees.
  void refresh_maxima(std::span<const geom::Point> positions, int u);
  void finish_batch(std::span<const geom::Point> positions, int alive_count,
                    const char** fail);

  LocalRepairConfig cfg_;
  bool valid_ = false;
  int n_orig_ = 0;
  double lmax2_ub_ = 0.0;  ///< ≥ true lmax² of the current tree
  int edge_count_ = 0;     ///< edges of the maintained tree
  int tree_nodes_ = 0;     ///< nodes with in_tree_ set

  /// Per-node maxima over incident tree edges: squared length (the exact
  /// lmax² that bounds the insertion disks) and geom::dist (lmax itself).
  MaxTree d2_max_, len_max_;
  struct Op {
    int u, v;  ///< u < v
    int seq;   ///< chronological index within the batch
    bool add;
    bool operator<(const Op& o) const {
      if (u != o.u) return u < o.u;
      if (v != o.v) return v < o.v;
      return seq < o.seq;
    }
  };
  std::vector<Op> ops_;  ///< this batch's adjacency changes
  std::vector<int> touched_;  ///< endpoints of ops_, sorted unique
  std::vector<LEdge> export_;  ///< export_tree sort buffer
  static constexpr int kAdjCap = 8;  ///< EMST degree ≤ 6
  std::vector<int> tadj_;     ///< flat [n_orig * kAdjCap] neighbour lists
  std::vector<int> tarc_;     ///< Euler-tour edge handle per tadj_ slot
  std::vector<std::uint8_t> tdeg_;
  std::vector<char> in_tree_;
  EulerTourForest ett_;       ///< the maintained tree, as Euler tours

  // Grid.
  double cell_ = 1.0, min_x_ = 0.0, min_y_ = 0.0;
  int nx_ = 1, ny_ = 1;
  std::vector<std::vector<int>> cells_;
  std::vector<int> cell_of_;  ///< -1 = not in grid

  // Batch scratch (epoch-stamped to avoid O(n) clears).
  int epoch_ = 0;       ///< delete-phase stamps (rm / pend / label)
  int path_epoch_ = 0;  ///< parent-BFS and per-candidate walk stamps
  std::vector<int> rm_stamp_, label_stamp_, path_stamp_, pend_stamp_;
  std::vector<int> label_;     ///< fragment index of a walked node (stamped)
  std::vector<int> uf_;        ///< union-find over fragment indices
  std::vector<int> seeds_;
  std::vector<std::pair<int, int>> frags_;  ///< (tree id, first seed)
  std::vector<std::pair<int, int>> cand_;  ///< crossing pool edges
  std::vector<std::pair<int, int>> net_removed_, net_added_;  ///< batch delta
  struct Best {
    double d2;
    int u, v;
  };
  std::vector<Best> best_;
  std::vector<std::pair<double, int>> disk_;  ///< (d2, id) insert candidates
  std::vector<int> vchain_, wchain_;          ///< path walk records
  std::vector<int> path_pos_;   ///< chain index at mark time (stamped)
  std::vector<char> path_side_;  ///< 0 = v-side, 1 = w-side (stamped)
  std::vector<int> parent_;
  std::vector<double> ped2_;  ///< d2 of (u, parent_[u])
  std::vector<int> bfs_;
  int last_region_ = 0;
};

}  // namespace dirant::mst
