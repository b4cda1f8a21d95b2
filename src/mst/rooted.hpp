#pragma once
/// \file rooted.hpp
/// Rooted view of a spanning tree.  The paper's inductions (Theorems 3, 5, 6)
/// run over a tree rooted at a degree-one vertex, with children processed in
/// counterclockwise order around each node.
///
/// The view is flat and BFS-numbered: `order` lists the vertices root first,
/// and every vertex's children occupy one contiguous block of it, so a
/// top-down sweep over positions 1..n-1 streams through memory and finds
/// each node's parent plan already written.

#include <span>
#include <vector>

#include "geometry/point.hpp"
#include "mst/tree.hpp"

namespace dirant::mst {

struct RootedTree {
  int root = 0;
  std::vector<int> parent;       ///< by vertex id; -1 at the root
  std::vector<int> order;        ///< BFS order, root first (positions)
  std::vector<int> pos_of;       ///< inverse of `order`
  /// Children of the vertex at position i occupy positions
  /// [first_child[i], first_child[i + 1]) of `order` (size n + 1).
  std::vector<int> first_child;

  /// Root `t` at `root`.  Each child block keeps the tree's edge order with
  /// the parent skipped.  Buffers keep their capacity across calls, so warm
  /// same-size rebuilds never allocate.
  void rebuild(const Tree& t, int root);
  /// Root `t` at its first leaf (the paper's choice, §1.2).
  void rebuild_at_leaf(const Tree& t);

  /// Children of vertex `u`, in edge order.
  std::span<const int> children(int u) const {
    const int p = pos_of[u];
    return {order.data() + first_child[p],
            static_cast<size_t>(first_child[p + 1] - first_child[p])};
  }

 private:
  void build_adjacency(const Tree& t);
  void bfs(int n, int root);

  std::vector<int> adj_off_, adj_;  // counting-sort CSR adjacency scratch
};

/// Sort `kids` (neighbours of vertex `u`) by ccw angle measured from the
/// reference direction `ref_theta` (exclusive sweep: the child with the
/// smallest positive ccw offset from `ref_theta` comes first, a child
/// exactly on the ray goes last).  This is exactly the paper's "u(1) is the
/// first neighbour of u when rotating the ray u->p".  The sort is stable,
/// takes one atan2 per child, and writes the sorted ids to `out`, each
/// one's absolute angle `angle_to(pts[u], pts[kid])` to `angle` and its
/// offset from `ref_theta` to `off`; each buffer holds kids.size() slots.
void sort_ccw(std::span<const geom::Point> pts, int u, double ref_theta,
              std::span<const int> kids, int* out, double* angle,
              double* off);

}  // namespace dirant::mst
