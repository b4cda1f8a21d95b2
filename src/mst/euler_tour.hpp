#pragma once
/// \file euler_tour.hpp
/// Euler-tour forest: connectivity and exact tree sizes of a dynamic forest
/// under edge link and cut, O(log n) expected per operation — the bottom
/// level of Henzinger–King / Holm–de Lichtenberg–Thorup dynamic
/// connectivity.
///
/// Each tree is stored as its Euler tour: a cyclic sequence with one
/// element per vertex and one per directed arc of every tree edge (edge e
/// owns the arcs n + 2e and n + 2e + 1).  The sequence lives in a treap
/// keyed implicitly by position; a node's priority is a fixed bijective
/// hash of its element id, so the treap's shape is a pure function of the
/// sequence — deterministic, with no generator state.  `link` rotates both
/// tours to start at the joining vertices and concatenates them with the
/// edge's two arcs; `cut` splits the tour at the two arcs and splices the
/// outer pieces back together, leaving the inner piece as the other tree.
/// Every treap node carries its subtree's element and vertex counts, so a
/// tree's size is read at its treap root.
///
/// Storage is flat and sized by `reset`: n vertex elements, 2(n − 1) arc
/// elements (a forest on n vertices has at most n − 1 edges) and a free
/// list of edge handles.  Link and cut allocate nothing.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"

namespace dirant::mst {

class EulerTourForest {
 public:
  /// n isolated vertices, no edges.
  void reset(int n);

  /// Rebuild as the forest whose adjacency `nbrs(u)` lists (a span of
  /// neighbour ids; every edge appears at both endpoints), in O(n).
  /// `on_edge(u, v, e)` receives the handle `e` of each tree edge, u being
  /// the endpoint the depth-first walk reached first.  The input must be a
  /// forest.
  template <typename Nbrs, typename OnEdge>
  void build(int n, Nbrs&& nbrs, OnEdge&& on_edge) {
    reset(n);
    for (int s = 0; s < n; ++s) {
      // A vertex already placed in a tour has a treap neighbour.
      const Node& ns = t_[s];
      if (ns.p >= 0 || ns.l >= 0 || ns.r >= 0 || nbrs(s).empty()) continue;
      seq_.clear();
      seq_.push_back(s);
      frames_.clear();
      frames_.push_back({s, -1, -1, 0});
      while (!frames_.empty()) {
        const Frame f = frames_.back();
        const std::span<const int> nb = nbrs(f.u);
        if (f.next < static_cast<int>(nb.size())) {
          ++frames_.back().next;
          const int v = nb[f.next];
          if (v == f.parent) continue;  // a forest's only seen neighbour
          DIRANT_ASSERT_MSG(!free_.empty(), "Euler-tour build: not a forest");
          const int e = free_.back();
          free_.pop_back();
          on_edge(f.u, v, e);
          seq_.push_back(n_ + 2 * e);
          seq_.push_back(v);
          frames_.push_back({v, f.u, e, 0});
        } else {
          if (f.edge >= 0) seq_.push_back(n_ + 2 * f.edge + 1);
          frames_.pop_back();
        }
      }
      assemble();
    }
  }

  /// Join the trees of u and v (they must differ) by edge {u, v}; returns
  /// the edge's handle.
  int link(int u, int v);
  /// Remove the edge with handle `e` (from `link` or `build`).
  void cut(int e);

  /// Identifier of u's tree: two vertices share it iff they are connected.
  /// Valid until the next link or cut.
  int tree_id(int u) const { return root(u); }
  /// Number of vertices in u's tree.
  int tree_size(int u) const { return t_[root(u)].vcnt; }
  bool connected(int u, int v) const { return root(u) == root(v); }

 private:
  struct Frame {
    int u, parent, edge, next;
  };
  /// One treap node per element, kept together so a touch is one cache
  /// line: children, parent, and the subtree's element and vertex counts.
  struct Node {
    int l, r, p, cnt, vcnt;
  };

  /// Max-heap priority: a bijection on 32 bits, so no two elements tie.
  static std::uint32_t prio(int x) {
    std::uint32_t h = static_cast<std::uint32_t>(x) * 0x9E3779B1u;
    h ^= h >> 16;
    h *= 0x85EBCA6Bu;
    h ^= h >> 13;
    return h;
  }
  int cnt(int t) const { return t < 0 ? 0 : t_[t].cnt; }
  void pull(int t) {
    Node& x = t_[t];
    x.cnt = 1;
    x.vcnt = t < n_ ? 1 : 0;
    for (const int c : {x.l, x.r}) {
      if (c < 0) continue;
      x.cnt += t_[c].cnt;
      x.vcnt += t_[c].vcnt;
    }
  }
  void make_single(int t) { t_[t] = {-1, -1, -1, 1, t < n_ ? 1 : 0}; }
  int root(int x) const {
    while (t_[x].p >= 0) x = t_[x].p;
    return x;
  }
  /// Position of x in its tour.
  int rank(int x) const;
  /// Concatenate two tours; returns the new treap root (parent cleared).
  int merge(int a, int b);
  int merge_rec(int a, int b);
  /// First k elements of t into a, the rest into b (roots' parents cleared).
  void split(int t, int k, int& a, int& b);
  void split_rec(int t, int k, int& a, int& b);
  /// Rotate u's tour to start at u; returns its treap root.
  int reroot(int u);
  /// Treap over `seq_` in O(|seq_|) (stack-built Cartesian tree).
  void assemble();

  int n_ = 0;
  std::vector<Node> t_;                      ///< per element
  std::vector<int> free_;                    ///< unused edge handles
  std::vector<int> seq_, stack_;             ///< build scratch
  std::vector<Frame> frames_;                ///< build DFS stack
};

}  // namespace dirant::mst
