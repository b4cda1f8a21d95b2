#pragma once
/// \file tree.hpp
/// Spanning-tree representation shared by the MST builders, the degree
/// repair pass, and the orientation algorithms.

#include <span>
#include <vector>

#include "geometry/point.hpp"
#include "graph/digraph.hpp"

namespace dirant::mst {

struct TreeEdge {
  int u = -1;
  int v = -1;
  double length = 0.0;
};

/// An undirected spanning tree over `n` vertices (edge count n-1; n >= 1).
struct Tree {
  int n = 0;
  std::vector<TreeEdge> edges;

  /// Neighbour lists (size n).  O(n) to build.
  std::vector<std::vector<int>> adjacency() const;

  /// Scratch-reusing variant: recycles `adj` and its per-vertex lists
  /// (reserving a degree-bound's worth of slots each, so warm same-size
  /// rebuilds never allocate).
  void adjacency_into(std::vector<std::vector<int>>& adj) const;

  /// Scratch-reusing degree count.
  void degrees_into(std::vector<int>& deg) const;

  double total_weight() const;

  /// Longest edge — the paper's `lmax`, the universal range lower bound.
  double lmax() const;

  int max_degree() const;

  /// Degree of each vertex.
  std::vector<int> degrees() const;

  /// Structural validation: n-1 edges, indices in range, acyclic, connected,
  /// and edge lengths match the point coordinates.  Throws on violation.
  void validate(std::span<const geom::Point> pts) const;
};

}  // namespace dirant::mst
