#pragma once
/// \file emst.hpp
/// Euclidean minimum spanning trees.  Two engines:
///   * Prim O(n^2): no preconditions, exact on ties, the reference engine.
///   * Kruskal restricted to Delaunay edges: O(n log n)-ish for large n
///     (the EMST is a subgraph of the Delaunay triangulation).
/// `emst()` picks automatically.  All engines return trees whose `lmax`
/// equals the minimum-bottleneck value (a property of every MST).
///
/// Each builder has a scratch-taking overload that recycles every working
/// buffer and the output tree's edge list; warm scratch makes repeated
/// builds of same-size instances allocation-free (core::PlanSession's
/// steady-state contract).

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/radix_sort.hpp"
#include "geometry/point.hpp"
#include "graph/union_find.hpp"
#include "mst/tree.hpp"

namespace dirant::mst {

/// Working memory for `prim_emst`.
struct PrimScratch {
  std::vector<double> best;
  std::vector<int> from;
  std::vector<char> in_tree;
};

/// Working memory for `kruskal_emst` (sort keys, the radix sort's buffers
/// and the union-find forest).
struct KruskalScratch {
  std::vector<std::uint64_t> order;
  RadixScratch radix;
  graph::UnionFind uf;
};

/// Prim's algorithm over the complete Euclidean graph.  O(n^2) time,
/// O(n) memory.  n >= 1.
Tree prim_emst(std::span<const geom::Point> pts);
void prim_emst(std::span<const geom::Point> pts, Tree& out,
               PrimScratch& scratch);

/// Kruskal over an explicit candidate edge set.  The candidate graph must be
/// connected.  Used with Delaunay edges for large instances, and with the
/// complete graph by tests as an independent oracle.
Tree kruskal_emst(std::span<const geom::Point> pts,
                  std::span<const std::pair<int, int>> candidates);
void kruskal_emst(std::span<const geom::Point> pts,
                  std::span<const std::pair<int, int>> candidates, Tree& out,
                  KruskalScratch& scratch);

/// Automatic engine selection: Prim below `delaunay_threshold` points,
/// Delaunay+Kruskal otherwise (degenerate/duplicate-heavy inputs fall back
/// to Prim).  Thin wrapper over mst::EmstEngine — new callers should use
/// the engine directly (mst/engine.hpp).
Tree emst(std::span<const geom::Point> pts, int delaunay_threshold = 64);

}  // namespace dirant::mst
