#pragma once
/// \file degree5.hpp
/// Degree-bounded EMST repair.  The paper assumes "an MST of maximum degree 5
/// can be shown to exist" (§2); a floating-point Prim/Kruskal tree can carry
/// degree-6 vertices on degenerate inputs (triangular lattices: six equal
/// edges at exactly 60°).  `enforce_max_degree` performs the classical swap:
/// at an over-degree vertex, two incident edges (u,v), (u,w) span <= 60°+eps,
/// so |vw| <= max(|uv|, |uw|); replacing the longer incident edge with (v,w)
/// keeps a spanning tree of no greater weight and reduces deg(u).

#include <span>
#include <utility>
#include <vector>

#include "geometry/point.hpp"
#include "mst/tree.hpp"

namespace dirant::mst {

/// Working memory for the repair pass: the degree vector and the
/// over-degree worklist, plus — only when some vertex exceeds the bound —
/// a flat adjacency of (neighbour, edge-index) pairs with per-vertex slack
/// for the swaps.  Buffers keep their capacity across calls.
struct DegreeRepairScratch {
  std::vector<int> deg;  ///< per-vertex degree (the row length when repairing)
  std::vector<int> work;  ///< over-degree vertices awaiting a swap
  // The rest is touched only when some vertex exceeds the bound.
  std::vector<int> row_start;  ///< flat adjacency row starts (n + 1)
  std::vector<std::pair<int, int>> adj;  ///< (neighbour, edge index) slots
  std::vector<char> queued;
  std::vector<std::pair<int, int>> inc;  ///< sorted copy of one vertex's row
};

/// Returns a spanning tree with max degree <= max_degree (>= 2 required;
/// the paper needs 5).  Weight never increases; `lmax` never increases.
/// Throws contract_violation if the bound cannot be met within the iteration
/// cap (cannot happen for max_degree >= 5 on EMST input).
Tree enforce_max_degree(std::span<const geom::Point> pts, Tree t,
                        int max_degree = 5);

/// In-place, scratch-reusing variant (the PlanSession pipeline path).
void enforce_max_degree(std::span<const geom::Point> pts, Tree& t,
                        int max_degree, DegreeRepairScratch& scratch);

/// Convenience: degree-5 EMST of `pts` (the tree the paper's algorithms use).
Tree degree5_emst(std::span<const geom::Point> pts);

}  // namespace dirant::mst
