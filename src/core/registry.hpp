#pragma once
/// \file registry.hpp
/// The algorithm registry — Table 1 as data.  The paper's table is rows of
/// (k, phi-interval, guaranteed range factor, construction), and the related
/// work keeps adding rows of the same shape (bounded-angle spanning trees,
/// Aschner–Katz 2014; fixed-angle strong connectivity, Damian–Flatland
/// 2010).  Everything the planner derives from the table — regime selection
/// (`planned_algorithm`), the guarantee table (`guaranteed_bound_factor`),
/// reporting (`to_string`) and dispatch (`orient_on_tree`) — reads the one
/// registry defined here, so they cannot drift apart and a new regime is one
/// new row plus one new descriptor.

#include <span>

#include "core/types.hpp"
#include "geometry/point.hpp"
#include "mst/tree.hpp"

namespace dirant::core {

class PlanSession;

/// A construction: orients `pts` over `tree` under `spec` into the
/// session-owned `out` (recycled buffers; see reset_result).
using OrientFn = void (*)(PlanSession&, std::span<const geom::Point>,
                          const mst::Tree&, const ProblemSpec&, Result&);

/// One selection row of Table 1: for sensors with `k` antennae, the regime
/// `algo` is chosen when phi >= phi_lo (with the planner's epsilon slack).
/// Rows of one k are ordered by descending phi_lo; the first match wins.
struct RegimeRow {
  int k;
  double phi_lo;
  Algorithm algo;
};

/// Descriptor of one Algorithm value: reporting name, a-priori guarantee
/// and the construction entry point.
struct AlgorithmInfo {
  Algorithm algo;
  const char* name;       ///< `to_string` source
  /// Guaranteed radius factor in lmax units (+inf where only measured /
  /// approximation guarantees exist).  Pure function of the spec.
  double (*bound_factor)(const ProblemSpec&);
  /// PlanSession dispatch; null for the extension planners, which no
  /// selection row names and which run through their own free functions.
  OrientFn orient;
};

/// The selection table (Table 1 rows; every row's algorithm has a
/// dispatch function).
std::span<const RegimeRow> selection_table();

/// All registered algorithms, indexed by the Algorithm enum value.
std::span<const AlgorithmInfo> algorithm_registry();

/// Descriptor lookup (O(1); `a` must be a registered value).
const AlgorithmInfo& algorithm_info(Algorithm a);

}  // namespace dirant::core
