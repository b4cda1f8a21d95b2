#pragma once
/// \file heterogeneous.hpp
/// Mixed antenna fleets — a practical extension the paper's uniform-k model
/// does not cover: each sensor i carries its own k_i antennae and angular
/// budget phi_i.  Strategy: bidirect the degree-<=5 MST with per-node
/// Lemma 1 covers (range lmax) wherever the local budget allows
/// (phi_i >= 2*pi*(d_i - k_i)/d_i); report the nodes whose budget falls
/// short so deployments can be repaired (add antennas or budget there).

#include <span>
#include <vector>

#include "core/types.hpp"
#include "mst/tree.hpp"

namespace dirant::core {

struct NodeBudget {
  int k = 1;
  double phi = 0.0;
};

struct HeterogeneousResult {
  Result result;                  ///< orientation (only valid if feasible)
  bool feasible = false;          ///< every node satisfied its budget
  std::vector<int> deficient;     ///< nodes where phi_i < Lemma 1 demand
  /// Minimum extra spread needed at each deficient node (same order).
  std::vector<double> missing_spread;
};

/// Per-sensor budgets; `budgets.size() == pts.size()`.
HeterogeneousResult orient_heterogeneous(std::span<const geom::Point> pts,
                                         const mst::Tree& tree,
                                         std::span<const NodeBudget> budgets);

}  // namespace dirant::core
