#pragma once
/// \file resilient.hpp
/// Strong 2-connectivity — the paper's open problem (§5: "ensuring that for
/// a given integer c the resulting network is strongly c-connected").
///
/// Construction: with two zero-spread antennae per sensor, orient along a
/// bottleneck Hamiltonian cycle in BOTH directions.  Deleting any single
/// sensor leaves a bidirected path, which is strongly connected; the range
/// is the cycle bottleneck (~ the [14] baseline's).  This settles c = 2
/// with k = 2 at no extra range over the paper's own spread-0 row.

#include <span>

#include "core/types.hpp"
#include "mst/tree.hpp"

namespace dirant::core {

/// k = 2, spread 0, strongly 2-connected (n >= 4).  `bound_factor` reports
/// measured bottleneck / lmax, as in the BTSP row.
Result orient_bidirectional_cycle(std::span<const geom::Point> pts,
                                  const mst::Tree& tree);

}  // namespace dirant::core
