#pragma once
/// \file yao_baseline.hpp
/// Naive cone baseline (Yao-graph style): each sensor splits the plane into
/// k equal cones and beams at the nearest neighbour inside each non-empty
/// cone.  This is what a practitioner might try before reading the paper;
/// the benches compare it against the guaranteed constructions.  Known
/// behaviour: strongly connected for k >= 6 on generic inputs (Yao graph),
/// but with NO lmax-relative range guarantee — a cone can be empty nearby
/// yet force a long beam, and small k often disconnects.

#include <span>

#include "core/types.hpp"

namespace dirant::core {

/// Yao-style orientation with k cones per sensor (phase rotates cone 0's
/// boundary).  Never fails to produce an orientation; strong connectivity
/// is NOT guaranteed — certify it.  Cone-nearest neighbours come from grid
/// sector queries (sub-quadratic); exact coincident duplicates of a sensor
/// are skipped (no beam direction exists).
///
/// `precomputed_lmax`: callers that already built an EMST (the planner, the
/// comparison benches) pass its lmax here to skip a redundant EMST build;
/// negative means "compute it for me".
Result orient_yao(std::span<const geom::Point> pts, int k, double phase = 0.0,
                  double precomputed_lmax = -1.0);

}  // namespace dirant::core
