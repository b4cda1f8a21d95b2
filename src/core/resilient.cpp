#include "core/resilient.hpp"

#include <limits>

#include "btsp/btsp.hpp"
#include "common/assert.hpp"

namespace dirant::core {

using geom::Point;

Result orient_bidirectional_cycle(std::span<const Point> pts,
                                  const mst::Tree& tree) {
  const int n = static_cast<int>(pts.size());
  DIRANT_ASSERT_MSG(n >= 4, "2-connectivity needs at least 4 sensors");
  Result res;
  reset_result(res, n, /*reserve_per_node=*/2, Algorithm::kBidirCycle,
               std::numeric_limits<double>::infinity(), tree.lmax());

  const auto cyc = btsp::bottleneck_cycle(pts);
  for (int i = 0; i < n; ++i) {
    const int prev = cyc.order[(i + n - 1) % n];
    const int cur = cyc.order[i];
    const int next = cyc.order[(i + 1) % n];
    res.orientation.add(cur, geom::beam_to(pts[cur], pts[next]));
    res.orientation.add(cur, geom::beam_to(pts[cur], pts[prev]));
  }
  res.measured_radius = res.orientation.max_radius();
  res.bound_factor = res.lmax > 0.0 ? res.measured_radius / res.lmax : 0.0;
  res.cases.bump(cyc.proven_optimal ? "btsp-optimal" : "btsp-heuristic");
  return res;
}

}  // namespace dirant::core
