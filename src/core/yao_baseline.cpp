#include "core/yao_baseline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/constants.hpp"
#include "geometry/angle.hpp"
#include "mst/engine.hpp"
#include "spatial/grid_index.hpp"

namespace dirant::core {

using geom::Point;

Result orient_yao(std::span<const Point> pts, int k, double phase,
                  double precomputed_lmax) {
  DIRANT_ASSERT(k >= 1 && k <= 64);
  const int n = static_cast<int>(pts.size());
  // A comparison planner, not a steady-state pipeline stage: the grid
  // index and cone scratch below are built per call.
  Result res;
  reset_result(res, n, k, Algorithm::kYaoBaseline,
               std::numeric_limits<double>::infinity(),
               precomputed_lmax >= 0.0
                   ? precomputed_lmax
                   : mst::EmstEngine::shared().lmax(pts));
  if (n < 2) {
    res.cases.bump("yao-k" + std::to_string(k));
    return res;
  }

  // Cone-nearest via grid sector queries instead of the all-pairs scan:
  // ~sqrt(n) cells per axis keeps expected occupancy constant, and the
  // cone-aware reach bound stops empty outward cones early.
  double min_x = pts[0].x, max_x = pts[0].x;
  double min_y = pts[0].y, max_y = pts[0].y;
  for (const auto& p : pts) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  const double extent = std::max(max_x - min_x, max_y - min_y);
  const double cell =
      std::max(extent / std::max(1.0, std::sqrt(static_cast<double>(n))),
               1e-12);
  const spatial::GridIndex grid(pts, cell);
  std::vector<int> nearest;
  spatial::GridIndex::ConeScratch scratch;
  for (int u = 0; u < n; ++u) {
    grid.cone_nearest(pts[u], k, phase, u, nearest, scratch);
    for (int c = 0; c < k; ++c) {
      if (nearest[c] >= 0) {
        res.orientation.add(u, geom::beam_to(pts[u], pts[nearest[c]]));
      }
    }
  }
  res.measured_radius = res.orientation.max_radius();
  res.cases.bump("yao-k" + std::to_string(k));
  return res;
}

}  // namespace dirant::core
