#include "antenna/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/constants.hpp"
#include "spatial/grid_index.hpp"

namespace dirant::antenna {

using geom::Point;

InterferenceStats interference_stats(std::span<const Point> pts,
                                     const Orientation& o) {
  InterferenceStats st;
  const int n = static_cast<int>(pts.size());
  if (n == 0 || o.max_radius() <= 0.0) return st;
  spatial::GridIndex grid(pts, std::max(o.max_radius() / 2.0, 1e-12));

  long long beam_hits = 0;
  long long beams = 0;
  long long omni_hits = 0;
  double spread_total = 0.0;
  double spread_positive_total = 0.0;
  long long spread_positive_count = 0;

  for (int u = 0; u < n; ++u) {
    double node_rmax = 0.0;
    for (const auto& s : o.antennas(u)) {
      node_rmax = std::max(node_rmax, s.radius);
      long long hits = 0;
      for (int v : grid.within(pts[u], s.radius + 1e-12, u)) {
        if (s.contains(pts[u], pts[v])) ++hits;
      }
      beam_hits += hits;
      ++beams;
      spread_total += s.width;
      if (s.width > 0.0) {
        spread_positive_total += s.width;
        ++spread_positive_count;
      }
      st.max_receivers_per_antenna =
          std::max(st.max_receivers_per_antenna, static_cast<double>(hits));
    }
    if (node_rmax > 0.0) {
      omni_hits +=
          static_cast<long long>(grid.within(pts[u], node_rmax, u).size());
    }
  }
  if (beams == 0) return st;
  st.mean_receivers_per_antenna = static_cast<double>(beam_hits) / beams;
  st.mean_receivers_omni = static_cast<double>(omni_hits) / n;
  st.interference_reduction =
      st.mean_receivers_per_antenna > 0.0
          ? st.mean_receivers_omni / st.mean_receivers_per_antenna
          : 0.0;
  st.mean_spread = spread_total / beams;
  const double alpha = spread_positive_count > 0
                           ? spread_positive_total / spread_positive_count
                           : 0.0;
  st.capacity_gain_model = alpha > 0.0 ? std::sqrt(kTwoPi / alpha) : 0.0;
  return st;
}

}  // namespace dirant::antenna
