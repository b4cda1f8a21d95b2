#include "core/lemma1.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/constants.hpp"
#include "geometry/angle.hpp"

namespace dirant::core {

using geom::Point;
using geom::Sector;

double lemma1_sufficient_spread(int d, int k) {
  DIRANT_ASSERT(d >= 1 && k >= 1);
  if (k >= d) return 0.0;
  return kTwoPi * static_cast<double>(d - k) / static_cast<double>(d);
}

void lemma1_cover(const Point& apex, std::span<const Point> targets, int k,
                  Lemma1Scratch& scratch, std::vector<Sector>& out) {
  DIRANT_ASSERT(k >= 1);
  out.clear();
  if (targets.empty()) return;

  auto& rays = scratch.rays;
  rays.resize(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    rays[i] = geom::angle_to(apex, targets[i]);
  }
  geom::min_spread_cover(rays, k, scratch.cover, scratch.cover_scratch);
  const auto& cover = scratch.cover;
  if (out.capacity() < cover.arcs.size()) out.reserve(cover.arcs.size());
  for (const auto& [start, width] : cover.arcs) {
    double radius = 0.0;
    for (size_t i = 0; i < targets.size(); ++i) {
      if (geom::in_ccw_interval(rays[i], start, width)) {
        radius = std::max(radius, geom::dist(apex, targets[i]));
      }
    }
    out.push_back(geom::make_arc(start, width, radius));
  }
}

std::vector<Sector> lemma1_cover(const Point& apex,
                                 std::span<const Point> targets, int k) {
  std::vector<Sector> out;
  Lemma1Scratch scratch;
  lemma1_cover(apex, targets, k, scratch, out);
  return out;
}

}  // namespace dirant::core
