#include "geometry/sector.hpp"

#include "common/assert.hpp"

namespace dirant::geom {

bool Sector::contains(const Point& apex, const Point& p, double angle_tol,
                      double radius_tol) const {
  const Vec2 d = p - apex;
  const double r2 = norm2(d);
  if (r2 == 0.0) return false;  // the apex itself
  const double limit = radius * (1.0 + kRadiusRelTol) + radius_tol;
  if (r2 > limit * limit) return false;
  return in_ccw_interval(angle_of(d), start, width, angle_tol);
}

Sector beam_to(const Point& apex, const Point& target, double radius) {
  DIRANT_ASSERT_MSG(!(apex == target), "beam at coincident point");
  Sector s;
  s.start = angle_to(apex, target);
  s.width = 0.0;
  s.radius = radius >= 0.0 ? radius : dist(apex, target);
  return s;
}

Sector make_arc(double start_theta, double width, double radius) {
  DIRANT_ASSERT(width >= 0.0 && width <= kTwoPi);
  DIRANT_ASSERT(radius >= 0.0);
  Sector s;
  s.start = norm_angle(start_theta);
  s.width = width;
  s.radius = radius;
  return s;
}

}  // namespace dirant::geom
