#pragma once
/// \file exact.hpp
/// Sign-exact geometric predicates.
///
/// Combinatorial structures (MST ties, Delaunay, hulls) must not flip on
/// rounding noise.  `orient2d_sign` is fully exact: a floating-point filter
/// (Shewchuk's error bound) falls back to exact expansion arithmetic built on
/// `std::fma`.  `incircle_sign` uses a double filter, then a `__float128`
/// evaluation with its own error bound; inputs that remain undecidable at
/// 113-bit precision are reported as degenerate (0), which callers treat as
/// "cocircular".  For the coordinate magnitudes produced by this library's
/// generators (|x| < 2^26 after scaling) the float128 stage is itself exact.
///
/// The double filters are inline here: the triangulator runs about 25 of
/// them per inserted point and nearly all of them decide, so the call would
/// cost more than the filter.  The exact stages behind them stay out of line.

#include <cmath>

#include "geometry/point.hpp"

namespace dirant::geom {

namespace detail {

// Error-bound constant for the orient2d filter (Shewchuk).
inline constexpr double kCcwErrBound =
    (3.0 + 16.0 * 2.220446049250313e-16) * 2.220446049250313e-16;

/// Exact expansion-arithmetic orient2d; what the filter falls back to.
int orient2d_exact(const Point& a, const Point& b, const Point& c);

/// The `__float128` incircle stage; what the double filter falls back to.
int incircle_exact(const Point& pa, const Point& pb, const Point& pc,
                   const Point& pd);

}  // namespace detail

/// Sign of the signed area of triangle (a, b, c):
/// +1 if counterclockwise, -1 if clockwise, 0 if collinear.  Exact.
inline int orient2d_sign(const Point& a, const Point& b, const Point& c) {
  const double detleft = (a.x - c.x) * (b.y - c.y);
  const double detright = (a.y - c.y) * (b.x - c.x);
  const double det = detleft - detright;

  double detsum;
  if (detleft > 0.0) {
    if (detright <= 0.0) return det > 0.0 ? +1 : (det < 0.0 ? -1 : 0);
    detsum = detleft + detright;
  } else if (detleft < 0.0) {
    if (detright >= 0.0) return det > 0.0 ? +1 : (det < 0.0 ? -1 : 0);
    detsum = -detleft - detright;
  } else {
    return det > 0.0 ? +1 : (det < 0.0 ? -1 : 0);
  }
  if (std::abs(det) >= detail::kCcwErrBound * detsum) {
    return det > 0.0 ? +1 : -1;
  }
  return detail::orient2d_exact(a, b, c);
}

/// Twice the signed area of triangle (a, b, c) in double precision (not
/// exact; use for magnitudes, not decisions).
double orient2d_value(const Point& a, const Point& b, const Point& c);

/// Sign of the incircle determinant: +1 if `d` lies strictly inside the
/// circumcircle of the counterclockwise triangle (a, b, c), -1 if strictly
/// outside, 0 if (numerically) cocircular.
inline int incircle_sign(const Point& pa, const Point& pb, const Point& pc,
                         const Point& pd) {
  const double adx = pa.x - pd.x, ady = pa.y - pd.y;
  const double bdx = pb.x - pd.x, bdy = pb.y - pd.y;
  const double cdx = pc.x - pd.x, cdy = pc.y - pd.y;

  const double bdxcdy = bdx * cdy, cdxbdy = cdx * bdy;
  const double alift = adx * adx + ady * ady;
  const double cdxady = cdx * ady, adxcdy = adx * cdy;
  const double blift = bdx * bdx + bdy * bdy;
  const double adxbdy = adx * bdy, bdxady = bdx * ady;
  const double clift = cdx * cdx + cdy * cdy;

  const double det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) +
                     clift * (adxbdy - bdxady);

  const double permanent = (std::abs(bdxcdy) + std::abs(cdxbdy)) * alift +
                           (std::abs(cdxady) + std::abs(adxcdy)) * blift +
                           (std::abs(adxbdy) + std::abs(bdxady)) * clift;
  const double errbound =
      (10.0 + 96.0 * 2.220446049250313e-16) * 2.220446049250313e-16 *
      permanent;
  if (std::abs(det) > errbound) return det > 0.0 ? +1 : -1;
  return detail::incircle_exact(pa, pb, pc, pd);
}

/// True if `p` lies inside or on the boundary of triangle (a, b, c)
/// (any vertex order).  Exact.
bool point_in_triangle(const Point& p, const Point& a, const Point& b,
                       const Point& c);

/// True if the closed triangle (a, b, c) contains no point of `pts` other
/// than the triangle's own corners (by index).  O(n) scan; used to validate
/// the paper's Fact 1(3) ("the triangle uvw is empty").
bool triangle_empty(const Point& a, const Point& b, const Point& c,
                    const Point* pts, int n, int ia, int ib, int ic);

}  // namespace dirant::geom
