#include "geometry/exact.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace dirant::geom {
namespace {

// --- expansion arithmetic (Shewchuk) ------------------------------------
// An expansion is a sum of doubles with non-overlapping mantissas stored in
// increasing magnitude order; its sign is the sign of its largest component.

// |a| >= |b| is NOT required: two_sum is the branch-free exact sum.
inline void two_sum(double a, double b, double& x, double& y) {
  x = a + b;
  const double bv = x - a;
  const double av = x - bv;
  y = (a - av) + (b - bv);
}

// Exact product via fused multiply-add: a*b = x + y.
inline void two_product(double a, double b, double& x, double& y) {
  x = a * b;
  y = std::fma(a, b, -x);
}

// e (expansion) + b (double) -> h (expansion).  Grows by one component.
void grow_expansion(std::vector<double>& e, double b) {
  double q = b;
  for (double& ei : e) {
    double sum, err;
    two_sum(q, ei, sum, err);
    ei = err;
    q = sum;
  }
  e.push_back(q);
}

int expansion_sign(const std::vector<double>& e) {
  for (auto it = e.rbegin(); it != e.rend(); ++it) {
    if (*it > 0.0) return +1;
    if (*it < 0.0) return -1;
  }
  return 0;
}

}  // namespace

namespace detail {

int orient2d_exact(const Point& a, const Point& b, const Point& c) {
  // det = ax*by - ax*cy - ay*bx + ay*cx + bx*cy - by*cx, computed exactly.
  const double terms[6][2] = {{a.x, b.y}, {-a.x, c.y}, {-a.y, b.x},
                              {a.y, c.x}, {b.x, c.y},  {-b.y, c.x}};
  std::vector<double> e;
  e.reserve(12);
  for (const auto& t : terms) {
    double hi, lo;
    two_product(t[0], t[1], hi, lo);
    grow_expansion(e, lo);
    grow_expansion(e, hi);
  }
  return expansion_sign(e);
}

int incircle_exact(const Point& pa, const Point& pb, const Point& pc,
                   const Point& pd) {
  // float128 stage on raw coordinates: subtraction of doubles and the
  // subsequent degree-4 products are exact at 113-bit precision for the
  // coordinate ranges this library generates.
  using f128 = __float128;
  const f128 Adx = (f128)pa.x - (f128)pd.x, Ady = (f128)pa.y - (f128)pd.y;
  const f128 Bdx = (f128)pb.x - (f128)pd.x, Bdy = (f128)pb.y - (f128)pd.y;
  const f128 Cdx = (f128)pc.x - (f128)pd.x, Cdy = (f128)pc.y - (f128)pd.y;
  const f128 Alift = Adx * Adx + Ady * Ady;
  const f128 Blift = Bdx * Bdx + Bdy * Bdy;
  const f128 Clift = Cdx * Cdx + Cdy * Cdy;
  const f128 Det = Alift * (Bdx * Cdy - Cdx * Bdy) +
                   Blift * (Cdx * Ady - Adx * Cdy) +
                   Clift * (Adx * Bdy - Bdx * Ady);
  const f128 AbsDet = Det >= 0 ? Det : -Det;
  const f128 Perm =
      (Bdx * Cdy >= 0 ? Bdx * Cdy : -(Bdx * Cdy)) * Alift +
      (Cdx * Bdy >= 0 ? Cdx * Bdy : -(Cdx * Bdy)) * Alift +
      (Cdx * Ady >= 0 ? Cdx * Ady : -(Cdx * Ady)) * Blift +
      (Adx * Cdy >= 0 ? Adx * Cdy : -(Adx * Cdy)) * Blift +
      (Adx * Bdy >= 0 ? Adx * Bdy : -(Adx * Bdy)) * Clift +
      (Bdx * Ady >= 0 ? Bdx * Ady : -(Bdx * Ady)) * Clift;
  // float128 epsilon = 2^-113.
  const f128 Err = Perm * (f128)1.9259299443872359e-34 * 16;
  if (AbsDet > Err) return Det > 0 ? +1 : -1;
  return 0;  // cocircular at 113-bit precision: treat as degenerate.
}

}  // namespace detail

bool point_in_triangle(const Point& p, const Point& a, const Point& b,
                       const Point& c) {
  int o = orient2d_sign(a, b, c);
  if (o == 0) {
    // Degenerate triangle: containment means "on the segment spanned".
    // Check p collinear and within the bounding box.
    if (orient2d_sign(a, b, p) != 0 && orient2d_sign(a, c, p) != 0) {
      return false;
    }
    const double minx = std::min({a.x, b.x, c.x}), maxx = std::max({a.x, b.x, c.x});
    const double miny = std::min({a.y, b.y, c.y}), maxy = std::max({a.y, b.y, c.y});
    return orient2d_sign(a, b, p) == 0 && p.x >= minx && p.x <= maxx &&
           p.y >= miny && p.y <= maxy;
  }
  const Point& u = (o > 0) ? a : a;
  const Point& v = (o > 0) ? b : c;
  const Point& w = (o > 0) ? c : b;
  return orient2d_sign(u, v, p) >= 0 && orient2d_sign(v, w, p) >= 0 &&
         orient2d_sign(w, u, p) >= 0;
}

bool triangle_empty(const Point& a, const Point& b, const Point& c,
                    const Point* pts, int n, int ia, int ib, int ic) {
  for (int i = 0; i < n; ++i) {
    if (i == ia || i == ib || i == ic) continue;
    if (point_in_triangle(pts[i], a, b, c)) return false;
  }
  return true;
}

}  // namespace dirant::geom
