#pragma once
/// \file point.hpp
/// 2-D points/vectors and the handful of vector operations the rest of the
/// library builds on.  Everything is `double`; combinatorial decisions that
/// must be exact go through geometry/exact.hpp instead of raw arithmetic.

#include <cmath>
#include <iosfwd>

namespace dirant::geom {

/// A 2-D vector.  Also used as a point (affine distinction is not worth the
/// ceremony at this scale); `Point` is provided as a readability alias.
struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  constexpr Vec2() = default;
  constexpr Vec2(double x_, double y_) : x(x_), y(y_) {}

  constexpr Vec2& operator+=(const Vec2& o) {
    x += o.x;
    y += o.y;
    return *this;
  }
  constexpr Vec2& operator-=(const Vec2& o) {
    x -= o.x;
    y -= o.y;
    return *this;
  }
  constexpr Vec2& operator*=(double s) {
    x *= s;
    y *= s;
    return *this;
  }
  constexpr Vec2& operator/=(double s) {
    x /= s;
    y /= s;
    return *this;
  }

  friend constexpr Vec2 operator+(Vec2 a, const Vec2& b) { return a += b; }
  friend constexpr Vec2 operator-(Vec2 a, const Vec2& b) { return a -= b; }
  friend constexpr Vec2 operator*(Vec2 a, double s) { return a *= s; }
  friend constexpr Vec2 operator*(double s, Vec2 a) { return a *= s; }
  friend constexpr Vec2 operator/(Vec2 a, double s) { return a /= s; }
  friend constexpr Vec2 operator-(const Vec2& a) { return {-a.x, -a.y}; }

  friend constexpr bool operator==(const Vec2& a, const Vec2& b) {
    return a.x == b.x && a.y == b.y;
  }
  friend constexpr bool operator!=(const Vec2& a, const Vec2& b) {
    return !(a == b);
  }
};

using Point = Vec2;

/// Dot product.
constexpr double dot(const Vec2& a, const Vec2& b) {
  return a.x * b.x + a.y * b.y;
}

/// 2-D cross product (z-component of the 3-D cross product).  Positive when
/// `b` lies counterclockwise of `a`.
constexpr double cross(const Vec2& a, const Vec2& b) {
  return a.x * b.y - a.y * b.x;
}

/// Squared Euclidean norm.
constexpr double norm2(const Vec2& v) { return dot(v, v); }

/// Euclidean norm.
inline double norm(const Vec2& v) { return std::hypot(v.x, v.y); }

/// Squared distance between two points.
constexpr double dist2(const Point& a, const Point& b) {
  return norm2(b - a);
}

/// Euclidean distance between two points.
inline double dist(const Point& a, const Point& b) { return norm(b - a); }

/// Unit vector at polar angle `theta`.
inline Vec2 unit(double theta) { return {std::cos(theta), std::sin(theta)}; }

/// Vector of length `r` at polar angle `theta`.
inline Vec2 from_polar(double r, double theta) { return r * unit(theta); }

/// Linear interpolation `a + t*(b-a)`.
constexpr Point lerp(const Point& a, const Point& b, double t) {
  return a + t * (b - a);
}

std::ostream& operator<<(std::ostream& os, const Vec2& v);

}  // namespace dirant::geom
