#pragma once
/// \file sector.hpp
/// The antenna beam model of the paper: a circular sector with a start
/// direction, a ccw angular width ("spread") and a radius ("range"), held
/// by a sensor whose position is its apex.  A zero-width sector is a ray
/// ("beam") — the paper's "antenna of angle 0".  The apex is not stored:
/// every sector lives in its sensor's row of an antenna::Orientation, and
/// the row's owner supplies the position wherever one is needed.

#include "geometry/angle.hpp"
#include "geometry/point.hpp"

namespace dirant::geom {

/// A circular sector.  Seen from its apex, it covers every point p with
/// dist(apex, p) <= radius and polar angle inside the ccw interval
/// [start, start + width].  The apex itself is not considered covered.
struct Sector {
  double start = 0.0;   ///< direction of the ccw boundary ray, [0, 2*pi)
  double width = 0.0;   ///< spread in radians, [0, 2*pi]
  double radius = 0.0;  ///< range, same units as the point coordinates

  /// Containment test for the sector held at `apex`, with angular
  /// tolerance `angle_tol` (radians) and multiplicative+additive radius
  /// tolerance.
  bool contains(const Point& apex, const Point& p,
                double angle_tol = kAngleTol,
                double radius_tol = kRadiusAbsTol) const;

  /// Direction of the cw boundary ray (start + width, normalized).
  double end() const { return norm_angle(start + width); }

  /// Direction of the bisector.
  double center() const { return norm_angle(start + width / 2.0); }
};

/// Zero-spread beam from `apex` aimed exactly at `target`; radius defaults to
/// the distance (pass `radius` to extend).
Sector beam_to(const Point& apex, const Point& target, double radius = -1.0);

/// Sector spanning the ccw interval from direction `start_theta` over
/// `width` radians, with the given radius.
Sector make_arc(double start_theta, double width, double radius);

}  // namespace dirant::geom
