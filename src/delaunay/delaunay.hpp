#pragma once
/// \file delaunay.hpp
/// Delaunay triangulation (Bowyer–Watson with walking point location).
/// Primary consumer: the large-n EMST path (the EMST is a subgraph of the
/// Delaunay graph), as suggested by the reproduction plan ("CGAL aids
/// MST/spanner construction" — this module replaces CGAL).
///
/// Robustness: in-circle and orientation tests go through geometry/exact.hpp
/// (double filter, then float128).  A large finite super-triangle hosts the
/// construction; ties (cocircular points) resolve arbitrarily but
/// deterministically, by insertion order — the choice among cocircular
/// diagonals is not part of the contract, while the EMST drawn from the
/// edges is (every MST edge under the strict (d2, min, max) order is in
/// every Delaunay triangulation).  For adversarially degenerate inputs the
/// EMST driver cross-checks connectivity and falls back to Prim.

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/radix_sort.hpp"
#include "geometry/point.hpp"

namespace dirant::delaunay {

/// A triangulation result: triangles as index triples (ccw), plus the unique
/// undirected edge list.
struct Triangulation {
  std::vector<std::array<int, 3>> triangles;
  std::vector<std::pair<int, int>> edges;  ///< u < v, unique, unordered list
};

/// Reusable Bowyer–Watson builder.
///
/// Insertion order is a biased randomized insertion order (BRIO): a fixed
/// hash of each input index assigns it a round (about half the points land
/// in the last round, a quarter in the one before, ...), and each round is
/// swept along a Hilbert curve, so the walking point location starts next
/// to its target while the rounds keep the growing triangulation well
/// shaped.  The points are copied once, in that order, so every later access
/// is local; the output maps back to input ids.
///
/// The triangle soup holds no dead triangles: an insertion's fan (always two
/// triangles more than the cavity it replaces) overwrites the cavity's slots
/// and appends two, so n points make 2n + 1 slots, super-triangle ones
/// included.
///
/// All working memory (the renumbered points, the soup, cavity marks and
/// stacks, the per-vertex fan-linkage slots, the sort buffers) lives on the
/// object and keeps its capacity across calls, so a warm Triangulator
/// triangulating inputs of stable size allocates nothing — the property
/// core::PlanSession builds on.  The duplicate-merge fallback (exact
/// duplicate points in the input) is the one path that still allocates; it
/// only runs on degenerate inputs.
class Triangulator {
 public:
  /// Triangulate `pts` into `out`, recycling `out`'s vectors.  Semantics are
  /// identical to the free function `triangulate`.
  void triangulate(std::span<const geom::Point> pts, Triangulation& out);

  /// The same edge list (same edges, same order) without the triangles:
  /// the EMST candidate pass, which reads nothing else.
  void triangulate(std::span<const geom::Point> pts,
                   std::vector<std::pair<int, int>>& edges);

 private:
  struct Tri {
    std::array<int, 3> v;   // ccw vertices
    std::array<int, 3> nb;  // nb[i]: triangle across the edge opposite v[i]
  };
  struct BEdge {
    int a, b, outside;
  };

  // Build over the input points named by orig_ and reorder orig_ (and
  // pts_) into insertion order; false on unhandled degeneracy.
  bool run(std::span<const geom::Point> pts);
  // Both public overloads: triangles are written only when non-null.
  void build(std::span<const geom::Point> pts,
             std::vector<std::array<int, 3>>* triangles,
             std::vector<std::pair<int, int>>& edges);
  // Append the real edges, and the real triangles when non-null.
  void emit(std::vector<std::array<int, 3>>* triangles,
            std::vector<std::pair<int, int>>& edges) const;
  int num_real() const { return static_cast<int>(orig_.size()); }
  bool in_circumcircle(int ti, const geom::Point& q) const;
  int locate(const geom::Point& p) const;
  bool insert(int pi);

  std::vector<geom::Point> pts_;  // insertion order, then the 3 super corners
  std::vector<int> orig_;         // pts_[i] is input point orig_[i]
  std::vector<Tri> tris_;
  std::vector<std::uint64_t> order_;
  RadixScratch radix_;
  std::vector<std::uint32_t> cavity_mark_;
  std::uint32_t epoch_ = 0;
  std::vector<int> cavity_, stack_;
  // Fan linkage: the new triangle whose boundary edge starts / ends at a
  // vertex.  Every slot a fan reads was written by that same fan, so they
  // are never cleared.
  std::vector<int> start_at_, end_at_;
  std::vector<BEdge> boundary_;
  int last_ = 0;
};

/// Delaunay triangulation of `pts`.  Exact duplicates are merged; every
/// duplicate is connected to its representative by a zero-length edge in
/// `edges` so downstream spanning-tree builders stay connected.
/// Degenerate inputs (all points collinear) yield an edge path and no
/// triangles.
Triangulation triangulate(std::span<const geom::Point> pts);

/// Convenience: just the unique edges (candidate set for Kruskal).
std::vector<std::pair<int, int>> delaunay_edges(
    std::span<const geom::Point> pts);

}  // namespace dirant::delaunay
