#pragma once
/// \file orientation.hpp
/// The output of every algorithm in core/: an assignment of directional
/// antennae (sectors) to each sensor.

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "geometry/sector.hpp"

namespace dirant::antenna {

/// Unit direction vectors of a sector's two boundary rays, cached when the
/// sector is added so certification never pays per-query trigonometry.
/// Sectors inside an Orientation are immutable (only `add` stores them), so
/// the cache cannot go stale.
struct BoundaryDirs {
  double sx = 0.0, sy = 0.0;  ///< cos/sin of the start boundary direction
  double ex = 0.0, ey = 0.0;  ///< cos/sin of start + width
};

/// Per-sensor antenna assignment, stored as one fixed-stride table: sensor
/// u's sectors are slots [u·stride, u·stride + count(u)) of one contiguous
/// array, with the boundary-direction cache in a parallel array.  The paper
/// gives every sensor at most k ≤ 5 antennae, so the stride is the k under
/// test (the `reserve_per_node` passed to `reset`) and no sensor owns a heap
/// bucket.  An add past the stride relayouts the whole table once to a
/// wider stride; every span handed out before that is invalidated.
class Orientation {
 public:
  explicit Orientation(int n) { reset(n); }

  int size() const { return static_cast<int>(count_.size()); }

  /// Recycle for a fresh assignment over `n` sensors: every row is emptied
  /// and the stride becomes at least `reserve_per_node` (pass the k under
  /// test), so repeated fills through a warm orientation never allocate.
  /// This is the "output arena" the PlanSession steady-state contract is
  /// built on.
  void reset(int n, int reserve_per_node = 0) {
    stride_ = std::max(stride_, reserve_per_node);
    count_.assign(n, 0);
    at_.resize(static_cast<size_t>(n) * stride_);
    dirs_.resize(static_cast<size_t>(n) * stride_);
    max_radius_ = 0.0;
    total_antennas_ = 0;
  }

  void add(int u, const geom::Sector& s) {
    if (count_[u] == stride_) widen(stride_ + 1);
    const size_t slot = static_cast<size_t>(u) * stride_ + count_[u]++;
    at_[slot] = s;
    BoundaryDirs& d = dirs_[slot];
    d.sx = std::cos(s.start);
    d.sy = std::sin(s.start);
    if (s.width == 0.0) {  // beam: boundary rays coincide
      d.ex = d.sx;
      d.ey = d.sy;
    } else {
      const double end = s.start + s.width;
      d.ex = std::cos(end);
      d.ey = std::sin(end);
    }
    max_radius_ = std::max(max_radius_, s.radius);
    ++total_antennas_;
  }

  /// Prefetch hint for a caller that adds to sensors in a scattered but
  /// known order: pulls sensor u's sector and direction rows for writing,
  /// both ends of each (a row of k sectors spans two cache lines).  Needs a
  /// stride of at least 1 (a `reset` with k >= 1).  Contents are unaffected.
  void prefetch(int u) const {
    const size_t slot = static_cast<size_t>(u) * stride_;
    const char* a = reinterpret_cast<const char*>(at_.data() + slot);
    const char* d = reinterpret_cast<const char*>(dirs_.data() + slot);
    __builtin_prefetch(a, 1);
    __builtin_prefetch(a + stride_ * sizeof(geom::Sector) - 1, 1);
    __builtin_prefetch(d, 1);
    __builtin_prefetch(d + stride_ * sizeof(BoundaryDirs) - 1, 1);
  }

  std::span<const geom::Sector> antennas(int u) const {
    return {at_.data() + static_cast<size_t>(u) * stride_,
            static_cast<size_t>(count_[u])};
  }

  /// Boundary directions parallel to `antennas(u)` (same indexing).
  std::span<const BoundaryDirs> boundary_dirs(int u) const {
    return {dirs_.data() + static_cast<size_t>(u) * stride_,
            static_cast<size_t>(count_[u])};
  }

  /// Largest antenna radius anywhere (the "range" the paper bounds).
  /// Maintained incrementally by `add` — O(1), certification hot path.
  double max_radius() const { return max_radius_; }

  /// Sum of spreads at sensor `u` (the paper's per-sensor angular budget).
  double spread_sum(int u) const;

  /// max_u spread_sum(u).
  double max_spread_sum() const;

  /// Largest antenna count at any sensor (must be <= the k under test).
  int max_antennas_per_node() const;

  /// Maintained incrementally by `add` — O(1).
  int total_antennas() const { return total_antennas_; }

  /// True iff node `ua`'s antenna list is bit-identical to `b`'s node `ub`:
  /// same count, and every sector equal in start, width, and radius (exact
  /// double compares — this is a change-detection primitive, not a
  /// geometric one; the apex is the row owner's position, which the table
  /// does not hold, so a moved sensor whose angles and radii are unchanged
  /// compares equal).  Boundary-ray caches are derived deterministically from
  /// (start, width) at `add` time, so sector equality implies dir equality.
  bool node_equals(int ua, const Orientation& b, int ub) const {
    return same_sectors(antennas(ua), b.antennas(ub));
  }

  /// Overwrite node `dst_u`'s antenna list with a copy of `src`'s node
  /// `src_u` (sectors and cached boundary dirs — no trigonometry), in place
  /// in the table, so snapshot maintenance through a warm orientation is
  /// allocation-free.  `src` may be this orientation.  `total_antennas` is
  /// adjusted by the delta; `max_radius` only ratchets up (recomputing a
  /// shrink would cost O(total sectors) — snapshot consumers don't read
  /// it).
  void copy_node(int dst_u, const Orientation& src, int src_u) {
    const int m = src.count_[src_u];
    // Widen before taking any span: a relayout of this table would
    // invalidate a source row that lives in it.
    if (m > stride_) widen(m);
    total_antennas_ += m - count_[dst_u];
    count_[dst_u] = m;
    if (&src == this && src_u == dst_u) return;
    const auto ss = src.antennas(src_u);
    const auto sd = src.boundary_dirs(src_u);
    const size_t slot = static_cast<size_t>(dst_u) * stride_;
    std::copy(ss.begin(), ss.end(), at_.begin() + slot);
    std::copy(sd.begin(), sd.end(), dirs_.begin() + slot);
    for (const geom::Sector& s : ss) {
      max_radius_ = std::max(max_radius_, s.radius);
    }
  }

  /// Patch node `dst_u` to equal `src`'s node `src_u`: a no-op returning
  /// false when the rows are already bit-identical (`node_equals`), else a
  /// `copy_node` returning true.  In-place plan maintenance (the churn
  /// engine's original-space orientation) learns which rows changed from
  /// the same compare that skips the copy.
  bool sync_node(int dst_u, const Orientation& src, int src_u) {
    if (node_equals(dst_u, src, src_u)) return false;
    copy_node(dst_u, src, src_u);
    return true;
  }

  /// Same, from a freshly planned sector list: the row is rewritten (and
  /// its boundary directions recomputed) only when some sector differs.
  template <typename Sectors>
  bool sync_node(int u, const Sectors& sectors) {
    if (same_sectors(antennas(u), sectors)) return false;
    clear_node(u);
    for (const geom::Sector& s : sectors) add(u, s);
    return true;
  }

  /// Empty node `u`'s row.  Snapshot maintenance for nodes that leave the
  /// alive set.
  void clear_node(int u) {
    total_antennas_ -= count_[u];
    count_[u] = 0;
  }

 private:
  template <typename Sectors>
  static bool same_sectors(std::span<const geom::Sector> a,
                           const Sectors& b) {
    if (a.size() != static_cast<size_t>(b.size())) return false;
    for (size_t j = 0; j < a.size(); ++j) {
      const geom::Sector& x = a[j];
      const geom::Sector& y = b[j];
      if (x.start != y.start || x.width != y.width || x.radius != y.radius) {
        return false;
      }
    }
    return true;
  }

  /// Relayout every row to a stride of at least `min_stride` (and at least
  /// double the current one, so adds past the stride stay amortized O(1)).
  void widen(int min_stride);

  int stride_ = 0;
  std::vector<int> count_;          ///< per-sensor antenna count
  std::vector<geom::Sector> at_;    ///< n × stride sector slots
  std::vector<BoundaryDirs> dirs_;  ///< n × stride, parallel to at_
  double max_radius_ = 0.0;
  int total_antennas_ = 0;
};

}  // namespace dirant::antenna
