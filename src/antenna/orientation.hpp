#pragma once
/// \file orientation.hpp
/// The output of every algorithm in core/: an assignment of directional
/// antennae (sectors) to each sensor.

#include <cmath>
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

/// Per-sensor antenna assignment.
class Orientation {
 public:
  explicit Orientation(int n) : at_(n), dirs_(n) {}

  int size() const { return static_cast<int>(at_.size()); }

  /// Recycle for a fresh assignment over `n` sensors: per-sensor buckets are
  /// cleared but keep their capacity, and each is pre-reserved to
  /// `reserve_per_node` slots (pass the k under test) so repeated fills
  /// through a warm orientation never allocate.  This is the "output arena"
  /// the PlanSession steady-state contract is built on.
  void reset(int n, int reserve_per_node = 0) {
    at_.resize(n);
    dirs_.resize(n);
    for (auto& list : at_) {
      list.clear();
      if (static_cast<int>(list.capacity()) < reserve_per_node) {
        list.reserve(reserve_per_node);
      }
    }
    for (auto& list : dirs_) {
      list.clear();
      if (static_cast<int>(list.capacity()) < reserve_per_node) {
        list.reserve(reserve_per_node);
      }
    }
    max_radius_ = 0.0;
    total_antennas_ = 0;
  }

  void add(int u, const geom::Sector& s) {
    at_[u].push_back(s);
    BoundaryDirs d;
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
    dirs_[u].push_back(d);
    max_radius_ = std::max(max_radius_, s.radius);
    ++total_antennas_;
  }

  /// Prefetch hints for a caller that adds to sensors in a scattered but
  /// known order: `prefetch_bucket(u)` pulls sensor u's bucket headers and,
  /// once those have arrived, `prefetch_storage(u)` pulls the sector storage
  /// they point to.  Hints only; contents are unaffected.
  void prefetch_bucket(int u) const {
    __builtin_prefetch(&at_[u]);
    __builtin_prefetch(&dirs_[u]);
  }
  void prefetch_storage(int u) const {
    __builtin_prefetch(at_[u].data(), 1);
    __builtin_prefetch(dirs_[u].data(), 1);
  }

  const std::vector<geom::Sector>& antennas(int u) const { return at_[u]; }

  /// Boundary directions parallel to `antennas(u)` (same indexing).
  const std::vector<BoundaryDirs>& boundary_dirs(int u) const {
    return dirs_[u];
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
  /// same count, and every sector equal in apex, start, width, and radius
  /// (exact double compares — this is a change-detection primitive, not a
  /// geometric one).  Boundary-ray caches are derived deterministically from
  /// (start, width) at `add` time, so sector equality implies dir equality.
  bool node_equals(int ua, const Orientation& b, int ub) const {
    const auto& sa = at_[ua];
    const auto& sb = b.at_[ub];
    if (sa.size() != sb.size()) return false;
    for (size_t j = 0; j < sa.size(); ++j) {
      const geom::Sector& x = sa[j];
      const geom::Sector& y = sb[j];
      if (x.apex.x != y.apex.x || x.apex.y != y.apex.y ||
          x.start != y.start || x.width != y.width || x.radius != y.radius) {
        return false;
      }
    }
    return true;
  }

  /// Overwrite node `dst_u`'s antenna list with a copy of `src`'s node
  /// `src_u` (sectors and cached boundary dirs — no trigonometry).  Reuses
  /// the destination buckets' capacity, so snapshot maintenance through a
  /// warm orientation is allocation-free once buckets have grown.
  /// `total_antennas` is adjusted by the delta; `max_radius` only ratchets
  /// up (recomputing a shrink would cost O(total sectors) — snapshot
  /// consumers don't read it).
  void copy_node(int dst_u, const Orientation& src, int src_u) {
    const auto& ss = src.at_[src_u];
    total_antennas_ +=
        static_cast<int>(ss.size()) - static_cast<int>(at_[dst_u].size());
    at_[dst_u].assign(ss.begin(), ss.end());
    const auto& sd = src.dirs_[src_u];
    dirs_[dst_u].assign(sd.begin(), sd.end());
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
    const auto& cur = at_[u];
    const int m = static_cast<int>(sectors.size());
    bool same = static_cast<int>(cur.size()) == m;
    for (int j = 0; same && j < m; ++j) {
      const geom::Sector& x = cur[j];
      const geom::Sector& y = sectors[j];
      same = x.apex.x == y.apex.x && x.apex.y == y.apex.y &&
             x.start == y.start && x.width == y.width && x.radius == y.radius;
    }
    if (same) return false;
    clear_node(u);
    for (const geom::Sector& s : sectors) add(u, s);
    return true;
  }

  /// Clear node `u`'s antenna list (capacity kept).  Snapshot maintenance
  /// for nodes that leave the alive set.
  void clear_node(int u) {
    total_antennas_ -= static_cast<int>(at_[u].size());
    at_[u].clear();
    dirs_[u].clear();
  }

 private:
  std::vector<std::vector<geom::Sector>> at_;
  std::vector<std::vector<BoundaryDirs>> dirs_;
  double max_radius_ = 0.0;
  int total_antennas_ = 0;
};

}  // namespace dirant::antenna
