#pragma once
// Test-only oracle for antenna::Orientation: the per-sensor bucket layout,
// one heap vector of sectors and one of boundary directions per sensor.
// Same interface and accounting as the library's fixed-stride table, none
// of its layout (no stride, no relayout), so a differential test can drive
// both through the same call sequence and compare after every call.

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "antenna/orientation.hpp"

namespace dirant::test {

class ReferenceOrientation {
 public:
  explicit ReferenceOrientation(int n) : at_(n), dirs_(n) {}

  int size() const { return static_cast<int>(at_.size()); }

  void reset(int n, int /*reserve_per_node*/ = 0) {
    at_.assign(n, {});
    dirs_.assign(n, {});
    max_radius_ = 0.0;
    total_antennas_ = 0;
  }

  void add(int u, const geom::Sector& s) {
    at_[u].push_back(s);
    antenna::BoundaryDirs d;
    d.sx = std::cos(s.start);
    d.sy = std::sin(s.start);
    if (s.width == 0.0) {
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

  const std::vector<geom::Sector>& antennas(int u) const { return at_[u]; }
  const std::vector<antenna::BoundaryDirs>& boundary_dirs(int u) const {
    return dirs_[u];
  }

  double max_radius() const { return max_radius_; }
  int total_antennas() const { return total_antennas_; }

  double spread_sum(int u) const {
    double total = 0.0;
    for (const auto& s : at_[u]) total += s.width;
    return total;
  }
  double max_spread_sum() const {
    double m = 0.0;
    for (int u = 0; u < size(); ++u) m = std::max(m, spread_sum(u));
    return m;
  }
  int max_antennas_per_node() const {
    size_t m = 0;
    for (const auto& list : at_) m = std::max(m, list.size());
    return static_cast<int>(m);
  }

  bool node_equals(int ua, const ReferenceOrientation& b, int ub) const {
    return same(at_[ua], b.at_[ub]);
  }

  void copy_node(int dst_u, const ReferenceOrientation& src, int src_u) {
    // Copies first: src may be this object, even this very row.
    const std::vector<geom::Sector> ss = src.at_[src_u];
    const std::vector<antenna::BoundaryDirs> sd = src.dirs_[src_u];
    total_antennas_ +=
        static_cast<int>(ss.size()) - static_cast<int>(at_[dst_u].size());
    at_[dst_u] = ss;
    dirs_[dst_u] = sd;
    for (const geom::Sector& s : ss) {
      max_radius_ = std::max(max_radius_, s.radius);
    }
  }

  bool sync_node(int dst_u, const ReferenceOrientation& src, int src_u) {
    if (node_equals(dst_u, src, src_u)) return false;
    copy_node(dst_u, src, src_u);
    return true;
  }

  bool sync_node(int u, std::span<const geom::Sector> sectors) {
    if (same(at_[u], sectors)) return false;
    clear_node(u);
    for (const geom::Sector& s : sectors) add(u, s);
    return true;
  }

  void clear_node(int u) {
    total_antennas_ -= static_cast<int>(at_[u].size());
    at_[u].clear();
    dirs_[u].clear();
  }

 private:
  static bool same(std::span<const geom::Sector> a,
                   std::span<const geom::Sector> b) {
    if (a.size() != b.size()) return false;
    for (size_t j = 0; j < a.size(); ++j) {
      const geom::Sector& x = a[j];
      const geom::Sector& y = b[j];
      if (x.start != y.start || x.width != y.width || x.radius != y.radius) {
        return false;
      }
    }
    return true;
  }

  std::vector<std::vector<geom::Sector>> at_;
  std::vector<std::vector<antenna::BoundaryDirs>> dirs_;
  double max_radius_ = 0.0;
  int total_antennas_ = 0;
};

}  // namespace dirant::test
