#include "geometry/angle.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace dirant::geom {

double norm_angle(double a) {
  // |a| < 2*pi: fmod is the identity there, so skip it; the results below
  // are bit-identical to the general path (including -0.0 -> -0.0).
  if (a >= 0.0 && a < kTwoPi) return a;
  if (a < 0.0 && a > -kTwoPi) {
    a += kTwoPi;
    return a >= kTwoPi ? 0.0 : a;
  }
  a = std::fmod(a, kTwoPi);
  if (a < 0.0) a += kTwoPi;
  if (a >= kTwoPi) a = 0.0;  // fmod rounding can land exactly on 2*pi
  return a;
}

double ccw_delta(double from, double to) { return norm_angle(to - from); }

double angle_of(const Vec2& v) {
  DIRANT_ASSERT_MSG(v.x != 0.0 || v.y != 0.0, "angle of zero vector");
  return norm_angle(std::atan2(v.y, v.x));
}

double angle_to(const Point& from, const Point& to) {
  return angle_of(to - from);
}

double angular_separation(double a, double b) {
  const double d = ccw_delta(a, b);
  return std::min(d, kTwoPi - d);
}

bool in_ccw_interval(double theta, double start, double width, double tol) {
  if (width >= kTwoPi - tol) return true;
  const double d = ccw_delta(start, theta);
  if (d <= width + tol) return true;
  // theta may sit just cw of start (d close to 2*pi).
  return kTwoPi - d <= tol;
}

std::vector<int> sort_by_angle(std::span<const double> thetas) {
  std::vector<int> idx(thetas.size());
  for (int i = 0; i < static_cast<int>(idx.size()); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&](int a, int b) {
    return thetas[a] < thetas[b];
  });
  return idx;
}

void gaps_of_sorted(std::span<const double> sorted,
                    std::vector<AngularGap>& out) {
  const int n = static_cast<int>(sorted.size());
  DIRANT_ASSERT(n >= 1);
  out.clear();
  if (out.capacity() < static_cast<size_t>(n)) out.reserve(n);
  for (int i = 0; i < n; ++i) {
    const double a = sorted[i];
    const double b = sorted[(i + 1) % n];
    double w = (n == 1) ? kTwoPi : ccw_delta(a, b);
    if (n > 1 && i == n - 1) {
      // Wrap gap: ensure the widths sum to exactly one turn despite rounding.
      double acc = 0.0;
      for (int j = 0; j + 1 < n; ++j) acc += out[j].width;
      w = std::max(0.0, kTwoPi - acc);
    }
    out.push_back({i, a, w});
  }
}

std::vector<AngularGap> gaps_of_sorted(std::span<const double> sorted) {
  std::vector<AngularGap> gaps;
  gaps_of_sorted(sorted, gaps);
  return gaps;
}

void min_spread_cover(std::span<const double> thetas, int k, SpreadCover& out,
                      SpreadCoverScratch& scratch) {
  out.total_spread = 0.0;
  out.arcs.clear();
  const int n = static_cast<int>(thetas.size());
  DIRANT_ASSERT(k >= 1);
  if (n == 0) return;

  auto& sorted = scratch.sorted;
  sorted.assign(thetas.begin(), thetas.end());
  for (double& t : sorted) t = norm_angle(t);
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  const int m = static_cast<int>(sorted.size());

  if (k >= m) {
    for (double t : sorted) out.arcs.emplace_back(t, 0.0);
    return;
  }

  auto& gaps = scratch.gaps;
  gaps_of_sorted(sorted, gaps);

  // Drop the k widest gaps; each remaining maximal run of rays is one arc.
  auto& order = scratch.order;
  order.resize(gaps.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return gaps[a].width > gaps[b].width;
  });
  auto& dropped = scratch.dropped;
  dropped.assign(gaps.size(), 0);
  for (int i = 0; i < k; ++i) dropped[order[i]] = 1;

  // Walk ccw; an arc starts after each dropped gap and ends at the ray that
  // precedes the next dropped gap.
  for (int g = 0; g < m; ++g) {
    if (!dropped[g]) continue;
    const int first = (g + 1) % m;  // ray starting this arc
    double width = 0.0;
    int i = first;
    while (!dropped[i]) {
      width += gaps[i].width;
      i = (i + 1) % m;
    }
    out.arcs.emplace_back(sorted[first], width);
    out.total_spread += width;
  }
}

SpreadCover min_spread_cover(std::span<const double> thetas, int k) {
  SpreadCover out;
  SpreadCoverScratch scratch;
  min_spread_cover(thetas, k, out, scratch);
  return out;
}

}  // namespace dirant::geom
