#include "core/one_antenna.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "btsp/btsp.hpp"
#include "common/assert.hpp"
#include "common/constants.hpp"
#include "common/small_vec.hpp"
#include "core/session.hpp"
#include "geometry/angle.hpp"
#include "mst/rooted.hpp"

namespace dirant::core {
namespace {

using geom::Point;

constexpr double kTol = 1e-9;

}  // namespace

double one_antenna_mid_bound_factor(double phi) {
  DIRANT_ASSERT_MSG(phi >= kPi - 1e-12 && phi < 8.0 * kPi / 5.0 + 1e-12,
                    "mid regime needs pi <= phi <= 8*pi/5");
  return 2.0 * std::sin(kPi - phi / 2.0);
}

void orient_one_antenna_mid(std::span<const Point> pts, const mst::Tree& tree,
                            double phi, OrienterScratch& scratch,
                            Result& res) {
  tree.degrees_into(scratch.degrees);
  int max_deg = 0;
  for (int d : scratch.degrees) max_deg = std::max(max_deg, d);
  DIRANT_ASSERT_MSG(max_deg <= 5, "needs a degree-5 MST");
  const int n = static_cast<int>(pts.size());
  // The window construction never needs more range than max(bound, lmax);
  // for phi in [pi, 8pi/5) the bound 2 sin(pi - phi/2) is >= 2 sin(pi/5)
  // ~ 1.176 > 1, so the bound itself dominates.
  reset_result(res, n, /*reserve_per_node=*/1, Algorithm::kOneAntennaMid,
               one_antenna_mid_bound_factor(phi), tree.lmax());
  if (n <= 1) return;

  const double R =
      res.bound_factor * res.lmax * (1.0 + kRadiusRelTol) + kRadiusAbsTol;
  Workspace& ws = scratch.ws.get();
  Workspace::Frame frame(ws);
  mst::RootedTree rt;
  rt.rebuild(tree, -1, ws);

  const int root = rt.root;
  const int first = rt.children(root)[0];
  res.orientation.add(root, geom::beam_to(pts[root], pts[first]));
  res.cases.bump("root");

  auto& work = scratch.work;
  work.clear();
  work.emplace_back(first, pts[root]);
  while (!work.empty()) {
    const auto [u, target] = work.back();
    work.pop_back();
    // One atan2 per ray: `ref` (which rejects a target coincident with u)
    // and the sort's child angles are reused by every sector below.
    const double ref = geom::angle_to(pts[u], target);
    const auto children = rt.children(u);
    const int m = static_cast<int>(children.size());

    if (m == 0) {
      res.orientation.add(u, {ref, 0.0, geom::dist(pts[u], target)});
      res.cases.bump("leaf");
      continue;
    }

    // Children ccw from the target ray, with their absolute angles and
    // offsets (target at 0, children in (0, 2pi]).  Degree-bounded: every
    // per-node buffer below is stack-inline.
    SmallVec<int, 5> kids;
    SmallVec<double, 5> off, abs_angle;
    kids.resize(m);
    abs_angle.resize(m);
    off.resize(m);
    mst::sort_ccw(pts, u, ref, children, kids.data(), abs_angle.data(),
                  off.data());

    // Try the full cover first: one sector spanning all rays (complement of
    // the largest gap).
    {
      SmallVec<double, 6> rays;
      rays.push_back(ref);
      for (int i = 0; i < m; ++i) rays.push_back(abs_angle[i]);
      geom::min_spread_cover({rays.data(), static_cast<size_t>(rays.size())},
                             1, scratch.lemma1.cover,
                             scratch.lemma1.cover_scratch);
      const auto& cover = scratch.lemma1.cover;
      if (cover.total_spread <= phi + kTol) {
        const auto [start, width] = cover.arcs[0];
        double radius = geom::dist(pts[u], target);
        for (int i = 0; i < m; ++i) {
          radius = std::max(radius, geom::dist(pts[u], pts[kids[i]]));
        }
        res.orientation.add(u, geom::make_arc(start, width, radius));
        for (int i = 0; i < m; ++i) work.emplace_back(kids[i], pts[u]);
        res.cases.bump("full");
        continue;
      }
    }

    // Window of width phi anchored at a child ray and containing the target
    // ray.  Anchoring at a covered child keeps every excluded child within
    // the (2*pi - phi)-wide complement measured from the anchor, so all
    // delegation chords subtend <= 2*pi - phi.
    struct Window {
      double start_off;  // window start in offset space
      int anchor;        // anchored child (slot)
      int covered = 0;
      bool anchor_at_end;
    };
    SmallVec<Window, 10> windows;
    for (int j = 0; j < m; ++j) {
      // Window ending at child j: [off_j - phi, off_j].
      if (off[j] <= phi + kTol) {
        windows.push_back({off[j] - phi, j, 0, true});
      }
      // Window starting at child j: [off_j, off_j + phi].
      if (off[j] >= kTwoPi - phi - kTol) {
        windows.push_back({off[j], j, 0, false});
      }
    }
    DIRANT_ASSERT_MSG(!windows.empty(),
                      "a phi >= pi window always captures target + a child");
    auto in_window = [&](const Window& w, double o) {
      // Normalized offset from the window start, in [0, 2*pi).
      double d = o - w.start_off;
      while (d < -kTol) d += kTwoPi;
      while (d >= kTwoPi - kTol) d -= kTwoPi;
      if (d < 0.0) d = 0.0;
      return d <= phi + kTol;
    };
    for (auto& w : windows) {
      for (int i = 0; i < m; ++i) {
        if (in_window(w, off[i])) ++w.covered;
      }
    }
    const auto& best = *std::max_element(
        windows.begin(), windows.end(),
        [](const Window& a, const Window& b) { return a.covered < b.covered; });

    // Emit the sector.  Trim it to the covered rays (narrower than phi is
    // free): the sweep from the first covered ray to the last covered ray.
    SmallVec<int, 5> covered_children, excluded;
    for (int i = 0; i < m; ++i) {
      (in_window(best, off[i]) ? covered_children : excluded).push_back(i);
    }
    DIRANT_ASSERT(!covered_children.empty());
    // Sector start: smallest covered offset relative to window start.
    double lo = kTwoPi, hi = 0.0;  // relative to window start
    auto rel = [&](double o) {
      double d = o - best.start_off;
      while (d < -kTol) d += kTwoPi;
      while (d >= kTwoPi - kTol) d -= kTwoPi;
      return std::clamp(d, 0.0, kTwoPi);
    };
    for (int i : covered_children) {
      lo = std::min(lo, rel(off[i]));
      hi = std::max(hi, rel(off[i]));
    }
    lo = std::min(lo, rel(0.0));  // target ray
    hi = std::max(hi, rel(0.0));
    const double width = hi - lo;
    DIRANT_ASSERT(width <= phi + kTol);
    const double start_abs = geom::norm_angle(ref + best.start_off + lo);
    double radius = geom::dist(pts[u], target);
    for (int i : covered_children) {
      radius = std::max(radius, geom::dist(pts[u], pts[kids[i]]));
    }
    res.orientation.add(u, geom::make_arc(start_abs, width, radius));

    // Delegation chain over the excluded children, ordered ccw from the
    // anchor; the anchor covers the first, each covers the next, the last
    // covers u.
    dirant::insertion_sort(excluded.begin(), excluded.end(),
                           [&](int a, int b) {
                             return geom::ccw_delta(off[best.anchor], off[a]) <
                                    geom::ccw_delta(off[best.anchor], off[b]);
                           });
    SmallVec<Point, 5> targets;
    for (int i = 0; i < m; ++i) targets.push_back(pts[u]);
    int prev = best.anchor;
    for (int x : excluded) {
      DIRANT_ASSERT_MSG(geom::dist(pts[kids[prev]], pts[kids[x]]) <= R,
                        "delegation chord exceeds 2 sin(pi - phi/2)");
      targets[prev] = pts[kids[x]];
      prev = x;
    }
    for (int i = 0; i < m; ++i) work.emplace_back(kids[i], targets[i]);
    res.cases.bump(excluded.empty()
                       ? "window"
                       : "window-chain" + std::to_string(excluded.size()));
  }
  res.measured_radius = res.orientation.max_radius();
}

Result orient_one_antenna_mid(std::span<const Point> pts,
                              const mst::Tree& tree, double phi) {
  Result res;
  OrienterScratch scratch;
  orient_one_antenna_mid(pts, tree, phi, scratch, res);
  return res;
}

void orient_btsp_cycle(std::span<const Point> pts, const mst::Tree& tree,
                       OrienterScratch& /*scratch*/, Result& res) {
  const int n = static_cast<int>(pts.size());
  reset_result(res, n, /*reserve_per_node=*/1, Algorithm::kBtspCycle,
               std::numeric_limits<double>::infinity(), tree.lmax());
  if (n <= 1) {
    res.bound_factor = 0.0;
    return;
  }
  if (n == 2) {
    res.orientation.add(0, geom::beam_to(pts[0], pts[1]));
    res.orientation.add(1, geom::beam_to(pts[1], pts[0]));
    res.measured_radius = res.orientation.max_radius();
    res.bound_factor = res.lmax > 0.0 ? res.measured_radius / res.lmax : 0.0;
    return;
  }
  // The bottleneck-cycle machinery (NP-hard regime) owns its DP tables;
  // this path is exempt from the session zero-allocation contract.
  const auto cyc = btsp::bottleneck_cycle(pts);
  for (int i = 0; i < n; ++i) {
    const int a = cyc.order[i];
    const int b = cyc.order[(i + 1) % n];
    res.orientation.add(a, geom::beam_to(pts[a], pts[b]));
  }
  res.measured_radius = res.orientation.max_radius();
  res.bound_factor = res.lmax > 0.0 ? res.measured_radius / res.lmax
                                    : std::numeric_limits<double>::infinity();
  res.cases.bump(cyc.proven_optimal ? "btsp-optimal" : "btsp-heuristic");
}

Result orient_btsp_cycle(std::span<const Point> pts, const mst::Tree& tree) {
  Result res;
  OrienterScratch scratch;
  orient_btsp_cycle(pts, tree, scratch, res);
  return res;
}

}  // namespace dirant::core
