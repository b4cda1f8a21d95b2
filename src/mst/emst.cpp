#include "mst/emst.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/assert.hpp"
#include "mst/engine.hpp"

namespace dirant::mst {

using geom::Point;

void prim_emst(std::span<const Point> pts, Tree& out, PrimScratch& scratch) {
  const int n = static_cast<int>(pts.size());
  DIRANT_ASSERT(n >= 1);
  out.n = n;
  out.edges.clear();
  if (n == 1) return;

  auto& best = scratch.best;
  auto& from = scratch.from;
  auto& in_tree = scratch.in_tree;
  best.assign(n, std::numeric_limits<double>::infinity());
  from.assign(n, -1);
  in_tree.assign(n, 0);
  int cur = 0;
  in_tree[0] = 1;
  for (int added = 1; added < n; ++added) {
    // Relax against the vertex added last.
    for (int v = 0; v < n; ++v) {
      if (in_tree[v]) continue;
      const double d = geom::dist2(pts[cur], pts[v]);
      if (d < best[v]) {
        best[v] = d;
        from[v] = cur;
      }
    }
    int next = -1;
    double next_d = std::numeric_limits<double>::infinity();
    for (int v = 0; v < n; ++v) {
      if (!in_tree[v] && best[v] < next_d) {
        next_d = best[v];
        next = v;
      }
    }
    DIRANT_ASSERT(next != -1);
    in_tree[next] = 1;
    out.edges.push_back(
        {from[next], next, geom::dist(pts[from[next]], pts[next])});
    cur = next;
  }
}

Tree prim_emst(std::span<const Point> pts) {
  Tree t;
  PrimScratch scratch;
  prim_emst(pts, t, scratch);
  return t;
}

void kruskal_emst(std::span<const Point> pts,
                  std::span<const std::pair<int, int>> candidates, Tree& out,
                  KruskalScratch& scratch) {
  const int n = static_cast<int>(pts.size());
  DIRANT_ASSERT(n >= 1);
  out.n = n;
  out.edges.clear();
  if (n == 1) return;

  // Sort candidate indices by squared length packed into flat uint64s:
  // non-negative doubles order identically to their bit patterns, so the
  // top 44 bits of dist2 plus a 20-bit index sort in one pass with no
  // comparator indirection.  A refinement pass then re-sorts every run of
  // entries sharing the truncated-dist2 prefix by the engine-wide exact
  // total order (squared length, min endpoint, max endpoint), so acceptance
  // follows that strict order exactly and the Kruskal tree is THE unique
  // MST under it, independent of the candidate array's order (the churn
  // engine's pool Kruskal and local repairs rely on that; mst/repair.hpp).
  // Runs are almost always length 1; tie-heavy lattices pay a handful of
  // tiny sorts.  Candidate sets too large for a 20-bit index (n beyond
  // ~350k on the Delaunay path) sort (dist2, index) pairs instead and
  // refine the equal-dist2 runs the same way — slower constants, same
  // order, no size cliff.
  constexpr size_t kPackedIndexBits = 20;
  scratch.uf.reset(n);
  auto& uf = scratch.uf;
  const auto accept = [&](int u, int v) {
    if (uf.unite(u, v)) {
      out.edges.push_back({u, v, geom::dist(pts[u], pts[v])});
      return static_cast<int>(out.edges.size()) == n - 1;
    }
    return false;
  };
  // Exact (d2, min, max) comparison of two candidate indices.
  const auto exact_less = [&](std::uint32_t a, std::uint32_t b) {
    const double da = geom::dist2(pts[candidates[a].first],
                                  pts[candidates[a].second]);
    const double db = geom::dist2(pts[candidates[b].first],
                                  pts[candidates[b].second]);
    if (da != db) return da < db;
    const int ua = std::min(candidates[a].first, candidates[a].second);
    const int ub = std::min(candidates[b].first, candidates[b].second);
    if (ua != ub) return ua < ub;
    return std::max(candidates[a].first, candidates[a].second) <
           std::max(candidates[b].first, candidates[b].second);
  };
  if (candidates.size() < (1ull << kPackedIndexBits)) {
    auto& order = scratch.order;
    order.resize(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      const double d2 =
          geom::dist2(pts[candidates[i].first], pts[candidates[i].second]);
      std::uint64_t bits;
      std::memcpy(&bits, &d2, sizeof bits);
      order[i] = (bits & ~((1ull << kPackedIndexBits) - 1)) | i;
    }
    std::sort(order.begin(), order.end());
    constexpr std::uint64_t kIdxMask = (1ull << kPackedIndexBits) - 1;
    for (size_t lo = 0; lo < order.size();) {
      size_t hi = lo + 1;
      while (hi < order.size() && (order[hi] & ~kIdxMask) ==
                                      (order[lo] & ~kIdxMask)) {
        ++hi;
      }
      if (hi - lo > 1) {
        std::sort(order.begin() + static_cast<long>(lo),
                  order.begin() + static_cast<long>(hi),
                  [&](std::uint64_t a, std::uint64_t b) {
                    return exact_less(
                        static_cast<std::uint32_t>(a & kIdxMask),
                        static_cast<std::uint32_t>(b & kIdxMask));
                  });
      }
      lo = hi;
    }
    for (const std::uint64_t packed : order) {
      const auto& [u, v] = candidates[packed & kIdxMask];
      if (accept(u, v)) break;
    }
  } else {
    auto& order = scratch.order_big;
    order.resize(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      order[i] = {geom::dist2(pts[candidates[i].first],
                              pts[candidates[i].second]),
                  static_cast<std::uint32_t>(i)};
    }
    std::sort(order.begin(), order.end());
    for (size_t lo = 0; lo < order.size();) {
      size_t hi = lo + 1;
      while (hi < order.size() && order[hi].first == order[lo].first) ++hi;
      if (hi - lo > 1) {
        std::sort(order.begin() + static_cast<long>(lo),
                  order.begin() + static_cast<long>(hi),
                  [&](const auto& a, const auto& b) {
                    return exact_less(a.second, b.second);
                  });
      }
      lo = hi;
    }
    for (const auto& [d2, i] : order) {
      const auto& [u, v] = candidates[i];
      if (accept(u, v)) break;
    }
  }
  DIRANT_ASSERT_MSG(static_cast<int>(out.edges.size()) == n - 1,
                    "candidate edge set is not connected");
}

Tree kruskal_emst(std::span<const Point> pts,
                  std::span<const std::pair<int, int>> candidates) {
  Tree t;
  KruskalScratch scratch;
  kruskal_emst(pts, candidates, t, scratch);
  return t;
}

Tree emst(std::span<const Point> pts, int delaunay_threshold) {
  return EmstEngine({EngineKind::kAuto, delaunay_threshold}).emst(pts);
}

}  // namespace dirant::mst
