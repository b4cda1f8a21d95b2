#include "mst/emst.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/assert.hpp"
#include "common/radix_sort.hpp"
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
  // top bits of dist2 above an index field sort in a few radix passes with
  // no comparator indirection.  The index field is just wide enough for the
  // candidate count (at least 20 bits, leaving a 44-bit dist2 prefix).  A
  // refinement pass then re-sorts every run of entries sharing the
  // truncated-dist2 prefix by the engine-wide exact total order (squared
  // length, min endpoint, max endpoint), so acceptance follows that strict
  // order exactly and the Kruskal tree is THE unique MST under it,
  // independent of the candidate array's order and of the index width (the
  // churn engine's pool Kruskal and local repairs rely on that;
  // mst/repair.hpp).  Runs are almost always length 1; tie-heavy lattices
  // pay a handful of tiny sorts.
  const size_t m = candidates.size();
  const int index_bits =
      std::max(20, m < 2 ? 0 : static_cast<int>(std::bit_width(m - 1)));
  const std::uint64_t index_mask = (std::uint64_t{1} << index_bits) - 1;
  scratch.uf.reset(n);
  auto& uf = scratch.uf;
  // Exact (d2, min, max) comparison of two candidate indices.
  const auto exact_less = [&](std::uint64_t a, std::uint64_t b) {
    const auto& [a1, a2] = candidates[a];
    const auto& [b1, b2] = candidates[b];
    const double da = geom::dist2(pts[a1], pts[a2]);
    const double db = geom::dist2(pts[b1], pts[b2]);
    if (da != db) return da < db;
    const int ua = std::min(a1, a2), ub = std::min(b1, b2);
    if (ua != ub) return ua < ub;
    return std::max(a1, a2) < std::max(b1, b2);
  };
  auto& order = scratch.order;
  order.resize(m);
  for (size_t i = 0; i < m; ++i) {
    const double d2 =
        geom::dist2(pts[candidates[i].first], pts[candidates[i].second]);
    std::uint64_t bits;
    std::memcpy(&bits, &d2, sizeof bits);
    order[i] = (bits & ~index_mask) | i;
  }
  radix_sort(order, index_bits, scratch.radix);
  for (size_t lo = 0; lo < m;) {
    size_t hi = lo + 1;
    while (hi < m && (order[hi] & ~index_mask) == (order[lo] & ~index_mask)) {
      ++hi;
    }
    if (hi - lo > 1) {
      std::sort(order.begin() + static_cast<long>(lo),
                order.begin() + static_cast<long>(hi),
                [&](std::uint64_t a, std::uint64_t b) {
                  return exact_less(a & index_mask, b & index_mask);
                });
    }
    lo = hi;
  }
  for (const std::uint64_t packed : order) {
    const auto& [u, v] = candidates[packed & index_mask];
    if (uf.unite(u, v)) {
      out.edges.push_back({u, v, geom::dist(pts[u], pts[v])});
      if (static_cast<int>(out.edges.size()) == n - 1) break;
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
