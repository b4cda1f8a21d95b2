#include "sim/routing.hpp"

#include "common/assert.hpp"

namespace dirant::sim {

using geom::Point;

RouteResult greedy_route(const graph::Digraph& g, std::span<const Point> pts,
                         int src, int dst, int ttl) {
  const int n = g.size();
  DIRANT_ASSERT(src >= 0 && src < n && dst >= 0 && dst < n);
  if (ttl < 0) ttl = 4 * n;
  RouteResult r;
  int cur = src;
  while (r.hops <= ttl) {
    if (cur == dst) {
      r.delivered = true;
      return r;
    }
    // Strictly-decreasing greedy step.
    int next = -1;
    double cur_d = geom::dist2(pts[cur], pts[dst]);
    double best = cur_d;
    for (int v : g.out(cur)) {
      const double d = geom::dist2(pts[v], pts[dst]);
      if (d < best) {
        best = d;
        next = v;
      }
    }
    if (next == -1) return r;  // routing void
    cur = next;
    ++r.hops;
  }
  return r;  // TTL expired
}

}  // namespace dirant::sim
