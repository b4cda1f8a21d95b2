#include "mst/degree5.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.hpp"
#include "geometry/angle.hpp"
#include "mst/engine.hpp"

namespace dirant::mst {

using geom::Point;

void enforce_max_degree(std::span<const Point> pts, Tree& t, int max_degree,
                        DegreeRepairScratch& scratch) {
  DIRANT_ASSERT(max_degree >= 2);
  // Degrees straight from the edge list.  An EMST of uniform points never
  // exceeds the bound, so the common case ends here with the tree
  // untouched.
  auto& deg = scratch.deg;
  auto& work = scratch.work;
  deg.assign(t.n, 0);
  for (const auto& e : t.edges) {
    ++deg[e.u];
    ++deg[e.v];
  }
  work.clear();
  for (int v = 0; v < t.n; ++v) {
    if (deg[v] > max_degree) work.push_back(v);
  }
  if (work.empty()) return;

  // Repair path.  Adjacency as (neighbour, edge-index) pairs in one flat
  // array, rows in edge-list order, maintained incrementally across swaps;
  // over-degree vertices sit on a worklist instead of being rediscovered by
  // a full O(n) rescan per repair.  A vertex gains an edge only while its
  // degree is <= max_degree (see `kept_far_deg` below), so a row of
  // max(initial degree, max_degree + 1) slots never overflows.
  auto& row_start = scratch.row_start;
  auto& adj = scratch.adj;
  row_start.resize(static_cast<size_t>(t.n) + 1);
  row_start[0] = 0;
  for (int v = 0; v < t.n; ++v) {
    row_start[v + 1] = row_start[v] + std::max(deg[v], max_degree + 1);
  }
  adj.resize(row_start[t.n]);
  std::fill(deg.begin(), deg.end(), 0);
  for (int i = 0; i < static_cast<int>(t.edges.size()); ++i) {
    const int a = t.edges[i].u, b = t.edges[i].v;
    adj[row_start[a] + deg[a]++] = {b, i};
    adj[row_start[b] + deg[b]++] = {a, i};
  }
  const auto push = [&](int v, std::pair<int, int> entry) {
    DIRANT_ASSERT(row_start[v] + deg[v] < row_start[v + 1]);
    adj[row_start[v] + deg[v]++] = entry;
  };
  // Drop the entry carrying `edge_idx` from v's row (swap with the last).
  const auto erase = [&](int v, int edge_idx) {
    const int lo = row_start[v], hi = lo + deg[v];
    for (int k = lo; k < hi; ++k) {
      if (adj[k].second == edge_idx) {
        adj[k] = adj[hi - 1];
        --deg[v];
        return;
      }
    }
    DIRANT_ASSERT_MSG(false, "adjacency desynchronised from edge list");
  };
  auto& queued = scratch.queued;
  queued.assign(t.n, 0);
  for (const int v : work) queued[v] = 1;

  const int cap = 16 * std::max(1, t.n);
  int iter = 0;
  while (!work.empty() && iter < cap) {
    const int u = work.back();
    work.pop_back();
    queued[u] = 0;
    if (deg[u] <= max_degree) continue;
    ++iter;

    // Sort u's incident edges by angle; examine consecutive pairs.
    auto& inc = scratch.inc;
    inc.assign(adj.begin() + row_start[u],
               adj.begin() + row_start[u] + deg[u]);
    std::sort(inc.begin(), inc.end(), [&](const auto& a, const auto& b) {
      return geom::angle_to(pts[u], pts[a.first]) <
             geom::angle_to(pts[u], pts[b.first]);
    });
    const int m = static_cast<int>(inc.size());

    // Best swap: replace the longer of a consecutive incident pair with the
    // chord, preferring (a) non-increasing weight, (b) low resulting degree
    // at the endpoint that gains the chord.
    int best_remove = -1, best_keep_v = -1, best_other_w = -1;
    double best_score = std::numeric_limits<double>::infinity();
    for (int i = 0; i < m; ++i) {
      const auto [v, ev] = inc[i];
      const auto [w, ew] = inc[(i + 1) % m];
      const double chord = geom::dist(pts[v], pts[w]);
      const double lv = t.edges[ev].length, lw = t.edges[ew].length;
      // Both chord endpoints gain the chord; the dropped edge's far
      // endpoint loses one, so only the kept edge's far endpoint gains.
      for (int drop = 0; drop < 2; ++drop) {
        const int edge_idx = drop == 0 ? ev : ew;
        const int dropped_far = drop == 0 ? v : w;
        const int kept_far = drop == 0 ? w : v;
        const double dropped_len = drop == 0 ? lv : lw;
        if (chord > dropped_len * (1.0 + 1e-12) + 1e-12) continue;
        // Net degree effect: deg(u)-1; dropped_far unchanged; kept_far +1.
        const int kept_far_deg = deg[kept_far] + 1;
        if (kept_far_deg > max_degree + 1) continue;  // avoid new violations
        const double score =
            (chord - dropped_len) + 0.001 * kept_far_deg;
        if (score < best_score) {
          best_score = score;
          best_remove = edge_idx;
          best_keep_v = dropped_far;
          best_other_w = kept_far;
        }
      }
    }
    DIRANT_ASSERT_MSG(best_remove != -1,
                      "degree repair found no valid swap (not an EMST?)");
    t.edges[best_remove] = {best_keep_v, best_other_w,
                            geom::dist(pts[best_keep_v], pts[best_other_w])};
    // Incremental bookkeeping: u loses the dropped edge, best_other_w gains
    // the chord, best_keep_v trades one for the other (degree unchanged).
    erase(u, best_remove);
    erase(best_keep_v, best_remove);
    push(best_keep_v, {best_other_w, best_remove});
    push(best_other_w, {best_keep_v, best_remove});
    if (deg[u] > max_degree && !queued[u]) {
      work.push_back(u);
      queued[u] = 1;
    }
    if (deg[best_other_w] > max_degree && !queued[best_other_w]) {
      work.push_back(best_other_w);
      queued[best_other_w] = 1;
    }
  }
  // Recount from the edge list (allocation-free) rather than trusting the
  // incremental bookkeeping the loop itself maintained.
  deg.assign(t.n, 0);
  int observed_max = 0;
  for (const auto& e : t.edges) {
    observed_max = std::max({observed_max, ++deg[e.u], ++deg[e.v]});
  }
  DIRANT_ASSERT_MSG(observed_max <= max_degree,
                    "degree repair did not converge");
}

Tree enforce_max_degree(std::span<const Point> pts, Tree t, int max_degree) {
  DegreeRepairScratch scratch;
  enforce_max_degree(pts, t, max_degree, scratch);
  return t;
}

Tree degree5_emst(std::span<const Point> pts) {
  return EmstEngine::shared().degree5(pts);
}

}  // namespace dirant::mst
