#pragma once
// Test-only oracle for mst::enforce_max_degree: the repair as it was before
// the early return and the flat adjacency — it always builds one heap
// vector of (neighbour, edge-index) pairs per vertex, then runs the same
// worklist of swaps.  The library version must produce the same tree, edge
// for edge, on every input.

#include <algorithm>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "geometry/angle.hpp"
#include "mst/tree.hpp"

namespace dirant::test {

inline mst::Tree reference_enforce_max_degree(
    std::span<const geom::Point> pts, mst::Tree t, int max_degree) {
  const auto erase_edge_entry = [](std::vector<std::pair<int, int>>& list,
                                   int edge_idx) {
    for (auto& entry : list) {
      if (entry.second == edge_idx) {
        entry = list.back();
        list.pop_back();
        return;
      }
    }
    DIRANT_ASSERT_MSG(false, "adjacency desynchronised from edge list");
  };
  std::vector<std::vector<std::pair<int, int>>> adj(t.n);
  for (int i = 0; i < static_cast<int>(t.edges.size()); ++i) {
    adj[t.edges[i].u].push_back({t.edges[i].v, i});
    adj[t.edges[i].v].push_back({t.edges[i].u, i});
  }
  std::vector<int> deg(t.n), work;
  std::vector<char> queued(t.n, 0);
  for (int v = 0; v < t.n; ++v) {
    deg[v] = static_cast<int>(adj[v].size());
    if (deg[v] > max_degree) {
      work.push_back(v);
      queued[v] = 1;
    }
  }
  const int cap = 16 * std::max(1, t.n);
  int iter = 0;
  std::vector<std::pair<int, int>> inc;
  while (!work.empty() && iter < cap) {
    const int u = work.back();
    work.pop_back();
    queued[u] = 0;
    if (deg[u] <= max_degree) continue;
    ++iter;
    inc.assign(adj[u].begin(), adj[u].end());
    std::sort(inc.begin(), inc.end(), [&](const auto& a, const auto& b) {
      return geom::angle_to(pts[u], pts[a.first]) <
             geom::angle_to(pts[u], pts[b.first]);
    });
    const int m = static_cast<int>(inc.size());
    int best_remove = -1, best_keep_v = -1, best_other_w = -1;
    double best_score = std::numeric_limits<double>::infinity();
    for (int i = 0; i < m; ++i) {
      const auto [v, ev] = inc[i];
      const auto [w, ew] = inc[(i + 1) % m];
      const double chord = geom::dist(pts[v], pts[w]);
      const double lv = t.edges[ev].length, lw = t.edges[ew].length;
      for (int drop = 0; drop < 2; ++drop) {
        const int edge_idx = drop == 0 ? ev : ew;
        const int dropped_far = drop == 0 ? v : w;
        const int kept_far = drop == 0 ? w : v;
        const double dropped_len = drop == 0 ? lv : lw;
        if (chord > dropped_len * (1.0 + 1e-12) + 1e-12) continue;
        const int kept_far_deg = deg[kept_far] + 1;
        if (kept_far_deg > max_degree + 1) continue;
        const double score = (chord - dropped_len) + 0.001 * kept_far_deg;
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
    erase_edge_entry(adj[u], best_remove);
    erase_edge_entry(adj[best_keep_v], best_remove);
    adj[best_keep_v].push_back({best_other_w, best_remove});
    adj[best_other_w].push_back({best_keep_v, best_remove});
    --deg[u];
    ++deg[best_other_w];
    if (deg[u] > max_degree && !queued[u]) {
      work.push_back(u);
      queued[u] = 1;
    }
    if (deg[best_other_w] > max_degree && !queued[best_other_w]) {
      work.push_back(best_other_w);
      queued[best_other_w] = 1;
    }
  }
  int observed_max = 0;
  std::fill(deg.begin(), deg.end(), 0);
  for (const auto& e : t.edges) {
    observed_max = std::max({observed_max, ++deg[e.u], ++deg[e.v]});
  }
  DIRANT_ASSERT_MSG(observed_max <= max_degree,
                    "degree repair did not converge");
  return t;
}

}  // namespace dirant::test
