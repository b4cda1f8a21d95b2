#include "mst/rooted.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/constants.hpp"
#include "geometry/angle.hpp"

namespace dirant::mst {

void RootedTree::rebuild(const Tree& t, int root, Workspace& ws) {
  const int n = t.n;
  DIRANT_ASSERT(n >= 1);
  parent = ws.take<int>(n);
  order = ws.take<int>(n);
  pos_of = ws.take<int>(n);
  first_child = ws.take<int>(static_cast<size_t>(n) + 1);

  // Counting sort by endpoint: each vertex's neighbours in edge order.
  Workspace::Frame frame(ws);
  const auto adj_off = ws.take<int>(static_cast<size_t>(n) + 1);
  const auto adj = ws.take<int>(2 * t.edges.size());
  std::fill(adj_off.begin(), adj_off.end(), 0);
  for (const auto& e : t.edges) {
    ++adj_off[e.u + 1];
    ++adj_off[e.v + 1];
  }
  for (int v = 0; v < n; ++v) adj_off[v + 1] += adj_off[v];
  auto& cursor = pos_of;  // refilled below
  std::copy(adj_off.begin(), adj_off.end() - 1, cursor.begin());
  for (const auto& e : t.edges) {
    adj[cursor[e.u]++] = e.v;
    adj[cursor[e.v]++] = e.u;
  }
  if (root < 0) {
    root = n == 1 ? 0 : -1;
    for (int v = 0; v < n && root < 0; ++v) {
      if (adj_off[v + 1] - adj_off[v] == 1) root = v;
    }
    DIRANT_ASSERT_MSG(root >= 0, "tree without a leaf");
  }

  DIRANT_ASSERT(root >= 0 && root < n);
  this->root = root;
  std::fill(parent.begin(), parent.end(), -2);
  order[0] = root;
  parent[root] = -1;
  int tail = 1;
  for (int i = 0; i < tail; ++i) {
    const int u = order[i];
    first_child[i] = tail;
    for (int k = adj_off[u]; k < adj_off[u + 1]; ++k) {
      const int v = adj[k];
      if (parent[v] == -2) {
        parent[v] = u;
        order[tail++] = v;
      }
    }
  }
  DIRANT_ASSERT_MSG(tail == n, "tree is not connected");
  first_child[n] = n;
  for (int i = 0; i < n; ++i) pos_of[order[i]] = i;
}

void sort_ccw(std::span<const geom::Point> pts, int u, double ref_theta,
              std::span<const int> kids, int* out, double* angle,
              double* off) {
  // Stable insertion sort: child lists of degree-bounded trees are tiny.
  for (int i = 0; i < static_cast<int>(kids.size()); ++i) {
    const int v = kids[i];
    const double th = geom::angle_to(pts[u], pts[v]);
    double d = geom::ccw_delta(ref_theta, th);
    if (d == 0.0) d = kTwoPi;  // a child exactly on the ray goes last
    int j = i;
    while (j > 0 && off[j - 1] > d) {
      out[j] = out[j - 1];
      angle[j] = angle[j - 1];
      off[j] = off[j - 1];
      --j;
    }
    out[j] = v;
    angle[j] = th;
    off[j] = d;
  }
}

}  // namespace dirant::mst
