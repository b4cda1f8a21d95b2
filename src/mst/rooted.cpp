#include "mst/rooted.hpp"

#include "common/assert.hpp"
#include "common/constants.hpp"
#include "geometry/angle.hpp"

namespace dirant::mst {

void RootedTree::build_adjacency(const Tree& t) {
  // Counting sort by endpoint: each vertex's neighbours in edge order.
  const int n = t.n;
  adj_off_.assign(n + 1, 0);
  for (const auto& e : t.edges) {
    ++adj_off_[e.u + 1];
    ++adj_off_[e.v + 1];
  }
  for (int v = 0; v < n; ++v) adj_off_[v + 1] += adj_off_[v];
  adj_.resize(adj_off_[n]);
  auto& cursor = pos_of;  // refilled by bfs()
  cursor.assign(adj_off_.begin(), adj_off_.end() - 1);
  for (const auto& e : t.edges) {
    adj_[cursor[e.u]++] = e.v;
    adj_[cursor[e.v]++] = e.u;
  }
}

void RootedTree::bfs(int n, int root) {
  DIRANT_ASSERT(root >= 0 && root < n);
  this->root = root;
  parent.assign(n, -2);
  order.resize(n);
  first_child.resize(n + 1);
  order[0] = root;
  parent[root] = -1;
  int tail = 1;
  for (int i = 0; i < tail; ++i) {
    const int u = order[i];
    first_child[i] = tail;
    for (int k = adj_off_[u]; k < adj_off_[u + 1]; ++k) {
      const int v = adj_[k];
      if (parent[v] == -2) {
        parent[v] = u;
        order[tail++] = v;
      }
    }
  }
  DIRANT_ASSERT_MSG(tail == n, "tree is not connected");
  first_child[n] = n;
  pos_of.resize(n);
  for (int i = 0; i < n; ++i) pos_of[order[i]] = i;
}

void RootedTree::rebuild(const Tree& t, int root) {
  build_adjacency(t);
  bfs(t.n, root);
}

void RootedTree::rebuild_at_leaf(const Tree& t) {
  DIRANT_ASSERT(t.n >= 1);
  build_adjacency(t);
  int leaf = t.n == 1 ? 0 : -1;
  for (int v = 0; v < t.n && leaf < 0; ++v) {
    if (adj_off_[v + 1] - adj_off_[v] == 1) leaf = v;
  }
  DIRANT_ASSERT_MSG(leaf >= 0, "tree without a leaf");
  bfs(t.n, leaf);
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
