#include "mst/tree.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "graph/union_find.hpp"

namespace dirant::mst {

std::vector<std::vector<int>> Tree::adjacency() const {
  std::vector<std::vector<int>> adj(n);
  for (const auto& e : edges) {
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  return adj;
}

void Tree::adjacency_into(std::vector<std::vector<int>>& adj) const {
  adj.resize(n);
  for (auto& list : adj) {
    list.clear();
    // EMST degree is <= 6 before repair; pre-reserving keeps warm rebuilds
    // over different same-size trees allocation-free.
    if (list.capacity() < 6) list.reserve(6);
  }
  for (const auto& e : edges) {
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
}

void Tree::degrees_into(std::vector<int>& deg) const {
  deg.assign(n, 0);
  for (const auto& e : edges) {
    ++deg[e.u];
    ++deg[e.v];
  }
}

double Tree::total_weight() const {
  double w = 0.0;
  for (const auto& e : edges) w += e.length;
  return w;
}

double Tree::lmax() const {
  double m = 0.0;
  for (const auto& e : edges) m = std::max(m, e.length);
  return m;
}

int Tree::max_degree() const {
  const auto d = degrees();
  return d.empty() ? 0 : *std::max_element(d.begin(), d.end());
}

std::vector<int> Tree::degrees() const {
  std::vector<int> d(n, 0);
  for (const auto& e : edges) {
    ++d[e.u];
    ++d[e.v];
  }
  return d;
}

void Tree::validate(std::span<const geom::Point> pts) const {
  DIRANT_ASSERT(static_cast<int>(pts.size()) == n);
  DIRANT_ASSERT_MSG(static_cast<int>(edges.size()) == std::max(0, n - 1),
                    "tree must have n-1 edges");
  graph::UnionFind uf(n);
  for (const auto& e : edges) {
    DIRANT_ASSERT(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n && e.u != e.v);
    DIRANT_ASSERT_MSG(uf.unite(e.u, e.v), "cycle in tree");
    const double d = geom::dist(pts[e.u], pts[e.v]);
    DIRANT_ASSERT_MSG(std::abs(d - e.length) <= 1e-9 * (1.0 + d),
                      "edge length mismatch");
  }
  DIRANT_ASSERT_MSG(n == 0 || uf.components() == 1, "tree not connected");
}

}  // namespace dirant::mst
