#include "graph/traversal.hpp"

#include <algorithm>

namespace dirant::graph {
namespace {

// BFS over any adjacency accessor into caller-owned dist + queue.  The
// queue is a plain vector with a read head: vertices are appended once and
// never erased, so no ring buffer or deque is needed.
template <typename Adjacency>
void bfs_impl(int n, int source, Adjacency&& adj, std::vector<int>& dist,
              BfsScratch& scratch) {
  dist.assign(n, -1);
  if (n == 0) return;
  auto& q = scratch.queue;
  q.clear();
  dist[source] = 0;
  q.push_back(source);
  for (size_t head = 0; head < q.size(); ++head) {
    const int u = q[head];
    for (int v : adj(u)) {
      if (dist[v] == -1) {
        dist[v] = dist[u] + 1;
        q.push_back(v);
      }
    }
  }
}

/// True iff the undirected graph is connected (n <= 1 is connected).
bool is_connected(const Graph& g) {
  if (g.size() <= 1) return true;
  const auto d = bfs_distances(g, 0);
  return std::none_of(d.begin(), d.end(), [](int x) { return x == -1; });
}

}  // namespace

void bfs_distances(const Digraph& g, int source, std::vector<int>& dist,
                   BfsScratch& scratch) {
  bfs_impl(g.size(), source, [&](int u) { return g.out(u); }, dist, scratch);
}

std::vector<int> bfs_distances(const Digraph& g, int source) {
  std::vector<int> dist;
  BfsScratch scratch;
  bfs_distances(g, source, dist, scratch);
  return dist;
}

void bfs_distances(const Graph& g, int source, std::vector<int>& dist,
                   BfsScratch& scratch) {
  bfs_impl(g.size(), source, [&](int u) { return g.neighbors(u); }, dist,
           scratch);
}

std::vector<int> bfs_distances(const Graph& g, int source) {
  std::vector<int> dist;
  BfsScratch scratch;
  bfs_distances(g, source, dist, scratch);
  return dist;
}

bool is_biconnected(const Graph& g) {
  const int n = g.size();
  if (n <= 1) return true;
  if (n == 2) return g.degree(0) >= 1;
  if (!is_connected(g)) return false;
  // Hopcroft–Tarjan articulation detection, iterative DFS from vertex 0.
  std::vector<int> disc(n, -1), low(n, 0), parent(n, -1);
  std::vector<int> child_pos(n, 0);
  int timer = 0;
  std::vector<int> stack{0};
  disc[0] = low[0] = timer++;
  int root_children = 0;
  while (!stack.empty()) {
    const int u = stack.back();
    const auto nb = g.neighbors(u);
    if (child_pos[u] < static_cast<int>(nb.size())) {
      const int v = nb[child_pos[u]++];
      if (disc[v] == -1) {
        parent[v] = u;
        disc[v] = low[v] = timer++;
        if (u == 0) ++root_children;
        stack.push_back(v);
      } else if (v != parent[u]) {
        low[u] = std::min(low[u], disc[v]);
      }
    } else {
      stack.pop_back();
      if (!stack.empty()) {
        const int p = stack.back();
        low[p] = std::min(low[p], low[u]);
        if (p != 0 && low[u] >= disc[p]) return false;  // articulation at p
      }
    }
  }
  return root_children <= 1;
}

}  // namespace dirant::graph
