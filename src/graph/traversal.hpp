#pragma once
/// \file traversal.hpp
/// BFS utilities over directed and undirected graphs: hop distances (used by
/// the network simulator for stretch measurements) and the biconnectivity
/// check (used by the bottleneck-TSP lower bound).

#include <vector>

#include "graph/digraph.hpp"

namespace dirant::graph {

/// Caller-owned BFS working memory (the frontier queue).  Loops that run
/// many traversals (flooding, stretch sampling, routing stats) keep one
/// instance alive so each BFS is allocation-free.
struct BfsScratch {
  std::vector<int> queue;
};

/// Hop distance from `source` to every vertex following out-edges
/// (-1 where unreachable), written into caller-owned `dist`.
void bfs_distances(const Digraph& g, int source, std::vector<int>& dist,
                   BfsScratch& scratch);

/// Convenience overload with call-local buffers.
std::vector<int> bfs_distances(const Digraph& g, int source);

/// Undirected variants.
void bfs_distances(const Graph& g, int source, std::vector<int>& dist,
                   BfsScratch& scratch);
std::vector<int> bfs_distances(const Graph& g, int source);

/// True iff the undirected graph is 2-vertex-connected (biconnected).
/// n <= 2 requires a direct edge for n == 2; n <= 1 is biconnected.
bool is_biconnected(const Graph& g);

}  // namespace dirant::graph
