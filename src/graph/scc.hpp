#pragma once
/// \file scc.hpp
/// Strong connectivity: the certification primitive for every orientation
/// algorithm in this library (the paper's goal is a strongly connected
/// transmission graph).

#include <span>
#include <vector>

#include "common/workspace.hpp"
#include "graph/digraph.hpp"

namespace dirant::graph {

/// Result of a strongly-connected-components decomposition.
struct SccResult {
  int count = 0;
  std::vector<int> component;  ///< component id per vertex, 0-based
};

/// Working memory for Tarjan's algorithm (per vertex: a packed state word,
/// the low link, the stack and the DFS frames), borrowed per call from a
/// private Workspace or one a session shares (`ws.share`); a warm instance
/// decomposes graphs up to the largest seen without allocating.
struct SccScratch {
  /// Explicit DFS frame holding the unvisited remainder of v's edge row.
  struct Frame {
    int v;
    const int* next;
    const int* end;
  };
  WorkspaceSource ws;
};

/// Tarjan's algorithm (iterative) into caller-owned result + scratch;
/// allocation-free once the buffers have capacity.  Component ids are in
/// reverse topological order of the condensation.
void strongly_connected_components(const Digraph& g, SccScratch& scratch,
                                   SccResult& out);

/// Convenience overload with call-local scratch.
SccResult strongly_connected_components(const Digraph& g);

/// Number of strongly connected components only — same Tarjan pass without
/// materialising per-vertex component ids.  The certification hot path
/// (strongly connected iff the count is <= 1) uses this.
int scc_count(const Digraph& g, SccScratch& scratch);

/// Full decomposition plus the id of a largest component (ties broken by
/// smallest component id, so the answer is deterministic for a fixed
/// graph).  `sizes` is caller-owned scratch filled with per-component
/// vertex counts; returns -1 for the empty graph.  Degradation reporting
/// (sim::ChurnEngine) reads coverage as sizes[returned id] / n and collects
/// the stranded vertices as those labelled otherwise.
int largest_scc(const Digraph& g, SccScratch& scratch, SccResult& out,
                std::vector<int>& sizes);

/// `largest_scc` of a vertex-masked view of `g`: vertices with
/// `!present[v]` are left out (label -1, in no component), and those with
/// `isolated[v]` stay in but keep no edge, in or out — each is a singleton
/// component.  Labels, the count and the answer are those of `largest_scc`
/// over the present vertices compacted in id order with the isolated ones'
/// edges dropped, up to that monotone relabelling — so a frozen subgraph
/// (sim::ChurnEngine's pre-repair audit) is decomposed in place, without a
/// copy.
int largest_scc(const Digraph& g, std::span<const char> present,
                std::span<const char> isolated, SccScratch& scratch,
                SccResult& out, std::vector<int>& sizes);

/// True iff `g` is strongly connected (n <= 1 counts as strongly connected).
/// Fast path: forward BFS from vertex 0, then backward BFS on the O(m)
/// CSR transpose.
bool is_strongly_connected(const Digraph& g);

/// Caller-owned working memory for the reachability-based strong
/// connectivity test (seen marks + DFS stack).  Audit loops that probe many
/// vertex deletions keep one instance alive so every probe is
/// allocation-free.
struct ReachScratch {
  std::vector<char> seen;
  std::vector<int> stack;
};

/// Scratch-taking strong connectivity test over a precomputed transpose.
/// The convenience overload above allocates two BFS buffers and rebuilds
/// the O(m) transpose per call; this form hoists both — deletion-probe
/// audits (sim::AuditSession::strong_connectivity_level) share one cached
/// transpose across every probe.  `removed`, when non-null, is an n-entry
/// mask of deleted vertices: the test then answers whether the surviving
/// induced subgraph is strongly connected (<= 1 survivor counts as
/// strongly connected).
bool is_strongly_connected(const Digraph& g, const Digraph& transpose,
                           ReachScratch& scratch,
                           const char* removed = nullptr);

}  // namespace dirant::graph
