#pragma once
/// \file digraph.hpp
/// Compressed-sparse-row graphs.  `Digraph` models the transmission graph
/// induced by oriented antennae (paper §1.1: edge u->v iff v lies in some
/// sector of u); `Graph` is its undirected counterpart used for MSTs and
/// threshold graphs.
///
/// Both classes are immutable once constructed: edges live in one flat
/// `targets_` array indexed by a per-vertex `offsets_` prefix table, so a
/// graph is two allocations total and traversals are a linear scan.  Hot
/// producers (transmission-graph construction, per-trial subgraphs) emit
/// offsets/targets directly and adopt them via the CSR constructor; the few
/// incremental call sites (tests, threshold graphs, tree views) go through
/// `DigraphBuilder`/`GraphBuilder`, which buffer (u, v) pairs and finish
/// with one counting sort.

#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace dirant::graph {

/// Directed graph in CSR form with a fixed vertex count.
class Digraph {
 public:
  explicit Digraph(int n = 0) : offsets_(static_cast<size_t>(n) + 1, 0) {
    DIRANT_ASSERT(n >= 0);
  }

  /// Adopts prebuilt CSR arrays: `offsets` has n+1 monotone entries starting
  /// at 0 and ending at `targets.size()`.  The single-pass producers
  /// (induced digraph builders, subgraph extraction) use this to turn their
  /// scratch buffers into a graph without copying.
  Digraph(std::vector<int> offsets, std::vector<int> targets)
      : offsets_(std::move(offsets)), targets_(std::move(targets)) {
    DIRANT_ASSERT(!offsets_.empty() && offsets_.front() == 0 &&
                  offsets_.back() == static_cast<int>(targets_.size()));
  }

  /// A released-from graph has an empty offsets table; it reads as the
  /// empty graph (size 0) rather than tripping the n+1 invariant.
  int size() const {
    return offsets_.empty() ? 0 : static_cast<int>(offsets_.size()) - 1;
  }
  int edge_count() const { return static_cast<int>(targets_.size()); }

  std::span<const int> out(int u) const {
    DIRANT_ASSERT(valid(u));
    return {targets_.data() + offsets_[u],
            static_cast<size_t>(offsets_[u + 1] - offsets_[u])};
  }

  int out_degree(int u) const {
    DIRANT_ASSERT(valid(u));
    return offsets_[u + 1] - offsets_[u];
  }

  /// Global CSR position of `u`'s first out-edge: `out_offset(u) + i` is a
  /// stable per-edge id for the i-th entry of `out(u)` (the traffic
  /// engine's per-link channel state is keyed on it).
  int out_offset(int u) const {
    DIRANT_ASSERT(valid(u));
    return offsets_[u];
  }

  /// The whole CSR: n+1 prefix offsets and the flat target array.  In-place
  /// patchers (sim::ChurnEngine's row patch) copy unchanged spans of rows
  /// wholesale through these.
  std::span<const int> offsets() const { return offsets_; }
  std::span<const int> targets() const { return targets_; }

  /// The transpose graph (all edges reversed): O(n + m) counting pass
  /// straight into CSR.
  Digraph reversed() const {
    Digraph r;
    reversed_into(r);
    return r;
  }

  /// Transpose into `out`, reusing its storage.
  void reversed_into(Digraph& out) const {
    const int n = size();
    auto& roff = out.offsets_;
    auto& rtgt = out.targets_;
    roff.assign(static_cast<size_t>(n) + 1, 0);
    rtgt.resize(targets_.size());
    for (int v : targets_) ++roff[v + 1];
    for (int v = 0; v < n; ++v) roff[v + 1] += roff[v];
    for (int u = 0; u < n; ++u) {
      for (int k = offsets_[u]; k < offsets_[u + 1]; ++k) {
        rtgt[roff[targets_[k]]++] = u;
      }
    }
    // The fill advanced roff[v] to the end of v's range; shift back.
    for (int v = n; v > 0; --v) roff[v] = roff[v - 1];
    roff[0] = 0;
  }

  /// Maximum out-degree over all vertices.
  int max_out_degree() const {
    int d = 0;
    for (int u = 0; u < size(); ++u) d = std::max(d, out_degree(u));
    return d;
  }

  /// Moves the CSR arrays back out so a caller-owned scratch buffer can be
  /// reused for the next build (the inverse of the adopting constructor).
  /// Leaves this graph empty without touching the heap — `offsets_ = {0}`
  /// here used to cost one allocation per recycling round, the last one on
  /// the warm certify path.
  void release(std::vector<int>& offsets, std::vector<int>& targets) && {
    offsets = std::move(offsets_);
    targets = std::move(targets_);
    offsets_.clear();
    targets_.clear();
  }

 private:
  bool valid(int v) const { return v >= 0 && v < size(); }
  std::vector<int> offsets_;  ///< n+1 prefix sums into targets_
  std::vector<int> targets_;  ///< edge heads grouped by source
};

/// Append-mode builder for `Digraph`: buffers (u, v) pairs and produces the
/// CSR graph with one stable counting sort.  Intended for the incremental
/// call sites (tests, small constructions); bulk producers emit CSR
/// directly.
class DigraphBuilder {
 public:
  explicit DigraphBuilder(int n) : n_(n) { DIRANT_ASSERT(n >= 0); }

  void add_edge(int u, int v) {
    DIRANT_ASSERT(u >= 0 && u < n_ && v >= 0 && v < n_);
    edges_.emplace_back(u, v);
  }

  int size() const { return n_; }

  Digraph build() const {
    std::vector<int> offsets(static_cast<size_t>(n_) + 1, 0);
    for (const auto& [u, v] : edges_) ++offsets[u + 1];
    for (int u = 0; u < n_; ++u) offsets[u + 1] += offsets[u];
    std::vector<int> targets(edges_.size());
    for (const auto& [u, v] : edges_) targets[offsets[u]++] = v;
    for (int u = n_; u > 0; --u) offsets[u] = offsets[u - 1];
    offsets[0] = 0;
    return Digraph(std::move(offsets), std::move(targets));
  }

 private:
  int n_;
  std::vector<std::pair<int, int>> edges_;
};

/// Undirected graph in CSR form (each edge appears in both endpoint rows).
class Graph {
 public:
  explicit Graph(int n = 0) : offsets_(static_cast<size_t>(n) + 1, 0) {
    DIRANT_ASSERT(n >= 0);
  }

  /// Adopts prebuilt CSR arrays; `targets` must already contain both
  /// directions of every edge.
  Graph(std::vector<int> offsets, std::vector<int> targets)
      : offsets_(std::move(offsets)), targets_(std::move(targets)) {
    DIRANT_ASSERT(!offsets_.empty() && offsets_.front() == 0 &&
                  offsets_.back() == static_cast<int>(targets_.size()));
  }

  int size() const { return static_cast<int>(offsets_.size()) - 1; }
  int edge_count() const { return static_cast<int>(targets_.size()) / 2; }

  std::span<const int> neighbors(int u) const {
    DIRANT_ASSERT(valid(u));
    return {targets_.data() + offsets_[u],
            static_cast<size_t>(offsets_[u + 1] - offsets_[u])};
  }

  int degree(int u) const {
    DIRANT_ASSERT(valid(u));
    return offsets_[u + 1] - offsets_[u];
  }

  int max_degree() const {
    int d = 0;
    for (int u = 0; u < size(); ++u) d = std::max(d, degree(u));
    return d;
  }

 private:
  bool valid(int v) const { return v >= 0 && v < size(); }
  std::vector<int> offsets_;
  std::vector<int> targets_;
};

/// Append-mode builder for `Graph`; mirrors `DigraphBuilder`.
class GraphBuilder {
 public:
  explicit GraphBuilder(int n) : n_(n) { DIRANT_ASSERT(n >= 0); }

  void add_edge(int u, int v) {
    DIRANT_ASSERT(u >= 0 && u < n_ && v >= 0 && v < n_ && u != v);
    edges_.emplace_back(u, v);
  }

  int size() const { return n_; }

  Graph build() const {
    std::vector<int> offsets(static_cast<size_t>(n_) + 1, 0);
    for (const auto& [u, v] : edges_) {
      ++offsets[u + 1];
      ++offsets[v + 1];
    }
    for (int u = 0; u < n_; ++u) offsets[u + 1] += offsets[u];
    std::vector<int> targets(edges_.size() * 2);
    for (const auto& [u, v] : edges_) {
      targets[offsets[u]++] = v;
      targets[offsets[v]++] = u;
    }
    for (int u = n_; u > 0; --u) offsets[u] = offsets[u - 1];
    offsets[0] = 0;
    return Graph(std::move(offsets), std::move(targets));
  }

 private:
  int n_;
  std::vector<std::pair<int, int>> edges_;
};

}  // namespace dirant::graph
