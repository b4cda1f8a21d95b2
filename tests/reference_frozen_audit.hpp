#pragma once
// Test-only reference for sim::ChurnEngine's frozen-survivor audit: the
// straightforward construction the engine answered with before it read the
// answer off its certificate's witness trees.  Copy the previous certified
// digraph restricted to stable nodes (alive in both batches, not moved,
// not recovered) into a frozen CSR over the survivors, run Tarjan's
// largest-SCC pass on it, and read coverage, the stranded list and the
// k-level probe off that.  Same pattern as reference_edge_pool.hpp: the
// engine must agree with it field by field on every step.

#include <vector>

#include "graph/digraph.hpp"
#include "graph/scc.hpp"
#include "sim/churn.hpp"

namespace dirant::test {

/// The certified rows of `eng` (original ids), copied out before a step.
inline std::vector<std::vector<int>> certified_rows(
    const sim::ChurnEngine& eng) {
  std::vector<std::vector<int>> rows;
  const auto& g = eng.certified_digraph();
  for (int u = 0; u < g.size(); ++u) {
    rows.emplace_back(g.out(u).begin(), g.out(u).end());
  }
  return rows;
}

/// The audit of the step `eng` just ran, from the rows it certified before
/// that step.  `probe` mirrors ChurnOptions::probe_k_level.
inline sim::DegradedReport reference_frozen_audit(
    const std::vector<std::vector<int>>& prev_rows,
    const sim::ChurnEngine& eng, bool probe) {
  const int n = eng.size();
  const auto& alive = eng.alive();
  std::vector<char> changed(n, 0);
  for (const auto& ae : eng.last_report().events) {
    if (!ae.applied) continue;
    if (ae.event.kind == sim::ChurnEventKind::kMove ||
        ae.event.kind == sim::ChurnEventKind::kRecover) {
      changed[ae.event.node] = 1;
    }
  }
  std::vector<int> orig_of, comp_of(n, -1);
  for (int u = 0; u < n; ++u) {
    if (!alive[u]) continue;
    comp_of[u] = static_cast<int>(orig_of.size());
    orig_of.push_back(u);
  }
  const int m = static_cast<int>(orig_of.size());
  std::vector<int> offsets{0}, targets;
  for (int c = 0; c < m; ++c) {
    const int u = orig_of[c];
    if (!changed[u]) {
      for (int v : prev_rows[u]) {
        if (alive[v] && !changed[v]) targets.push_back(comp_of[v]);
      }
    }
    offsets.push_back(static_cast<int>(targets.size()));
  }
  const graph::Digraph frozen(std::move(offsets), std::move(targets));
  graph::SccScratch scratch;
  graph::SccResult scc;
  std::vector<int> sizes;
  const int best = graph::largest_scc(frozen, scratch, scc, sizes);

  sim::DegradedReport d;
  d.largest_scc = best < 0 ? 0 : sizes[best];
  d.coverage_fraction = m > 0 ? static_cast<double>(d.largest_scc) / m : 0.0;
  d.degraded = d.largest_scc < m;
  for (int c = 0; c < m; ++c) {
    if (scc.component[c] != best) d.stranded.push_back(orig_of[c]);
  }
  d.k_level = -1;
  if (probe) {
    if (d.largest_scc < m) {
      d.k_level = 0;
    } else {
      d.k_level = 1;
      const graph::Digraph transpose = frozen.reversed();
      graph::ReachScratch reach;
      std::vector<char> removed(m, 0);
      bool robust = true;
      for (int c = 0; c < m && robust; ++c) {
        removed[c] = 1;
        robust = graph::is_strongly_connected(frozen, transpose, reach,
                                              removed.data());
        removed[c] = 0;
      }
      if (robust) d.k_level = 2;
    }
  }
  return d;
}

}  // namespace dirant::test
