#include "core/heterogeneous.hpp"

#include <algorithm>
#include <string>

#include "common/assert.hpp"
#include "core/lemma1.hpp"

namespace dirant::core {

using geom::Point;

HeterogeneousResult orient_heterogeneous(std::span<const Point> pts,
                                         const mst::Tree& tree,
                                         std::span<const NodeBudget> budgets) {
  DIRANT_ASSERT(budgets.size() == pts.size());
  const auto adj = tree.adjacency();
  size_t max_deg = 0;
  for (const auto& nbrs : adj) max_deg = std::max(max_deg, nbrs.size());
  DIRANT_ASSERT_MSG(max_deg <= 5, "needs a degree-5 MST");
  const int n = static_cast<int>(pts.size());

  int max_k = 1;
  for (const auto& b : budgets) max_k = std::max(max_k, b.k);
  HeterogeneousResult out;
  Result& res = out.result;
  reset_result(res, n, std::min(max_k, 6), Algorithm::kHeterogeneous,
               /*bound_factor=*/1.0, tree.lmax());

  std::vector<Point> targets;
  Lemma1Scratch lemma1;
  std::vector<geom::Sector> cover;
  bool feasible = true;
  for (int u = 0; u < n; ++u) {
    const int d = static_cast<int>(adj[u].size());
    if (d == 0) continue;
    const auto& b = budgets[u];
    DIRANT_ASSERT(b.k >= 1);
    targets.clear();
    for (int v : adj[u]) targets.push_back(pts[v]);
    lemma1_cover(pts[u], targets, b.k, lemma1, cover);
    double spread = 0.0;
    for (const auto& s : cover) spread += s.width;
    if (spread > b.phi + 1e-9) {
      feasible = false;
      out.deficient.push_back(u);
      out.missing_spread.push_back(spread - b.phi);
      res.cases.bump("deficient");
      continue;
    }
    for (const auto& s : cover) res.orientation.add(u, s);
    res.cases.bump("deg" + std::to_string(d) + "-k" + std::to_string(b.k));
  }
  out.feasible = feasible;
  res.measured_radius = res.orientation.max_radius();
  return out;
}

}  // namespace dirant::core
