#include "core/session.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "core/planner.hpp"
#include "core/registry.hpp"
#include "core/two_antennae.hpp"
#include "parallel/thread_pool.hpp"

namespace dirant::core {

namespace {

/// The documented contract ("tree must span pts") was previously unchecked:
/// a mismatched tree walked out of bounds.  O(n) node-count and edge-index
/// validation; always on, consistent with the library's contract style.
/// Applied to caller-provided trees only — the session's own EMST satisfies
/// it by construction, so the steady-state orient() path skips the scan.
void check_tree_spans(std::span<const geom::Point> pts,
                      const mst::Tree& tree) {
  const int n = static_cast<int>(pts.size());
  DIRANT_ASSERT_MSG(tree.n == n, "tree must span pts: node count mismatch");
  DIRANT_ASSERT_MSG(static_cast<int>(tree.edges.size()) == std::max(0, n - 1),
                    "tree must span pts: edge count != n-1");
  for (const auto& e : tree.edges) {
    DIRANT_ASSERT_MSG(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n,
                      "tree must span pts: edge index out of bounds");
  }
}

}  // namespace

PlanSession::PlanSession() = default;
PlanSession::PlanSession(mst::EngineConfig engine_cfg)
    : engine_(engine_cfg) {}
PlanSession::~PlanSession() = default;

const Result& PlanSession::orient(std::span<const geom::Point> pts,
                                  const ProblemSpec& spec) {
  DIRANT_ASSERT_MSG(!pts.empty(), "empty sensor set");
  engine_.degree5(pts, tree_, emst_scratch_);
  return run(planned_algorithm(spec), pts, tree_, spec);
}

const Result& PlanSession::orient_on_tree(std::span<const geom::Point> pts,
                                          const mst::Tree& tree,
                                          const ProblemSpec& spec) {
  check_tree_spans(pts, tree);
  return run(planned_algorithm(spec), pts, tree, spec);
}

void PlanSession::orient(std::span<const geom::Point> pts,
                         const ProblemSpec& spec, const PlanRows& rows) {
  DIRANT_ASSERT_MSG(!pts.empty(), "empty sensor set");
  engine_.degree5(pts, tree_, emst_scratch_);
  run(planned_algorithm(spec), pts, tree_, spec, rows);
}

void PlanSession::orient_on_emst(std::span<const geom::Point> pts,
                                 const mst::Tree& emst,
                                 const ProblemSpec& spec,
                                 const PlanRows& rows) {
  check_tree_spans(pts, emst);
  // Copy into the session tree so degree repair can rewire in place without
  // mutating the caller's tree; assign reuses the warm edge capacity.
  tree_.n = emst.n;
  tree_.edges.assign(emst.edges.begin(), emst.edges.end());
  enforce_max_degree(pts, tree_, 5, emst_scratch_.repair);
  run(planned_algorithm(spec), pts, tree_, spec, rows);
}

bool PlanSession::orient_warm(const ProblemSpec& spec, TwoAntennaeMemory& mem,
                              const OrientWarmDelta& delta, Result& plan) {
  const Algorithm algo = planned_algorithm(spec);
  if (algo != Algorithm::kTwoPart1 && algo != Algorithm::kTwoPart2) {
    return false;
  }
  return orient_two_antennae_warm(spec.phi, scratch_, mem, delta, plan);
}

const Result& PlanSession::orient_with(Algorithm algo,
                                       std::span<const geom::Point> pts,
                                       const mst::Tree& tree,
                                       const ProblemSpec& spec) {
  check_tree_spans(pts, tree);
  return run(algo, pts, tree, spec);
}

const Result& PlanSession::run(Algorithm algo,
                               std::span<const geom::Point> pts,
                               const mst::Tree& tree,
                               const ProblemSpec& spec) {
  algorithm_info(algo).orient(*this, pts, tree, spec, result_);
  return result_;
}

void PlanSession::run(Algorithm algo, std::span<const geom::Point> pts,
                      const mst::Tree& tree, const ProblemSpec& spec,
                      const PlanRows& rows) {
  DIRANT_ASSERT(rows.row_of.size() == pts.size());
  if (algo == Algorithm::kTwoPart1 || algo == Algorithm::kTwoPart2) {
    orient_two_antennae(pts, tree, spec.phi, scratch_, *rows.plan,
                        rows.row_of, rows.changed);
    return;
  }
  const Result& res = run(algo, pts, tree, spec);
  Result& plan = *rows.plan;
  auto& changed = *rows.changed;
  changed.clear();
  for (int v = 0; v < static_cast<int>(pts.size()); ++v) {
    const int u = rows.row_of[v];
    if (plan.orientation.sync_node(u, res.orientation, v)) {
      changed.push_back(u);
    }
  }
  std::sort(changed.begin(), changed.end());
  plan.algorithm = res.algorithm;
  plan.bound_factor = res.bound_factor;
  plan.lmax = res.lmax;
  plan.cases = res.cases;
}

const Certificate& PlanSession::certify(std::span<const geom::Point> pts,
                                        const ProblemSpec& spec) {
  const int n = static_cast<int>(pts.size());
  certificate_ = core::certify(pts, result_, spec, n >= kCertifyFastThreshold,
                               certify_scratch_, threads_, pool_.get());
  return certificate_;
}

const Result& PlanSession::orient_adaptive(std::span<const geom::Point> pts,
                                           const mst::Tree& tree,
                                           double phi) {
  check_tree_spans(pts, tree);
  orient_two_antennae_adaptive(pts, tree, phi, scratch_, adaptive_cands_,
                               result_, result_alt_);
  return result_;
}

void PlanSession::set_threads(int threads) {
  threads_ = par::ensure_pool(pool_, threads);
}

void PlanSession::set_budgets(std::span<const NodeBudget> budgets) {
  budgets_.assign(budgets.begin(), budgets.end());
}

std::span<const NodeBudget> PlanSession::uniform_budgets(int n, NodeBudget b) {
  uniform_budgets_.assign(n, b);
  return uniform_budgets_;
}

}  // namespace dirant::core
