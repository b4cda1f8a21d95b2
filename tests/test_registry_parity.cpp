// The AlgorithmRegistry must be a faithful, drift-proof encoding of the
// planner's former hand-written switches: selection and guaranteed bound
// factors are asserted bit-identical to a verbatim copy of the pre-refactor
// logic across a dense (k, phi) grid.  Also covers the registry's
// structural invariants, the extension planners' free functions (the
// names their results carry come from the registry), and the
// orient_on_tree spanning-tree contract (bugfix: it was documented but
// never checked).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/constants.hpp"
#include "core/heterogeneous.hpp"
#include "core/one_antenna.hpp"
#include "core/planner.hpp"
#include "core/registry.hpp"
#include "core/resilient.hpp"
#include "core/session.hpp"
#include "core/two_antennae.hpp"
#include "core/validate.hpp"
#include "core/yao_baseline.hpp"
#include "geometry/generators.hpp"
#include "mst/degree5.hpp"

namespace {

namespace core = dirant::core;
namespace geom = dirant::geom;
namespace mst = dirant::mst;
using core::Algorithm;
using dirant::kPi;
using dirant::kTwoPi;

// ---- verbatim copy of the pre-refactor planner switches ------------------

constexpr double kEps = 1e-12;

double legacy_theorem2_threshold(int k) { return 2.0 * kPi * (5 - k) / 5.0; }

Algorithm legacy_planned_algorithm(const core::ProblemSpec& spec) {
  const int k = spec.k;
  const double phi = spec.phi;
  if (phi >= legacy_theorem2_threshold(k) - kEps) {
    return k == 5 ? Algorithm::kFiveZero : Algorithm::kTheorem2;
  }
  switch (k) {
    case 1:
      if (phi >= kPi - kEps) return Algorithm::kOneAntennaMid;
      return Algorithm::kBtspCycle;
    case 2:
      if (phi >= kPi - kEps) return Algorithm::kTwoPart1;
      if (phi >= 2.0 * kPi / 3.0 - kEps) return Algorithm::kTwoPart2;
      return Algorithm::kBtspCycle;
    case 3:
      return Algorithm::kThreeZero;
    case 4:
      return Algorithm::kFourZero;
    default:
      return Algorithm::kFiveZero;
  }
}

double legacy_guaranteed_bound_factor(const core::ProblemSpec& spec) {
  switch (legacy_planned_algorithm(spec)) {
    case Algorithm::kTheorem2:
    case Algorithm::kFiveZero:
      return 1.0;
    case Algorithm::kOneAntennaMid:
      return core::one_antenna_mid_bound_factor(spec.phi);
    case Algorithm::kTwoPart1:
    case Algorithm::kTwoPart2:
      return core::theorem3_bound_factor(spec.phi);
    case Algorithm::kThreeZero:
      return std::sqrt(3.0);
    case Algorithm::kFourZero:
      return std::sqrt(2.0);
    default:
      return std::numeric_limits<double>::infinity();
  }
}

std::vector<double> phi_grid() {
  std::vector<double> phis;
  constexpr int kSteps = 4096;
  for (int i = 0; i <= kSteps; ++i) {
    phis.push_back(kTwoPi * i / kSteps);
  }
  // The regime boundaries, straddled from both sides at several scales.
  std::vector<double> edges = {kPi, 2.0 * kPi / 3.0};
  for (int k = 1; k <= 5; ++k) edges.push_back(legacy_theorem2_threshold(k));
  for (double e : edges) {
    for (double d : {0.0, 1e-15, 1e-13, 1e-12, 1e-9, 1e-6}) {
      if (e - d >= 0.0) phis.push_back(e - d);
      if (e + d <= kTwoPi) phis.push_back(e + d);
    }
  }
  return phis;
}

TEST(RegistryParity, SelectionMatchesLegacySwitchOnDenseGrid) {
  int checked = 0;
  for (int k = 1; k <= 5; ++k) {
    for (double phi : phi_grid()) {
      const core::ProblemSpec spec{k, phi};
      ASSERT_EQ(core::planned_algorithm(spec), legacy_planned_algorithm(spec))
          << "k=" << k << " phi=" << phi;
      ++checked;
    }
  }
  EXPECT_GT(checked, 5 * 4096);
}

TEST(RegistryParity, BoundFactorsBitIdenticalToLegacySwitch) {
  for (int k = 1; k <= 5; ++k) {
    for (double phi : phi_grid()) {
      const core::ProblemSpec spec{k, phi};
      const double registry = core::guaranteed_bound_factor(spec);
      const double legacy = legacy_guaranteed_bound_factor(spec);
      // Bit-identical, not approximately equal: the registry must evaluate
      // the same expressions the switch did.
      ASSERT_EQ(registry, legacy) << "k=" << k << " phi=" << phi;
    }
  }
}

// ---- registry structural invariants --------------------------------------

TEST(Registry, DescriptorsCoverEveryAlgorithmInOrder) {
  const auto reg = core::algorithm_registry();
  ASSERT_EQ(static_cast<int>(reg.size()), core::kAlgorithmCount);
  std::set<std::string> names;
  for (int i = 0; i < static_cast<int>(reg.size()); ++i) {
    EXPECT_EQ(static_cast<int>(reg[i].algo), i) << "registry out of order";
    EXPECT_NE(reg[i].name, nullptr);
    EXPECT_NE(reg[i].bound_factor, nullptr);
    EXPECT_TRUE(names.insert(reg[i].name).second)
        << "duplicate registry name " << reg[i].name;
    EXPECT_STREQ(core::to_string(reg[i].algo), reg[i].name);
  }
}

TEST(Registry, SelectionRowsReferenceDispatchableDescriptorsOnly) {
  std::set<Algorithm> selected;
  for (const auto& row : core::selection_table()) {
    EXPECT_GE(row.k, 1);
    EXPECT_LE(row.k, 5);
    EXPECT_GE(row.phi_lo, 0.0);
    EXPECT_NE(core::algorithm_info(row.algo).orient, nullptr)
        << core::to_string(row.algo);
    selected.insert(row.algo);
  }
  // Every selection row has a dispatch function; the extension rows have
  // none (they run through their own free functions).
  for (const auto& info : core::algorithm_registry()) {
    EXPECT_EQ(info.orient != nullptr, selected.count(info.algo) == 1)
        << info.name;
  }
  // Rows of one k are ordered by descending phi_lo and end in a phi_lo-0
  // catch-all, so every (k, phi) matches some row.
  for (int k = 1; k <= 5; ++k) {
    double prev = std::numeric_limits<double>::infinity();
    bool has_zero = false;
    for (const auto& row : core::selection_table()) {
      if (row.k != k) continue;
      EXPECT_LT(row.phi_lo, prev) << "rows for k=" << k << " not descending";
      prev = row.phi_lo;
      has_zero = has_zero || row.phi_lo == 0.0;
    }
    EXPECT_TRUE(has_zero) << "no catch-all row for k=" << k;
  }
}

// ---- extension planners -------------------------------------------------

TEST(Registry, ExtensionPlannersRunThroughTheirFreeFunctions) {
  geom::Rng rng(2024);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 40, rng);
  const auto tree = mst::degree5_emst(pts);

  const auto yao = core::orient_yao(pts, 6, /*phase=*/0.0, tree.lmax());
  EXPECT_EQ(yao.algorithm, Algorithm::kYaoBaseline);
  EXPECT_GT(yao.orientation.total_antennas(), 0);

  const auto bidir = core::orient_bidirectional_cycle(pts, tree);
  EXPECT_EQ(bidir.algorithm, Algorithm::kBidirCycle);
  EXPECT_EQ(bidir.orientation.total_antennas(), 2 * 40);
  EXPECT_TRUE(core::certify(pts, bidir, {2, 0.0}).strongly_connected);

  // A uniform (5, 0) fleet: five antennae cover any degree-5 node.
  const std::vector<core::NodeBudget> budgets(pts.size(), {5, 0.0});
  const auto het = core::orient_heterogeneous(pts, tree, budgets);
  EXPECT_EQ(het.result.algorithm, Algorithm::kHeterogeneous);
  EXPECT_TRUE(het.feasible);
  EXPECT_TRUE(het.deficient.empty());
}

// ---- orient_on_tree spanning contract (bugfix) ---------------------------

TEST(OrientOnTree, RejectsTreeWithWrongNodeCount) {
  geom::Rng rng(7);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 20, rng);
  const auto small = std::vector<geom::Point>(pts.begin(), pts.end() - 5);
  const auto tree = mst::degree5_emst(small);  // spans 15 points, not 20
  EXPECT_THROW(core::orient_on_tree(pts, tree, {2, kPi}),
               dirant::contract_violation);
}

TEST(OrientOnTree, RejectsOutOfBoundsEdgeIndices) {
  geom::Rng rng(8);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 12, rng);
  auto tree = mst::degree5_emst(pts);
  tree.edges[3].v = 12;  // out of [0, n)
  EXPECT_THROW(core::orient_on_tree(pts, tree, {3, 0.0}),
               dirant::contract_violation);
  tree.edges[3].v = -1;
  EXPECT_THROW(core::orient_on_tree(pts, tree, {3, 0.0}),
               dirant::contract_violation);
}

TEST(OrientOnTree, RejectsWrongEdgeCount) {
  geom::Rng rng(9);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 12, rng);
  auto tree = mst::degree5_emst(pts);
  tree.edges.pop_back();  // 10 edges over 12 nodes: cannot span
  EXPECT_THROW(core::orient_on_tree(pts, tree, {5, 0.0}),
               dirant::contract_violation);
}

TEST(OrientOnTree, AcceptsSpanningTreeUnchanged) {
  geom::Rng rng(10);
  const auto pts =
      geom::make_instance(geom::Distribution::kUniformSquare, 30, rng);
  const auto tree = mst::degree5_emst(pts);
  const auto res = core::orient_on_tree(pts, tree, {2, kPi});
  EXPECT_EQ(res.algorithm, Algorithm::kTwoPart1);
  EXPECT_GT(res.orientation.total_antennas(), 0);
}

}  // namespace
