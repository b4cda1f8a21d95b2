#include "core/registry.hpp"

#include <cmath>
#include <limits>

#include "common/assert.hpp"
#include "common/constants.hpp"
#include "core/four_antennae.hpp"
#include "core/one_antenna.hpp"
#include "core/session.hpp"
#include "core/theorem2.hpp"
#include "core/three_antennae.hpp"
#include "core/two_antennae.hpp"

namespace dirant::core {

namespace {

/// Theorem 2 activation threshold: phi_k >= 2*pi*(5-k)/5.
constexpr double theorem2_threshold(int k) {
  return 2.0 * kPi * (5 - k) / 5.0;
}

// ---- bound-factor column -------------------------------------------------

double bound_one(const ProblemSpec&) { return 1.0; }
double bound_inf(const ProblemSpec&) {
  return std::numeric_limits<double>::infinity();
}
double bound_one_mid(const ProblemSpec& spec) {
  return one_antenna_mid_bound_factor(spec.phi);
}
double bound_theorem3(const ProblemSpec& spec) {
  return theorem3_bound_factor(spec.phi);
}
double bound_sqrt3(const ProblemSpec&) { return std::sqrt(3.0); }
double bound_sqrt2(const ProblemSpec&) { return std::sqrt(2.0); }

// ---- construction column -------------------------------------------------

void run_theorem2(PlanSession& s, std::span<const geom::Point> pts,
                  const mst::Tree& tree, const ProblemSpec& spec,
                  Result& out) {
  orient_theorem2(pts, tree, spec.k, s.scratch(), out);
}
void run_one_mid(PlanSession& s, std::span<const geom::Point> pts,
                 const mst::Tree& tree, const ProblemSpec& spec, Result& out) {
  orient_one_antenna_mid(pts, tree, spec.phi, s.scratch(), out);
}
void run_two(PlanSession& s, std::span<const geom::Point> pts,
             const mst::Tree& tree, const ProblemSpec& spec, Result& out) {
  orient_two_antennae(pts, tree, spec.phi, s.scratch(), out);
}
void run_three(PlanSession& s, std::span<const geom::Point> pts,
               const mst::Tree& tree, const ProblemSpec&, Result& out) {
  orient_three_antennae(pts, tree, /*root=*/-1, s.scratch(), out);
}
void run_four(PlanSession& s, std::span<const geom::Point> pts,
              const mst::Tree& tree, const ProblemSpec&, Result& out) {
  orient_four_antennae(pts, tree, /*root=*/-1, s.scratch(), out);
}
void run_btsp(PlanSession& s, std::span<const geom::Point> pts,
              const mst::Tree& tree, const ProblemSpec&, Result& out) {
  orient_btsp_cycle(pts, tree, s.scratch(), out);
}

// ---- the registry --------------------------------------------------------

// Descriptor table, indexed by the Algorithm enum value (static_asserts
// below pin the order).  One row per Algorithm: name, guarantee, dispatch.
// The extension planners (Yao baseline, bidirected cycle, heterogeneous
// fleets) are named here for reporting only; they never win a selection
// and run through their own free functions, so they have no dispatch.
constexpr AlgorithmInfo kAlgorithms[] = {
    {Algorithm::kBtspCycle, "btsp-cycle[14]", bound_inf, run_btsp},
    {Algorithm::kOneAntennaMid, "one-antenna-mid[4]", bound_one_mid,
     run_one_mid},
    {Algorithm::kTwoPart1, "theorem3.1", bound_theorem3, run_two},
    {Algorithm::kTwoPart2, "theorem3.2", bound_theorem3, run_two},
    {Algorithm::kThreeZero, "theorem5", bound_sqrt3, run_three},
    {Algorithm::kFourZero, "theorem6", bound_sqrt2, run_four},
    {Algorithm::kFiveZero, "five-folklore", bound_one, run_theorem2},
    {Algorithm::kTheorem2, "theorem2", bound_one, run_theorem2},
    {Algorithm::kYaoBaseline, "yao-baseline", bound_inf, nullptr},
    {Algorithm::kBidirCycle, "btsp-bidir[c2]", bound_inf, nullptr},
    {Algorithm::kHeterogeneous, "heterogeneous", bound_one, nullptr},
};

static_assert(std::size(kAlgorithms) == kAlgorithmCount,
              "every Algorithm value needs a registry descriptor");

// Selection table: Table 1 rows, grouped by k and ordered within a k by
// descending phi_lo (the first row whose phi_lo the budget clears — with
// the planner's epsilon slack — wins).  theorem2_threshold(5) == 0, so k=5
// is a single always-on row, matching the paper's folklore column.
constexpr RegimeRow kSelection[] = {
    // k = 1
    {1, theorem2_threshold(1), Algorithm::kTheorem2},
    {1, kPi, Algorithm::kOneAntennaMid},
    {1, 0.0, Algorithm::kBtspCycle},
    // k = 2
    {2, theorem2_threshold(2), Algorithm::kTheorem2},
    {2, kPi, Algorithm::kTwoPart1},
    {2, 2.0 * kPi / 3.0, Algorithm::kTwoPart2},
    {2, 0.0, Algorithm::kBtspCycle},
    // k = 3
    {3, theorem2_threshold(3), Algorithm::kTheorem2},
    {3, 0.0, Algorithm::kThreeZero},
    // k = 4
    {4, theorem2_threshold(4), Algorithm::kTheorem2},
    {4, 0.0, Algorithm::kFourZero},
    // k = 5
    {5, 0.0, Algorithm::kFiveZero},
};

}  // namespace

std::span<const RegimeRow> selection_table() { return kSelection; }

std::span<const AlgorithmInfo> algorithm_registry() { return kAlgorithms; }

const AlgorithmInfo& algorithm_info(Algorithm a) {
  const int idx = static_cast<int>(a);
  DIRANT_ASSERT(idx >= 0 && idx < kAlgorithmCount);
  const AlgorithmInfo& info = kAlgorithms[idx];
  DIRANT_ASSERT_MSG(info.algo == a, "registry order desynchronised");
  return info;
}

const char* to_string(Algorithm a) {
  const int idx = static_cast<int>(a);
  if (idx < 0 || idx >= kAlgorithmCount) return "unknown";
  return kAlgorithms[idx].name;
}

}  // namespace dirant::core
