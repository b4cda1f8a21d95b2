#pragma once
// Shared from-scratch parity check for sim::ChurnEngine: the engine's one
// original-space plan, certified CSR, transpose and certificate against a
// fresh compact plan, certify and full digraph build over the survivors,
// mapped to original ids.  The churn suites (and the degenerate-layout
// regression in test_csr_equivalence) call it after every step.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "antenna/transmission.hpp"
#include "common/constants.hpp"
#include "core/session.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/churn.hpp"

namespace dirant::test {

// Every plan row bit for bit (dead rows empty); every CSR row — in exact
// order when this step took the full build (the order is observable
// through collection-tree next hops), as a set when it took the row patch;
// the transpose exactly; and the certificate field by field.
inline void expect_matches_compact_build(const sim::ChurnEngine& eng,
                                         const core::ProblemSpec& spec,
                                         int threads, par::ThreadPool* pool,
                                         int batch) {
  const auto& orig_of = eng.compact_to_orig();
  std::vector<geom::Point> survivors;
  for (int u : orig_of) survivors.push_back(eng.positions()[u]);
  core::PlanSession fresh;
  const auto& ref = fresh.orient(survivors, spec);
  const auto& got = eng.last_result();
  EXPECT_EQ(got.algorithm, ref.algorithm) << "batch " << batch;
  EXPECT_EQ(got.lmax, ref.lmax) << "batch " << batch;
  EXPECT_EQ(got.bound_factor, ref.bound_factor) << "batch " << batch;
  EXPECT_EQ(got.measured_radius, ref.measured_radius) << "batch " << batch;
  std::vector<int> comp_of(static_cast<size_t>(eng.size()), -1);
  for (size_t c = 0; c < orig_of.size(); ++c) {
    comp_of[orig_of[c]] = static_cast<int>(c);
  }
  for (int u = 0; u < eng.size(); ++u) {
    if (comp_of[u] < 0) {
      ASSERT_TRUE(got.orientation.antennas(u).empty())
          << "batch " << batch << " dead row " << u;
    } else {
      ASSERT_TRUE(ref.orientation.node_equals(comp_of[u], got.orientation, u))
          << "batch " << batch << " row " << u << " threads " << threads;
    }
  }

  antenna::TransmissionScratch tx;
  const auto built = antenna::induced_digraph_fast(
      survivors, ref.orientation, kAngleTol, kRadiusAbsTol, tx, threads,
      pool);
  const auto& dg = eng.certified_digraph();
  const bool exact = !eng.last_report().incremental_digraph;
  ASSERT_EQ(dg.size(), eng.size());
  for (int u = 0; u < eng.size(); ++u) {
    std::vector<int> want;
    if (comp_of[u] >= 0) {
      for (int t : built.out(comp_of[u])) want.push_back(orig_of[t]);
    }
    std::vector<int> have(dg.out(u).begin(), dg.out(u).end());
    if (!exact) {
      std::sort(want.begin(), want.end());
      std::sort(have.begin(), have.end());
    }
    ASSERT_EQ(have, want) << "batch " << batch << " csr row " << u
                          << (exact ? " (full build)" : " (row patch)")
                          << " threads " << threads;
  }
  const auto rt = dg.reversed();
  const auto& dgt = eng.certified_transpose();
  for (int u = 0; u < eng.size(); ++u) {
    ASSERT_TRUE(std::equal(rt.out(u).begin(), rt.out(u).end(),
                           dgt.out(u).begin(), dgt.out(u).end()))
        << "batch " << batch << " transpose row " << u;
  }

  const auto& cert = fresh.certify(survivors, spec);
  const auto& cb = eng.last_report().certificate;
  EXPECT_EQ(cb.strongly_connected, cert.strongly_connected)
      << "batch " << batch;
  EXPECT_EQ(cb.scc_count, cert.scc_count) << "batch " << batch;
  EXPECT_EQ(cb.max_radius, cert.max_radius) << "batch " << batch;
  EXPECT_EQ(cb.max_spread_sum, cert.max_spread_sum) << "batch " << batch;
  EXPECT_EQ(cb.max_antennas, cert.max_antennas) << "batch " << batch;
}

}  // namespace dirant::test
