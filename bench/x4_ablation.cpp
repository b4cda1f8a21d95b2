// X4 — ablations on the design choices DESIGN.md calls out:
//   (a) worst-case bound vs instance-adaptive radius (binary-searched over
//       the same Theorem 3 plan space) vs the lmax lower bound;
//   (b) strong 2-connectivity: bidirected bottleneck cycle vs the tree
//       construction (range premium paid for surviving one failure).

#include <algorithm>
#include <cmath>

#include "bench_common.hpp"
#include "antenna/transmission.hpp"
#include "common/constants.hpp"
#include "core/resilient.hpp"
#include "core/two_antennae.hpp"
#include "core/validate.hpp"
#include "mst/degree5.hpp"
#include "sim/audit.hpp"

namespace geom = dirant::geom;
namespace core = dirant::core;
using dirant::kPi;

namespace {

DIRANT_REPORT(x4a) {
  using dirant::bench::section;
  section("X4a — paper bound vs adaptive radius vs lmax (k = 2)");
  std::printf(
      "phi/pi  family           paper-bound  paper-measured  adaptive  "
      "(all x lmax)\n");
  std::printf(
      "---------------------------------------------------------------------"
      "--\n");
  for (double mult : {2.0 / 3.0, 0.8, 1.0}) {
    const double phi = mult * kPi;
    for (auto dist : {geom::Distribution::kUniformSquare,
                      geom::Distribution::kCorridor}) {
      double paper_meas = 0.0, adaptive_meas = 0.0, bound = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        geom::Rng rng(static_cast<std::uint64_t>(mult * 1000) + rep * 131 +
                      static_cast<int>(dist));
        const auto pts = geom::make_instance(dist, 80, rng);
        const auto tree = dirant::mst::degree5_emst(pts);
        const auto paper = core::orient_two_antennae(pts, tree, phi);
        const auto adap = core::orient_two_antennae_adaptive(pts, tree, phi);
        paper_meas = std::max(paper_meas, paper.measured_radius / paper.lmax);
        adaptive_meas =
            std::max(adaptive_meas, adap.measured_radius / adap.lmax);
        bound = paper.bound_factor;
      }
      std::printf("%5.3f   %-15s  %9.4f   %11.4f    %8.4f\n", mult,
                  to_string(dist).c_str(), bound, paper_meas, adaptive_meas);
    }
    // Adversarial stars: the regime where the bound actually binds.
    double paper_meas = 0.0, adaptive_meas = 0.0;
    geom::Rng rng(static_cast<std::uint64_t>(mult * 997));
    for (int rep = 0; rep < 10; ++rep) {
      auto pts = geom::star_with_center(5, 1.0, 0.13 * rep + mult);
      pts.push_back(geom::from_polar(1.9, 0.13 * rep + mult + 0.4));
      pts = geom::perturbed(std::move(pts), 0.05, rng);
      const auto tree = dirant::mst::degree5_emst(pts);
      const auto paper = core::orient_two_antennae(pts, tree, phi);
      const auto adap = core::orient_two_antennae_adaptive(pts, tree, phi);
      paper_meas = std::max(paper_meas, paper.measured_radius / paper.lmax);
      adaptive_meas =
          std::max(adaptive_meas, adap.measured_radius / adap.lmax);
    }
    std::printf("%5.3f   %-15s  %9.4f   %11.4f    %8.4f\n", mult,
                "pentagon-stars", core::theorem3_bound_factor(phi),
                paper_meas, adaptive_meas);
  }
  std::printf(
      "\nShape: adaptive <= paper-measured <= paper-bound; on adversarial\n"
      "stars the paper construction pays delegation chords while the\n"
      "adaptive search often retreats to ~1.0 x lmax.\n");
}

DIRANT_REPORT(x4b) {
  using dirant::bench::section;
  section("X4b — price of strong 2-connectivity (k = 2, spread 0)");
  std::printf("n    tree-range  cycle-range  tree-c  cycle-c\n");
  std::printf("---------------------------------------------\n");
  dirant::sim::AuditSession audit;
  const auto level = [&](const dirant::graph::Digraph& g) {
    audit.bind(g);
    return audit.strong_connectivity_level(2);
  };
  for (int n : {20, 40, 60}) {
    geom::Rng rng(n * 3 + 1);
    const auto pts = geom::uniform_square(n, std::sqrt(n) * 1.2, rng);
    const auto tree = dirant::mst::degree5_emst(pts);
    const auto t = core::orient_two_antennae(pts, tree, kPi);
    const auto c = core::orient_bidirectional_cycle(pts, tree);
    const auto tg = dirant::antenna::induced_digraph(pts, t.orientation);
    const auto cg = dirant::antenna::induced_digraph(pts, c.orientation);
    std::printf("%-4d  %8.4f    %8.4f      %d       %d\n", n,
                t.measured_radius / t.lmax, c.measured_radius / c.lmax,
                level(tg), level(cg));
  }
  std::printf(
      "\nShape: the bidirected cycle certifies c = 2 (the paper's open\n"
      "problem) at the bottleneck-cycle range, typically 1.3-2x lmax.\n");
}

void BM_adaptive(benchmark::State& state) {
  geom::Rng rng(30);
  const auto pts = geom::make_instance(geom::Distribution::kUniformSquare,
                                       static_cast<int>(state.range(0)), rng);
  const auto tree = dirant::mst::degree5_emst(pts);
  for (auto _ : state) {
    auto res = core::orient_two_antennae_adaptive(pts, tree, 0.8 * kPi);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_adaptive)->Arg(60)->Arg(150);

}  // namespace

DIRANT_BENCH_MAIN()
