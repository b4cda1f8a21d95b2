#include "core/validate.hpp"

#include <cmath>

#include "common/constants.hpp"

namespace dirant::core {

Certificate make_certificate(const Result& res, const ProblemSpec& spec,
                             int scc_count) {
  const auto& o = res.orientation;
  return make_certificate(
      OrientationMaxima{o.max_radius(), o.max_spread_sum(),
                        o.max_antennas_per_node()},
      res, spec, scc_count);
}

Certificate make_certificate(const OrientationMaxima& maxima,
                             const Result& res, const ProblemSpec& spec,
                             int scc_count) {
  Certificate c;
  c.scc_count = scc_count;
  c.strongly_connected = scc_count <= 1;

  c.max_radius = maxima.max_radius;
  c.max_spread_sum = maxima.max_spread_sum;
  c.max_antennas = maxima.max_antennas;

  c.spread_within_budget = c.max_spread_sum <= spec.phi + 1e-9;
  c.antennas_within_k = c.max_antennas <= spec.k;
  if (std::isfinite(res.bound_factor)) {
    const double limit =
        res.bound_factor * res.lmax * (1.0 + kRadiusRelTol) + kRadiusAbsTol;
    c.radius_within_bound = c.max_radius <= limit;
  } else {
    c.radius_within_bound = true;  // heuristic regime: no a-priori bound
  }
  return c;
}

bool can_reuse_scc_certificate(bool force_full, bool patched_rows,
                               bool cache_valid) {
  return !force_full && patched_rows && cache_valid;
}

Certificate certify(std::span<const geom::Point> pts, const Result& res,
                    const ProblemSpec& spec, bool use_fast_graph,
                    CertifyScratch& scratch, int threads,
                    par::ThreadPool* pool) {
  const auto& o = res.orientation;
  graph::Digraph g =
      use_fast_graph
          ? antenna::induced_digraph_fast(pts, o, kAngleTol, kRadiusAbsTol,
                                          scratch.transmission, threads, pool)
          : antenna::induced_digraph(pts, o);
  const int sccs = graph::scc_count(g, scratch.scc);
  if (use_fast_graph) {
    // Hand the CSR buffers back so the next certification reuses them.
    std::move(g).release(scratch.transmission.offsets,
                         scratch.transmission.targets);
  }
  return make_certificate(res, spec, sccs);
}

Certificate certify(std::span<const geom::Point> pts, const Result& res,
                    const ProblemSpec& spec, bool use_fast_graph) {
  CertifyScratch scratch;
  return certify(pts, res, spec, use_fast_graph, scratch);
}

Certificate certify(std::span<const geom::Point> pts, const Result& res,
                    const ProblemSpec& spec) {
  return certify(pts, res, spec,
                 static_cast<int>(pts.size()) >= kCertifyFastThreshold);
}

}  // namespace dirant::core
