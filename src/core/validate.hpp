#pragma once
/// \file validate.hpp
/// Independent certification of an orientation: rebuilds the induced
/// transmission digraph from the sectors alone and checks the paper's three
/// guarantees — strong connectivity, per-sensor angular budget, and the
/// radius bound.  Used by every test and bench; knows nothing about how a
/// construction was produced.

#include <span>

#include "antenna/transmission.hpp"
#include "core/types.hpp"
#include "geometry/point.hpp"
#include "graph/scc.hpp"

namespace dirant::par {
class ThreadPool;
}

namespace dirant::core {

struct Certificate {
  bool strongly_connected = false;
  int scc_count = 0;
  double max_radius = 0.0;       ///< largest antenna radius (absolute units)
  double max_spread_sum = 0.0;   ///< worst per-sensor total spread
  int max_antennas = 0;          ///< worst per-sensor antenna count
  bool spread_within_budget = false;  ///< max_spread_sum <= phi (+tol)
  bool antennas_within_k = false;     ///< max_antennas <= k
  bool radius_within_bound = false;   ///< max_radius <= bound_factor*lmax (+tol)

  bool ok() const {
    return strongly_connected && spread_within_budget && antennas_within_k &&
           radius_within_bound;
  }
};

/// Working memory for a certification: the digraph CSR buffers and the
/// Tarjan scratch.  Batch pipelines keep one per worker so certifying a
/// stream of instances does zero steady-state allocation.
struct CertifyScratch {
  antenna::TransmissionScratch transmission;
  graph::SccScratch scc;
};

/// Assemble a Certificate from a result and a precomputed SCC count — the
/// non-graph half of `certify` (budget, antenna, and radius checks), shared
/// with callers that obtain the SCC count from their own digraph
/// (sim::ChurnEngine's incremental recertification).  `certify` routes
/// through this, so the arithmetic cannot drift between the two paths.
Certificate make_certificate(const Result& res, const ProblemSpec& spec,
                             int scc_count);

/// The three per-sensor maxima a certificate reads off an orientation.
struct OrientationMaxima {
  double max_radius = 0.0;
  double max_spread_sum = 0.0;
  int max_antennas = 0;
};

/// Same arithmetic from maxima the caller maintains itself (sim::ChurnEngine
/// patches its orientation in place and keeps them exact per row);
/// `res` supplies only the bound metadata (bound_factor, lmax).  The
/// overload above computes the maxima from `res.orientation` and forwards
/// here.
Certificate make_certificate(const OrientationMaxima& maxima,
                             const Result& res, const ProblemSpec& spec,
                             int scc_count);

/// Policy gate for skipping the SCC pass in favour of a cached
/// strong-connectivity certificate (graph::IncrementalSccCert).  Reuse is
/// sound only when all three hold: the caller has not forced full
/// recomputation, the digraph was produced by the *row patch* (the
/// recertifier's broken-edge enumeration is exhaustive against the patch's
/// clean/dirty row semantics — a fully rebuilt CSR offers no such
/// invariant), and the cached spanning in/out trees are still valid.
/// Centralised here so the decision cannot drift from the certificate
/// arithmetic it guards.
bool can_reuse_scc_certificate(bool force_full, bool patched_rows,
                               bool cache_valid);

/// Certify `res` against `spec`.  `use_fast_graph` forces the
/// grid-accelerated digraph builder (true) or the brute-force reference
/// (false); identical output either way.
Certificate certify(std::span<const geom::Point> pts, const Result& res,
                    const ProblemSpec& spec, bool use_fast_graph);

/// Scratch-reusing variant for certification loops (core::orient_batch,
/// Monte-Carlo sweeps).  `threads > 1` selects the sharded digraph build
/// (bit-identical to serial; see antenna/transmission.hpp), with shards
/// fanned out over `pool` when one is supplied; the SCC pass is serial
/// Tarjan at every thread count.  The serial default performs zero heap
/// allocations once `scratch` is warm.
Certificate certify(std::span<const geom::Point> pts, const Result& res,
                    const ProblemSpec& spec, bool use_fast_graph,
                    CertifyScratch& scratch, int threads = 1,
                    par::ThreadPool* pool = nullptr);

/// Same, selecting the digraph builder by instance size: brute force as the
/// independent oracle on small instances, grid range queries beyond
/// `kCertifyFastThreshold` points.
inline constexpr int kCertifyFastThreshold = 512;
Certificate certify(std::span<const geom::Point> pts, const Result& res,
                    const ProblemSpec& spec);

}  // namespace dirant::core
