#pragma once
/// \file engine.hpp
/// EmstEngine — the single front door for every EMST consumer in the
/// library.  The paper's constructions (Theorems 2-3, Table 1) all start
/// from a bottleneck/degree-5 EMST, so EMST construction dominates runtime
/// at scale.  The engine makes the sub-quadratic Delaunay+Kruskal path the
/// default and keeps O(n^2) Prim as the small-n / degenerate-input
/// fallback:
///   * n < prim_cutoff: Prim.  The dense scan is cache-friendly and beats
///     the triangulation constants on tiny instances.
///   * otherwise: Kruskal restricted to the Delaunay edges (the EMST is a
///     subgraph of the Delaunay triangulation), falling back to Prim when
///     the candidate graph comes back disconnected (adversarially
///     degenerate input).
///
/// Callers outside mst/ must not invoke `prim_emst` directly — route
/// through the engine (or `degree5_emst`, which delegates to the shared
/// engine) so the selection policy stays in one place.

#include <span>
#include <utility>
#include <vector>

#include "delaunay/delaunay.hpp"
#include "geometry/point.hpp"
#include "mst/degree5.hpp"
#include "mst/emst.hpp"
#include "mst/tree.hpp"

namespace dirant::mst {

/// Which EMST algorithm runs.
enum class EngineKind {
  kAuto,             ///< size-based selection (the default policy)
  kPrim,             ///< force O(n^2) Prim (reference engine)
  kDelaunayKruskal,  ///< force Delaunay candidates + Kruskal
};

const char* to_string(EngineKind k);

struct EngineConfig {
  EngineKind kind = EngineKind::kAuto;
  /// Below this size kAuto picks Prim.  Measured crossover on uniform
  /// instances is well under 100 points (docs/perf.md).
  int prim_cutoff = 64;
};

/// Working memory for the whole EMST -> degree-repair stage: one of each
/// builder's scratch plus the reusable Delaunay triangulator.  Owned by
/// core::PlanSession (one per session / batch worker); a warm scratch makes
/// the tree-build stage allocation-free on same-size instances.
struct EmstScratch {
  PrimScratch prim;
  KruskalScratch kruskal;
  DegreeRepairScratch repair;
  delaunay::Triangulator triangulator;
  /// Delaunay edges of the last input (the triangulator emits no
  /// triangles on this path).
  std::vector<std::pair<int, int>> candidates;
  /// Which builder the last `EmstEngine::emst` call actually ran (kAuto
  /// until the first call).  kDelaunayKruskal certifies that
  /// `candidates` holds the full Delaunay edge set of the last input —
  /// the precondition for seeding an incremental candidate pool
  /// (sim::ChurnEngine).  kPrim means the candidates are absent or stale
  /// (small input, degenerate triangulation, or a disconnected-candidate
  /// fallback) and must not be reused.
  EngineKind last_kind = EngineKind::kAuto;
};

/// Stateless facade over the EMST builders; cheap to copy.  Use
/// `EmstEngine::shared()` unless a caller needs a non-default policy
/// (benches force each engine to measure the crossover).
class EmstEngine {
 public:
  constexpr EmstEngine() = default;
  constexpr explicit EmstEngine(EngineConfig cfg) : cfg_(cfg) {}

  /// Euclidean MST of `pts` (n >= 1).
  Tree emst(std::span<const geom::Point> pts) const;

  /// Degree-<=5 EMST (the tree the paper's algorithms consume).
  Tree degree5(std::span<const geom::Point> pts) const;

  /// Scratch-reusing variants: recycle `out` and every internal buffer.
  /// Identical outputs to the plain overloads.
  void emst(std::span<const geom::Point> pts, Tree& out,
            EmstScratch& scratch) const;
  void degree5(std::span<const geom::Point> pts, Tree& out,
               EmstScratch& scratch) const;

  /// Longest MST edge — the universal range lower bound.  0 for n < 2.
  double lmax(std::span<const geom::Point> pts) const;

  /// The engine kAuto would run for an instance of `n` points.
  EngineKind selected(int n) const;

  const EngineConfig& config() const { return cfg_; }

  /// Process-wide default engine; what the library entry points use.
  static const EmstEngine& shared();

 private:
  EngineConfig cfg_;
};

}  // namespace dirant::mst
