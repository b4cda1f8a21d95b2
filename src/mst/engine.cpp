#include "mst/engine.hpp"

#include "common/assert.hpp"
#include "delaunay/delaunay.hpp"
#include "mst/degree5.hpp"
#include "mst/emst.hpp"

namespace dirant::mst {

const char* to_string(EngineKind k) {
  switch (k) {
    case EngineKind::kAuto:
      return "auto";
    case EngineKind::kPrim:
      return "prim";
    case EngineKind::kDelaunayKruskal:
      return "delaunay-kruskal";
  }
  return "?";
}

EngineKind EmstEngine::selected(int n) const {
  if (cfg_.kind != EngineKind::kAuto) return cfg_.kind;
  return n < cfg_.prim_cutoff ? EngineKind::kPrim
                              : EngineKind::kDelaunayKruskal;
}

Tree EmstEngine::emst(std::span<const geom::Point> pts) const {
  Tree out;
  EmstScratch scratch;
  emst(pts, out, scratch);
  return out;
}

void EmstEngine::emst(std::span<const geom::Point> pts, Tree& out,
                      EmstScratch& scratch) const {
  const int n = static_cast<int>(pts.size());
  DIRANT_ASSERT(n >= 1);
  if (selected(n) == EngineKind::kPrim) {
    scratch.last_kind = EngineKind::kPrim;
    prim_emst(pts, out, scratch.prim);
    return;
  }
  scratch.triangulator.triangulate(pts, scratch.candidates);
  const auto& dt_edges = scratch.candidates;
  if (dt_edges.empty() && n > 1) {  // degenerate input
    scratch.last_kind = EngineKind::kPrim;
    prim_emst(pts, out, scratch.prim);
    return;
  }
  // Duplicate-heavy or adversarial inputs can leave the candidate graph
  // disconnected; Kruskal detects that and we fall back to Prim.
  try {
    kruskal_emst(pts, dt_edges, out, scratch.kruskal);
    scratch.last_kind = EngineKind::kDelaunayKruskal;
  } catch (const contract_violation&) {
    scratch.last_kind = EngineKind::kPrim;
    prim_emst(pts, out, scratch.prim);
  }
}

Tree EmstEngine::degree5(std::span<const geom::Point> pts) const {
  Tree out;
  EmstScratch scratch;
  degree5(pts, out, scratch);
  return out;
}

void EmstEngine::degree5(std::span<const geom::Point> pts, Tree& out,
                         EmstScratch& scratch) const {
  emst(pts, out, scratch);
  enforce_max_degree(pts, out, 5, scratch.repair);
}

double EmstEngine::lmax(std::span<const geom::Point> pts) const {
  if (pts.size() < 2) return 0.0;
  return emst(pts).lmax();
}

const EmstEngine& EmstEngine::shared() {
  static const EmstEngine engine{};
  return engine;
}

}  // namespace dirant::mst
