#include "antenna/transmission.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/assert.hpp"
#include "common/constants.hpp"
#include "parallel/thread_pool.hpp"

namespace dirant::antenna {

using geom::Point;

namespace {

// FlatSector flag bits.
constexpr unsigned kBeam = 1u;  ///< width == 0: pure tolerance-band test
constexpr unsigned kFull = 2u;  ///< width >= 2*pi - tol: all directions
constexpr unsigned kWide = 4u;  ///< width > pi: test the complement wedge

/// One sector prepared for the window scan: boundary directions, squared
/// radius limit and the clamped grid cell window of its bounding box.
struct FlatSector {
  double sx, sy, ex, ey;  ///< boundary-ray unit directions
  double limit2;          ///< squared radius limit incl. tolerances
  int x_lo, x_hi, y_lo, y_hi;  ///< clamped cell window
  unsigned flags;              ///< kBeam / kFull / kWide bits
};

/// Immutable per-build inputs shared (read-only) by every shard.
struct BuildCtx {
  std::span<const Point> pts;
  const Orientation* o;
  const spatial::GridIndex* grid;
  double angle_tol, radius_tol;
  double pad_scale;   ///< 2 sin(angle_tol): sideways reach of the tol cone
  double exact_band;  ///< sin(angle_tol)^2, the tolerance accept band
  int n;
};

/// Prepare sector `s` (boundary directions `d`) at apex `a`: squared radius
/// limit and the clamped grid cell window of the sector's bounding box.  A
/// pure function of its arguments, so a row's classification never depends
/// on where or when its sectors were prepared.
FlatSector flatten(const BuildCtx& ctx, const Point& a, const geom::Sector& s,
                   const BoundaryDirs& d) {
  FlatSector f;
  const double ax = a.x, ay = a.y;
  f.sx = d.sx;
  f.sy = d.sy;
  f.ex = d.ex;
  f.ey = d.ey;
  const double limit = s.radius * (1.0 + kRadiusRelTol) + ctx.radius_tol;
  f.limit2 = limit * limit;
  const double qr = limit + 1e-12;
  // Boxes inflate by the tolerance cone's sideways reach (<= r*sin(tol)),
  // doubled for margin.
  const double pad = qr * ctx.pad_scale + 1e-12;
  double lo_x, lo_y, hi_x, hi_y;
  if (s.width == 0.0) {
    f.flags = kBeam;
    const double tx = ax + qr * f.sx, ty = ay + qr * f.sy;
    lo_x = std::min(ax, tx) - pad;
    hi_x = std::max(ax, tx) + pad;
    lo_y = std::min(ay, ty) - pad;
    hi_y = std::max(ay, ty) + pad;
  } else if (s.width >= kTwoPi - ctx.angle_tol) {
    f.flags = kFull;
    lo_x = ax - qr;
    hi_x = ax + qr;
    lo_y = ay - qr;
    hi_y = ay + qr;
  } else {
    f.flags = s.width > kPi ? kWide : 0u;
    // Hull of the wedge: apex, both boundary-ray endpoints, and the arc
    // extremes at whichever cardinal directions the wedge spans.
    lo_x = hi_x = ax;
    lo_y = hi_y = ay;
    const auto add = [&](double x, double y) {
      lo_x = std::min(lo_x, x);
      hi_x = std::max(hi_x, x);
      lo_y = std::min(lo_y, y);
      hi_y = std::max(hi_y, y);
    };
    add(ax + qr * f.sx, ay + qr * f.sy);
    add(ax + qr * f.ex, ay + qr * f.ey);
    static constexpr double kCardinal[4][2] = {
        {1, 0}, {0, 1}, {-1, 0}, {0, -1}};
    for (const auto& c : kCardinal) {
      const double cs = f.sx * c[1] - f.sy * c[0];
      const double ce = f.ex * c[1] - f.ey * c[0];
      // Closed (conservative) membership: ties only enlarge the box.
      const bool inside = (f.flags & kWide) ? !(cs < 0.0 && ce > 0.0)
                                            : (cs >= 0.0 && ce <= 0.0);
      if (inside) add(ax + qr * c[0], ay + qr * c[1]);
    }
    lo_x -= pad;
    hi_x += pad;
    lo_y -= pad;
    hi_y += pad;
  }
  const spatial::GridIndex& grid = *ctx.grid;
  f.x_lo = grid.cell_x(lo_x);
  f.x_hi = grid.cell_x(hi_x);
  f.y_lo = grid.cell_y(lo_y);
  f.y_hi = grid.cell_y(hi_y);
  return f;
}

/// Rows for nodes [u_lo, u_hi): prepare each of node u's sectors
/// (`flatten`, which reads only u's own row of the orientation) right
/// before scanning its cell window, classify candidates by cross products,
/// emit deduped rows.  Targets append into
/// `targets` (indexed writes with doubling growth — shrunk to the emitted
/// count on return) and the cumulative in-chunk edge count after each
/// node's row lands in row_end[u - u_lo].  Returns the chunk's edge count.
///
/// This is the whole per-row computation: it depends only on the read-only
/// BuildCtx and the node index, never on which chunk it runs in — the
/// property the sharded build's bit-identity rests on.
///
/// The accept arithmetic is the same as `sector_accepts` (same translation
/// unit, contraction off), so per-edge retests agree with whole-row builds
/// bit for bit.
///
/// Dedup strategy: geometry tests run first (they reject almost every
/// candidate); only ACCEPTED candidates pay dedup.  Rows are short, so a
/// linear scan of the row under construction beats the seen[] array's
/// random memory access — seen[] marks (all zero on entry) take over only
/// if a row grows past the threshold (dense overlapping sectors), and are
/// wiped again afterwards so the array stays all-zero between rows.
int classify_range(const BuildCtx& ctx, int u_lo, int u_hi,
                   std::span<char> seen, std::vector<int>& targets,
                   int* row_end) {
  constexpr int kLinearDedup = 48;
  if (targets.capacity() < 1024) targets.reserve(1024);
  targets.resize(targets.capacity());  // emitted via indexed writes below
  int tgt_count = 0;
  for (int u = u_lo; u < u_hi; ++u) {
    const int row_begin = tgt_count;
    bool row_marked = false;  // true once this row's entries are in seen[]
    const auto antennas = ctx.o->antennas(u);
    const auto dirs = ctx.o->boundary_dirs(u);
    for (size_t j = 0; j < antennas.size(); ++j) {
      const FlatSector f = flatten(ctx, ctx.pts[u], antennas[j], dirs[j]);
      const bool first_sector = j == 0;

      // Dedup + append for one accepted candidate.  A sector never accepts
      // v twice (each window cell is scanned once), so dedup is only
      // needed against EARLIER sectors' rows.
      const auto emit = [&](int v) {
        if (!first_sector) {
          if (row_marked) {
            if (seen[v]) return;
            seen[v] = 1;
          } else if (tgt_count - row_begin <= kLinearDedup) {
            for (int k = row_begin; k < tgt_count; ++k) {
              if (targets[k] == v) return;
            }
          } else {
            for (int k = row_begin; k < tgt_count; ++k) {
              seen[targets[k]] = 1;
            }
            // Flag BEFORE the duplicate test: returning without it would
            // leak the marks just written past this row's wipe.
            row_marked = true;
            if (seen[v]) return;
            seen[v] = 1;
          }
        }
        if (tgt_count == static_cast<int>(targets.size())) {
          targets.resize(targets.size() * 2);
        }
        targets[tgt_count++] = v;
      };

      // Fused per-candidate classification.  The window scan filters by
      // limit2 directly (no separate query radius), and self-exclusion
      // rides on the d2 == 0 coincidence check, so no per-hit exclude
      // compare is needed.
      ctx.grid->for_each_in_cell_window(
          ctx.pts[u], f.limit2, f.x_lo, f.x_hi, f.y_lo, f.y_hi,
          /*exclude=*/-1, [&](int v, double dx, double dy, double d2) {
            if (d2 == 0.0) return;  // coincident point: no direction
            bool ok;
            const double cs = f.sx * dy - f.sy * dx;
            if (f.flags & kBeam) {
              // |cross| = |v| sin(angle to ray): within tolerance iff
              // the cross is tiny and the dot positive.
              ok = cs * cs <= d2 * ctx.exact_band &&
                   f.sx * dx + f.sy * dy > 0.0;
            } else if (f.flags & kFull) {
              ok = true;
            } else {
              const double ce = f.ex * dy - f.ey * dx;
              const double band = d2 * ctx.exact_band;
              // The tolerance-accept region is the wedge PLUS the
              // tol-band around each boundary ray, so a candidate inside
              // either band is accepted outright (MST orientations aim
              // sector boundaries exactly at neighbours, making this the
              // common accept path); outside the bands the strict cross
              // tests decide exactly.
              if ((cs * cs <= band && f.sx * dx + f.sy * dy > 0.0) ||
                  (ce * ce <= band && f.ex * dx + f.ey * dy > 0.0)) {
                ok = true;
              } else {
                ok = (f.flags & kWide) ? !(cs < 0.0 && ce > 0.0)
                                       : (cs > 0.0 && ce < 0.0);
              }
            }
            if (ok) emit(v);
          });
    }
    if (row_marked) {  // wipe the marks so seen[] stays all-zero
      for (int k = row_begin; k < tgt_count; ++k) seen[targets[k]] = 0;
    }
    row_end[u - u_lo] = tgt_count;
  }
  targets.resize(tgt_count);
  return tgt_count;
}

}  // namespace

graph::Digraph induced_digraph(std::span<const Point> pts,
                               const Orientation& o, double angle_tol,
                               double radius_tol) {
  const int n = static_cast<int>(pts.size());
  DIRANT_ASSERT(o.size() == n);
  std::vector<int> offsets;
  offsets.reserve(static_cast<size_t>(n) + 1);
  offsets.push_back(0);
  std::vector<int> targets;
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      if (u == v) continue;
      for (const auto& s : o.antennas(u)) {
        if (s.contains(pts[u], pts[v], angle_tol, radius_tol)) {
          targets.push_back(v);
          break;
        }
      }
    }
    offsets.push_back(static_cast<int>(targets.size()));
  }
  return graph::Digraph(std::move(offsets), std::move(targets));
}

graph::Digraph induced_digraph_fast(std::span<const Point> pts,
                                    const Orientation& o, double angle_tol,
                                    double radius_tol) {
  TransmissionScratch scratch;
  return induced_digraph_fast(pts, o, angle_tol, radius_tol, scratch);
}

/// One-pass grid pipeline, in node order.  Each sector of node u is
/// prepared right before its scan: cached boundary-ray directions (from
/// Orientation::add — no per-query trigonometry), squared radius limit, and
/// the clamped grid-cell window of the sector's bounding box (a zero-width
/// beam's window is just the cells along its ray, not the whole disk
/// square).  Candidates in the window are classified by cross products
/// against the boundary directions (the equivalence with `Sector::contains`
/// is exact outside the thin angular tolerance band of a proper sector's
/// boundary; for beams the band test IS the containment test, identical up
/// to ~1e-16 rounding at the 1e-9 tolerance boundary).
///
/// `threads > 1` shards the rows over contiguous node ranges (balanced by
/// sector count); each shard classifies into its own row chunk and a
/// deterministic prefix-sum stitch concatenates the chunks into the final
/// CSR — bit-identical to the serial build for every shard count.
graph::Digraph induced_digraph_fast(std::span<const Point> pts,
                                    const Orientation& o, double angle_tol,
                                    double radius_tol,
                                    TransmissionScratch& scratch, int threads,
                                    par::ThreadPool* pool) {
  const int n = static_cast<int>(pts.size());
  DIRANT_ASSERT(o.size() == n);
  const double rmax = o.max_radius();
  if (n == 0 || rmax <= 0.0) {
    scratch.targets.clear();
    scratch.offsets.assign(static_cast<size_t>(n) + 1, 0);
    return graph::Digraph(std::move(scratch.offsets),
                          std::move(scratch.targets));
  }
  Workspace& ws = scratch.ws.get();
  Workspace::Frame frame(ws);
  scratch.grid.rebuild(pts, digraph_grid_cell(rmax), ws);
  return induced_digraph_fast(pts, o, scratch.grid, angle_tol, radius_tol,
                              scratch, threads, pool);
}

double digraph_grid_cell(double max_radius) {
  return std::max(max_radius / 3.0, 1e-12);
}

graph::Digraph induced_digraph_fast(std::span<const Point> pts,
                                    const Orientation& o,
                                    const spatial::GridIndex& grid,
                                    double angle_tol, double radius_tol,
                                    TransmissionScratch& scratch, int threads,
                                    par::ThreadPool* pool) {
  const int n = static_cast<int>(pts.size());
  DIRANT_ASSERT(o.size() == n);
  auto& offsets = scratch.offsets;
  auto& targets = scratch.targets;
  offsets.clear();
  targets.clear();
  Workspace& ws = scratch.ws.get();
  Workspace::Frame frame(ws);
  const auto take_seen = [&] {
    const auto seen = ws.take<char>(static_cast<size_t>(n));
    std::fill(seen.begin(), seen.end(), 0);
    return seen;
  };

  // The cross-product classifier assumes a small tolerance cone; callers
  // probing with huge angular tolerances take the exact test per candidate.
  // Rare probing path — always serial.
  if (angle_tol > 0.5) {
    offsets.reserve(static_cast<size_t>(n) + 1);
    offsets.push_back(0);
    const auto seen = take_seen();
    auto& candidates = scratch.candidates;
    for (int u = 0; u < n; ++u) {
      const int row_begin = static_cast<int>(targets.size());
      for (const auto& s : o.antennas(u)) {
        candidates.clear();
        // Query out to the same limit `contains` grants (relative +
        // absolute slack), so no tolerance-accepted candidate is missed.
        grid.within(pts[u],
                    s.radius * (1.0 + kRadiusRelTol) + radius_tol + 1e-12, u,
                    candidates);
        for (int v : candidates) {
          if (seen[v]) continue;
          if (s.contains(pts[u], pts[v], angle_tol, radius_tol)) {
            seen[v] = 1;
            targets.push_back(v);
          }
        }
      }
      for (int k = row_begin; k < static_cast<int>(targets.size()); ++k) {
        seen[targets[k]] = 0;
      }
      offsets.push_back(static_cast<int>(targets.size()));
    }
    return graph::Digraph(std::move(offsets), std::move(targets));
  }

  const double sin_tol = std::min(std::sin(angle_tol), 1.0);
  const BuildCtx ctx{pts,        &o,        &grid,
                     angle_tol,  radius_tol, 2.0 * sin_tol,
                     sin_tol * sin_tol,      n};

  const int shard_count = std::clamp(threads, 1, std::max(1, n));
  if (shard_count <= 1) {
    // ---- Serial build: rows stream straight into the final CSR ---------
    offsets.resize(static_cast<size_t>(n) + 1);
    offsets[0] = 0;
    classify_range(ctx, 0, n, take_seen(), targets, offsets.data() + 1);
    return graph::Digraph(std::move(offsets), std::move(targets));
  }

  // ---- Sharded build -------------------------------------------------
  // Contiguous node ranges, boundaries balanced by sector count (the unit
  // of scan work): shard s ends at the first node whose sector prefix
  // reaches its share.  Boundaries depend only on (orientation, threads),
  // never on the pool, and the output does not depend on the boundaries at
  // all — every row is computed by classify_range the same way regardless
  // of which chunk holds it.
  auto& shards = scratch.shards;
  if (static_cast<int>(shards.size()) < shard_count) {
    shards.resize(shard_count);
  }
  const long long total_sectors = o.total_antennas();
  int prev = 0;
  long long prefix = 0;  // sectors at nodes [0, prev)
  for (int s = 0; s < shard_count; ++s) {
    const long long want = total_sectors * (s + 1) / shard_count;
    int hi = prev;
    if (s + 1 == shard_count) {
      hi = n;
    } else {
      while (hi < n && prefix < want) {
        prefix += static_cast<long long>(o.antennas(hi).size());
        ++hi;
      }
    }
    shards[s].node_lo = prev;
    shards[s].node_hi = hi;
    shards[s].seen = take_seen();
    shards[s].row_end = ws.take<int>(static_cast<size_t>(hi - prev));
    prev = hi;
  }

  // One run_indexed index per shard: pooled when `pool` can run shards
  // concurrently, inline otherwise — the same sharded code path either way,
  // and no shard reads another's writes, so the choice is invisible in the
  // output.  The fixed-slot fan-out allocates nothing.
  par::run_indexed(pool, shard_count, [&](int s) {
    auto& shard = shards[s];
    shard.edge_count =
        classify_range(ctx, shard.node_lo, shard.node_hi, shard.seen,
                       shard.targets, shard.row_end.data());
  });

  // ---- Deterministic prefix-sum stitch -------------------------------
  // Chunk bases are the exclusive prefix sums of the shard edge counts;
  // each shard then finalizes its slice of offsets/targets independently
  // (disjoint writes, so the copy fans out over the same pool).
  offsets.resize(static_cast<size_t>(n) + 1);
  offsets[0] = 0;
  int total_edges = 0;
  for (int s = 0; s < shard_count; ++s) {
    shards[s].base = total_edges;
    total_edges += shards[s].edge_count;
  }
  targets.resize(static_cast<size_t>(total_edges));
  par::run_indexed(pool, shard_count, [&](int s) {
    const auto& shard = shards[s];
    const int base = shard.base;
    for (int u = shard.node_lo; u < shard.node_hi; ++u) {
      offsets[u + 1] = base + shard.row_end[u - shard.node_lo];
    }
    if (shard.edge_count > 0) {
      std::memcpy(targets.data() + base, shard.targets.data(),
                  static_cast<size_t>(shard.edge_count) * sizeof(int));
    }
  });
  return graph::Digraph(std::move(offsets), std::move(targets));
}

bool sector_accepts(std::span<const Point> pts, const Orientation& o, int u,
                    int v, double angle_tol, double radius_tol) {
  const double dx = pts[v].x - pts[u].x;
  const double dy = pts[v].y - pts[u].y;
  const double d2 = dx * dx + dy * dy;
  if (d2 == 0.0) return false;  // coincident point: no direction
  const auto& antennas = o.antennas(u);
  if (angle_tol > 0.5) {  // huge-tolerance probing path: exact test
    for (const auto& s : antennas) {
      if (s.contains(pts[u], pts[v], angle_tol, radius_tol)) return true;
    }
    return false;
  }
  const double sin_tol = std::min(std::sin(angle_tol), 1.0);
  const double exact_band = sin_tol * sin_tol;
  const auto& dirs = o.boundary_dirs(u);
  for (size_t j = 0; j < antennas.size(); ++j) {
    const auto& s = antennas[j];
    const double limit = s.radius * (1.0 + kRadiusRelTol) + radius_tol;
    if (d2 > limit * limit) continue;
    const double sx = dirs[j].sx, sy = dirs[j].sy;
    const double cs = sx * dy - sy * dx;
    if (s.width == 0.0) {  // kBeam
      if (cs * cs <= d2 * exact_band && sx * dx + sy * dy > 0.0) return true;
      continue;
    }
    if (s.width >= kTwoPi - angle_tol) return true;  // kFull
    const double ex = dirs[j].ex, ey = dirs[j].ey;
    const double ce = ex * dy - ey * dx;
    const double band = d2 * exact_band;
    if ((cs * cs <= band && sx * dx + sy * dy > 0.0) ||
        (ce * ce <= band && ex * dx + ey * dy > 0.0)) {
      return true;
    }
    const bool wide = s.width > kPi;
    if (wide ? !(cs < 0.0 && ce > 0.0) : (cs > 0.0 && ce < 0.0)) return true;
  }
  return false;
}

graph::Digraph unit_disk_digraph(std::span<const Point> pts, double radius) {
  TransmissionScratch scratch;
  return unit_disk_digraph(pts, radius, scratch);
}

graph::Digraph unit_disk_digraph(std::span<const Point> pts, double radius,
                                 TransmissionScratch& scratch) {
  const int n = static_cast<int>(pts.size());
  auto& offsets = scratch.offsets;
  auto& targets = scratch.targets;
  targets.clear();
  if (n == 0 || radius <= 0.0) {
    offsets.assign(static_cast<size_t>(n) + 1, 0);
    return graph::Digraph(std::move(offsets), std::move(targets));
  }
  Workspace& ws = scratch.ws.get();
  Workspace::Frame frame(ws);
  scratch.grid.rebuild(pts, std::max(radius / 2.0, 1e-12), ws);
  offsets.clear();
  offsets.push_back(0);
  for (int u = 0; u < n; ++u) {
    scratch.grid.within(pts[u], radius, u, targets);  // appends u's row
    offsets.push_back(static_cast<int>(targets.size()));
  }
  return graph::Digraph(std::move(offsets), std::move(targets));
}

}  // namespace dirant::antenna
