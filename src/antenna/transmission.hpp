#pragma once
/// \file transmission.hpp
/// The induced communication digraph (paper §1.1): a directed edge (u, v)
/// exists iff v lies within the spread and range of some antenna at u.
/// This module knows nothing about how an orientation was constructed — it
/// is the independent certifier the validation layer builds on.

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "antenna/orientation.hpp"
#include "common/workspace.hpp"
#include "graph/digraph.hpp"
#include "spatial/grid_index.hpp"

namespace dirant::par {
class ThreadPool;
}

namespace dirant::antenna {

/// Reusable working memory for `induced_digraph_fast`.  The offsets/targets
/// buffers become the CSR arrays of the returned graph (moved, not copied);
/// callers that certify in a loop hand them back via `Digraph::release` so
/// the steady state allocates nothing.  The grid, dedup marks and shard
/// row ends are per-call views of `ws` (a session shares its Workspace).
struct TransmissionScratch {
  /// Per-worker buffers of the sharded build: each shard classifies a
  /// contiguous node range into its own row chunk, then the stitch pass
  /// prefix-sums the chunk sizes into the final CSR.  Nothing is shared
  /// between shards during classification, so the build is race-free by
  /// construction.
  struct Shard {
    std::span<char> seen;       ///< per-shard dedup marks (n entries)
    std::span<int> row_end;     ///< per-node edge count, cumulative in-shard
    std::vector<int> targets;   ///< this shard's edge heads
    int node_lo = 0, node_hi = 0;  ///< node range [lo, hi)
    int edge_count = 0;            ///< targets emitted by the last build
    int base = 0;  ///< this chunk's offset in the stitched targets array
  };

  WorkspaceSource ws;          ///< per-call grid, dedup marks, row ends
  std::vector<int> candidates; ///< grid range-query hit buffer
  std::vector<int> offsets;    ///< CSR prefix table under construction
  std::vector<int> targets;    ///< CSR edge heads under construction
  spatial::GridIndex grid;     ///< spatial index over `ws` (one per call)
  std::vector<Shard> shards;   ///< per-worker chunks of the sharded build
};

/// Build the induced digraph by brute force (O(n^2 * antennas)); reference
/// implementation used for certification.
graph::Digraph induced_digraph(std::span<const geom::Point> pts,
                               const Orientation& o,
                               double angle_tol = dirant::kAngleTol,
                               double radius_tol = dirant::kRadiusAbsTol);

/// Grid-accelerated equivalent (same edge set; used for large instances).
/// Emits edges straight into CSR: sources are visited in increasing order,
/// so each vertex's row is closed by recording the running edge count — no
/// per-vertex sort or adjacency-list append.
graph::Digraph induced_digraph_fast(std::span<const geom::Point> pts,
                                    const Orientation& o,
                                    double angle_tol = dirant::kAngleTol,
                                    double radius_tol = dirant::kRadiusAbsTol);

/// Scratch-reusing variant for certification loops.  `threads` selects the
/// sharded build (node ranges classified into per-worker row chunks, then a
/// deterministic prefix-sum stitch assembles the CSR): the result is
/// BIT-IDENTICAL to the serial build — same offsets, same targets, same
/// order — for every shard count, because each row is produced by the same
/// code on the same inputs and rows concatenate in node order.  Shard tasks
/// run on `pool` when given (concurrency = min(threads, pool workers)) and
/// inline otherwise (sharded code path, serial execution).  `threads <= 1`
/// is the classic serial streaming build and performs zero heap allocations
/// once `scratch` is warm.
graph::Digraph induced_digraph_fast(std::span<const geom::Point> pts,
                                    const Orientation& o, double angle_tol,
                                    double radius_tol,
                                    TransmissionScratch& scratch,
                                    int threads = 1,
                                    par::ThreadPool* pool = nullptr);

/// The cell size the overloads above index their points at, for an
/// orientation whose largest antenna radius is `max_radius`.
double digraph_grid_cell(double max_radius);

/// The same build over a caller-built `grid` instead of the scratch one:
/// `grid` indexes the candidate targets among `pts` (for instance a
/// `GridIndex::rebuild` with an alive mask) at `digraph_grid_cell` of the
/// largest radius in `o`.  Ids the grid leaves out appear in no row, and
/// their own rows are empty when `o` gives them no antenna — so over a
/// masked grid the CSR equals, row for row and in order, the scratch build
/// over the indexed points compacted in id order, up to that monotone
/// relabelling (sim::ChurnEngine builds its original-space digraph this
/// way, with dead ids as empty rows).
graph::Digraph induced_digraph_fast(std::span<const geom::Point> pts,
                                    const Orientation& o,
                                    const spatial::GridIndex& grid,
                                    double angle_tol, double radius_tol,
                                    TransmissionScratch& scratch,
                                    int threads = 1,
                                    par::ThreadPool* pool = nullptr);

/// Single-edge membership test: does any antenna at `u` cover `v`?  This is
/// the digraph builders' accept predicate factored out per edge — same
/// arithmetic, same tolerance semantics, compiled in the same translation
/// unit (with contraction off), so `sector_accepts(pts, o, u, v) == (v in
/// induced_digraph(pts, o).out(u))` bit for bit.  Incremental recertifiers
/// (sim::ChurnEngine) use it to retest only the edges incident to dirty
/// sectors instead of rebuilding whole rows.  O(antennas at u).
bool sector_accepts(std::span<const geom::Point> pts, const Orientation& o,
                    int u, int v, double angle_tol = dirant::kAngleTol,
                    double radius_tol = dirant::kRadiusAbsTol);

/// Retests for moved or recovered points in a row patch: for every `v` in
/// `events` (ascending ids) and every other point `c` within
/// `query_radius` of `v` with `open_row(c)`, collects (c, v) when
/// `sector_accepts(pts, o, c, v)`, sorted — so each row's run lists the
/// events it accepts in `events` order.  That equals testing every open row against every event as long
/// as `query_radius` exceeds each sector's accept limit,
/// radius · (1 + kRadiusRelTol) + kRadiusAbsTol: the superset a rebuilt
/// row's own grid query rests on.  `grid` indexes `pts`; `hits` is
/// scratch.  O(events × local density) instead of O(rows × events).
template <typename OpenRow>
void accepting_rows(std::span<const geom::Point> pts, const Orientation& o,
                    const spatial::GridIndex& grid, double query_radius,
                    std::span<const int> events, OpenRow&& open_row,
                    std::vector<int>& hits,
                    std::vector<std::pair<int, int>>& out) {
  out.clear();
  for (int v : events) {
    hits.clear();
    grid.within(pts[v], query_radius, v, hits);
    for (int c : hits) {
      if (open_row(c) && sector_accepts(pts, o, c, v)) out.emplace_back(c, v);
    }
  }
  std::sort(out.begin(), out.end());
}

/// Omnidirectional reference: edge (u, v) iff dist(u, v) <= radius.
/// Symmetric by construction; used by the simulator as a baseline.
graph::Digraph unit_disk_digraph(std::span<const geom::Point> pts,
                                 double radius);

/// Scratch-reusing variant: the grid index is recycled via
/// `GridIndex::rebuild` and the offsets/targets buffers become the CSR
/// arrays of the returned graph.  Audit loops (sim::AuditSession) hand the
/// buffers back through `Digraph::release`, so rebuilding the omni
/// reference digraph per audit allocates nothing in steady state.
graph::Digraph unit_disk_digraph(std::span<const geom::Point> pts,
                                 double radius, TransmissionScratch& scratch);

}  // namespace dirant::antenna
