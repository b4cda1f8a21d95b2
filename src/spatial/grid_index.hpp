#pragma once
/// \file grid_index.hpp
/// Uniform bucket grid for fixed-radius neighbour queries.  Complements the
/// kd-tree when the query radius is known up front (transmission-graph
/// construction, unit-disk graph building).

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "common/workspace.hpp"
#include "geometry/point.hpp"

namespace dirant::spatial {

class GridIndex {
 public:
  /// Empty grid; fill it with `rebuild`.  Lets long-lived scratch objects
  /// (TransmissionScratch, batch workers) own an index and recycle it.
  GridIndex() = default;
  // The views point into the owned vectors: moves carry them along, copies
  // would not.
  GridIndex(GridIndex&&) = default;
  GridIndex& operator=(GridIndex&&) = default;

  /// Builds a grid with cell size `cell` (> 0) over `pts`.
  GridIndex(std::span<const geom::Point> pts, double cell);

  /// Re-indexes `pts` in place, reusing the CSR bucket arrays and the
  /// counting-sort scratch.  Same result as constructing a fresh
  /// GridIndex(pts, cell); allocates nothing once the buffers are at least
  /// as large as the instance (same-size recycling — the PlanSession /
  /// certify steady state — touches only warm memory).
  void rebuild(std::span<const geom::Point> pts, double cell);

  /// Same, over the ids `i` with `alive[i] != 0` only: ids stay positions
  /// in `pts`, and the bounding box is the alive points'.  The cells, and
  /// the ascending-id order inside each, are those of `rebuild` over the
  /// alive points compacted in id order — so every query enumerates the
  /// same points in the same order, up to that monotone relabelling.
  void rebuild(std::span<const geom::Point> pts, double cell,
               std::span<const char> alive);

  /// `rebuild(pts, cell)` into arrays taken from `ws` inside the caller's
  /// open frame instead of the index's own: the index is valid while that
  /// frame lives, and cannot `insert`.  A build that no later call reads
  /// (the certify digraph build) borrows its grid this way.
  void rebuild(std::span<const geom::Point> pts, double cell, Workspace& ws);

  /// In-place maintenance for a long-lived index over stable ids
  /// (sim::ChurnEngine keeps one current across churn batches).  `erase`
  /// tombstones the entry of `id`, which must have been indexed at `p`;
  /// `insert` indexes `id` at `p`, reusing a tombstone of the target cell
  /// when it has one (else it opens a slot: an O(size) shift), and keeps
  /// each cell's live ids ascending.  A tombstone is never reported by a
  /// query.  Neither moves the cell geometry, so after either the index
  /// may no longer be what a rebuild over its members would build:
  /// `fresh_geometry()` turns false once an erased point lay on the
  /// bounding box or an inserted one outside it, and stays false until the
  /// next rebuild.  Queries stay exact either way; only the enumeration
  /// order can differ from a fresh build's.
  void erase(int id, const geom::Point& p);
  void insert(int id, const geom::Point& p);
  bool fresh_geometry() const { return fresh_; }
  double cell() const { return cell_; }

  /// Indices of all points within `radius` of `q` (inclusive), excluding
  /// `exclude`.  Intended for radius <= a few cells.
  std::vector<int> within(const geom::Point& q, double radius,
                          int exclude = -1) const;

  /// Allocation-free variant: appends the hits to `out` (not cleared).
  /// Hot paths (transmission-graph construction, batch pipelines) reuse one
  /// buffer across queries instead of allocating per call.
  void within(const geom::Point& q, double radius, int exclude,
              std::vector<int>& out) const;

  /// Streaming variant: calls `f(i, dx, dy, dist2)` for every point within
  /// `radius` of `q` (inclusive, excluding `exclude`), where (dx, dy) =
  /// pts[i] - q.  Fused filters (the sector classifier in the certify path)
  /// consume hits in place — no candidate buffer, and the displacement
  /// computed for the radius test is reused instead of recomputed.
  template <typename F>
  void for_each_within(const geom::Point& q, double radius, int exclude,
                       F&& f) const {
    if (size() == 0) return;
    // floor(x) + 1 >= ceil(x) always: divide-free and still conservative.
    const int span = static_cast<int>(radius * inv_cell_) + 1;
    const auto [cx, cy] = cell_of(q);
    scan_window(q, radius, std::max(0, cx - span),
                std::min(nx_ - 1, cx + span), std::max(0, cy - span),
                std::min(ny_ - 1, cy + span), exclude, f);
  }

  /// Clamped cell coordinate of a world coordinate — the same mapping the
  /// build uses.  Callers that shape their own query boxes (certification's
  /// per-sector windows) map the box corners here and hand the window to
  /// `for_each_in_cell_window`.
  int cell_x(double x) const {
    return std::clamp(static_cast<int>((x - min_x_) * inv_cell_), 0, nx_ - 1);
  }
  int cell_y(double y) const {
    return std::clamp(static_cast<int>((y - min_y_) * inv_cell_), 0, ny_ - 1);
  }

  /// Scan an explicit (inclusive, already clamped) cell window, filtering
  /// by squared distance `radius2` around `q`.  Companion of
  /// `cell_x`/`cell_y`; takes the radius pre-squared so pipelines that
  /// already store a squared limit pass it straight through.
  template <typename F>
  void for_each_in_cell_window(const geom::Point& q, double radius2,
                               int x_lo, int x_hi, int y_lo, int y_hi,
                               int exclude, F&& f) const {
    if (size() == 0) return;
    scan_window_r2(q, radius2, x_lo, x_hi, y_lo, y_hi, exclude, f);
  }

  /// Reusable scratch for `cone_nearest`; per-point query loops keep one
  /// instance alive so the k-sized working vectors allocate only once.
  struct ConeScratch {
    std::vector<double> best, reach;
  };

  /// Per-cone nearest neighbours (the Yao-graph step).  Directions around
  /// `q` split into `k` equal ccw cones, cone 0 starting at `phase`; writes
  /// the index of the nearest point strictly inside each cone into
  /// `nearest` (resized to k; -1 for empty cones).  Expanding-ring search:
  /// each ring of cells is scanned once, and a cone is closed as soon as
  /// its current best is provably optimal or the cone's intersection with
  /// the point bounding box has been exhausted — so empty outward cones at
  /// boundary vertices do not force a full-grid scan.
  void cone_nearest(const geom::Point& q, int k, double phase, int exclude,
                    std::vector<int>& nearest, ConeScratch& scratch) const;

  /// Convenience overload with call-local scratch.
  void cone_nearest(const geom::Point& q, int k, double phase, int exclude,
                    std::vector<int>& nearest) const;

  /// Indexed slots, tombstones included (0 iff nothing was ever indexed).
  int size() const { return static_cast<int>(item_id_.size()); }

 private:
  std::pair<int, int> cell_of(const geom::Point& p) const;
  /// Build into the owned vectors, or into views taken from `ws` if given.
  void build(std::span<const geom::Point> pts, double cell,
             const char* alive, Workspace* ws);
  /// Farthest any point of the data bounding box intersected with the ccw
  /// cone [a0, a0+width] at apex q can lie from q (0 if the cone misses
  /// the box).  Used to prove empty cones empty without scanning.
  double cone_reach(const geom::Point& q, double a0, double width) const;

  static constexpr int kScanChunk = 64;

  template <typename F>
  void scan_window(const geom::Point& q, double radius, int x_lo, int x_hi,
                   int y_lo, int y_hi, int exclude, F&& f) const {
    scan_window_r2(q, radius * radius, x_lo, x_hi, y_lo, y_hi, exclude, f);
  }

  /// Shared scan body over an inclusive cell window: one contiguous run of
  /// cell-sorted coordinates per grid row, processed in chunks — the
  /// squared-distance pass is branch-free over SoA arrays (the compiler
  /// vectorizes it), and only the sparse hits pay the callback.
  template <typename F>
  void scan_window_r2(const geom::Point& q, double r2, int x_lo, int x_hi,
                      int y_lo, int y_hi, int exclude, F&& f) const {
    double d2s[kScanChunk];
    for (int y = y_lo; y <= y_hi; ++y) {
      const size_t row = static_cast<size_t>(y) * nx_;
      int k = cell_start_[row + x_lo];
      const int k_end = cell_start_[row + x_hi + 1];
      if (k_end - k <= 16) {
        // Short runs (narrow beam windows): plain scalar loop, no chunk
        // buffer setup.
        for (; k < k_end; ++k) {
          const double dx = item_x_[k] - q.x;
          const double dy = item_y_[k] - q.y;
          const double d2 = dx * dx + dy * dy;
          if (d2 <= r2 && item_id_[k] != exclude) {
            f(item_id_[k], dx, dy, d2);
          }
        }
        continue;
      }
      while (k < k_end) {
        const int chunk = std::min(kScanChunk, k_end - k);
        for (int t = 0; t < chunk; ++t) {
          const double dx = item_x_[k + t] - q.x;
          const double dy = item_y_[k + t] - q.y;
          d2s[t] = dx * dx + dy * dy;
        }
        for (int t = 0; t < chunk; ++t) {
          if (d2s[t] <= r2) {
            const int i = item_id_[k + t];
            if (i != exclude) {
              f(i, item_x_[k + t] - q.x, item_y_[k + t] - q.y, d2s[t]);
            }
          }
        }
        k += chunk;
      }
    }
  }

  double cell_ = 1.0;
  double inv_cell_ = 1.0;  ///< 1 / cell_, for divide-free cell lookup
  double min_x_ = 0.0, min_y_ = 0.0;
  double max_x_ = 0.0, max_y_ = 0.0;
  int nx_ = 1, ny_ = 1;
  // Buckets in compressed-sparse-row form: cell_start_ has nx*ny+1 prefix
  // sums into three parallel arrays grouped by cell (ascending original
  // index within a cell) — the original point id and a cell-ordered SoA
  // copy of its coordinates, so range scans stream memory instead of
  // gathering through ids.  A handful of allocations regardless of n, vs
  // one small vector per cell.  After `erase`, a slot may hold a
  // tombstone (id -1, infinite coordinates) anywhere in its cell; the live
  // ids stay ascending.  The four arrays are views of the owned vectors
  // below, or of a caller's workspace (`rebuild` with a Workspace).
  std::span<int> cell_start_;
  std::span<int> item_id_;
  std::span<double> item_x_, item_y_;
  std::vector<int> own_cell_start_, own_item_id_;
  std::vector<double> own_item_x_, own_item_y_;
  std::vector<int> build_cell_id_;  ///< counting-sort scratch, recycled
  bool borrowed_ = false;  ///< the views lie in a caller's workspace
  int live_ = 0;         ///< indexed ids that are not tombstones
  bool fresh_ = true;    ///< geometry equals a rebuild over the members
};

}  // namespace dirant::spatial
