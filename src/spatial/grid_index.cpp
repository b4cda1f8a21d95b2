#include "spatial/grid_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.hpp"
#include "common/constants.hpp"
#include "geometry/angle.hpp"

namespace dirant::spatial {

using geom::Point;

GridIndex::GridIndex(std::span<const Point> pts, double cell) {
  rebuild(pts, cell);
}

namespace {

/// `n` slots of the owned vector `own`, or of `ws` when given.
template <class T>
std::span<T> storage(std::vector<T>& own, size_t n, Workspace* ws) {
  if (ws != nullptr) return ws->take<T>(n);
  own.resize(n);
  return own;
}

}  // namespace

void GridIndex::rebuild(std::span<const Point> pts, double cell,
                        std::span<const char> mask, Workspace* ws) {
  DIRANT_ASSERT(cell > 0.0);
  DIRANT_ASSERT(mask.empty() || mask.size() == pts.size());
  const char* alive = mask.empty() ? nullptr : mask.data();
  min_x_ = min_y_ = max_x_ = max_y_ = 0.0;
  nx_ = ny_ = 1;
  fresh_ = true;
  const auto in = [alive](size_t i) { return alive == nullptr || alive[i]; };
  size_t count = 0;
  for (size_t i = 0; i < pts.size(); ++i) {
    if (!in(i)) continue;
    const Point& p = pts[i];
    if (count++ == 0) {
      min_x_ = max_x_ = p.x;
      min_y_ = max_y_ = p.y;
      continue;
    }
    min_x_ = std::min(min_x_, p.x);
    min_y_ = std::min(min_y_, p.y);
    max_x_ = std::max(max_x_, p.x);
    max_y_ = std::max(max_y_, p.y);
  }
  live_ = static_cast<int>(count);
  borrowed_ = ws != nullptr;
  // The cell cap: double the cell until nx·ny <= 4·live + 1024.  Counted
  // in doubles, so a huge box over a tiny cell cannot overflow the count.
  const auto cells_at = [&](double c) {
    return (std::floor((max_x_ - min_x_) / c) + 1.0) *
           (std::floor((max_y_ - min_y_) / c) + 1.0);
  };
  const auto live_needed = [](double cells) {
    const double live = std::ceil((cells - 1024) / 4);
    return static_cast<int>(std::clamp(live, 0.0, 2e9));
  };
  const double cap = 4.0 * static_cast<double>(count) + 1024.0;
  live_hi_ = std::numeric_limits<int>::max();
  while (cells_at(cell) > cap) {
    live_hi_ = live_needed(cells_at(cell));
    cell *= 2.0;
  }
  live_lo_ = live_needed(cells_at(cell));
  cell_ = cell;
  inv_cell_ = 1.0 / cell;
  nx_ = static_cast<int>((max_x_ - min_x_) / cell_) + 1;
  ny_ = static_cast<int>((max_y_ - min_y_) / cell_) + 1;
  // Counting sort into CSR: count per cell (caching each point's cell id
  // so the fill pass reloads it instead of recomputing the coordinate
  // mapping), prefix-sum, fill (ascending i, so ids stay sorted within
  // each cell), then shift the advanced cursors back into prefix
  // positions.  Every buffer (including the cell-id cache) is recycled
  // across rebuilds — member vectors keep their capacity, workspace views
  // their high-water block — so a warm same-size rebuild performs zero
  // heap allocations.
  const size_t cells = static_cast<size_t>(nx_) * ny_;
  cell_start_ = storage(own_cell_start_, cells + 1, ws);
  std::fill(cell_start_.begin(), cell_start_.end(), 0);
  item_id_ = storage(own_item_id_, count, ws);
  item_x_ = storage(own_item_x_, count, ws);
  item_y_ = storage(own_item_y_, count, ws);
  const std::span<int> cell_id = storage(build_cell_id_, pts.size(), ws);
  for (size_t i = 0; i < pts.size(); ++i) {
    if (!in(i)) continue;
    const auto [cx, cy] = cell_of(pts[i]);
    const int c = cy * nx_ + cx;
    cell_id[i] = c;
    ++cell_start_[static_cast<size_t>(c) + 1];
  }
  for (size_t c = 0; c < cells; ++c) cell_start_[c + 1] += cell_start_[c];
  for (size_t i = 0; i < pts.size(); ++i) {
    if (!in(i)) continue;
    const int slot = cell_start_[static_cast<size_t>(cell_id[i])]++;
    item_id_[slot] = static_cast<int>(i);
    item_x_[slot] = pts[i].x;
    item_y_[slot] = pts[i].y;
  }
  for (size_t c = cells; c > 0; --c) cell_start_[c] = cell_start_[c - 1];
  cell_start_[0] = 0;
}

void GridIndex::erase(int id, const Point& p) {
  if (p.x == min_x_ || p.x == max_x_ || p.y == min_y_ || p.y == max_y_) {
    fresh_ = false;  // the bounding box may shrink
  }
  const auto [cx, cy] = cell_of(p);
  const size_t c = static_cast<size_t>(cy) * nx_ + cx;
  for (int k = cell_start_[c]; k < cell_start_[c + 1]; ++k) {
    if (item_id_[k] != id) continue;
    // A tombstone: id -1 and infinite coordinates, so every distance test
    // against it fails and no query ever reports it.
    item_id_[k] = -1;
    item_x_[k] = item_y_[k] = std::numeric_limits<double>::infinity();
    // Below live_lo_ the cell cap would pick a coarser cell.
    if (--live_ < live_lo_) fresh_ = false;
    return;
  }
  DIRANT_ASSERT_MSG(false, "GridIndex::erase: id not indexed at p");
}

void GridIndex::insert(int id, const Point& p) {
  DIRANT_ASSERT_MSG(!borrowed_, "GridIndex::insert on a borrowed index");
  if (live_ == 0 || item_id_.empty() || p.x < min_x_ || p.x > max_x_ ||
      p.y < min_y_ || p.y > max_y_) {
    fresh_ = false;  // the bounding box would grow
  }
  if (item_id_.empty()) {
    // Nothing was ever indexed: one cell at p.
    min_x_ = max_x_ = p.x;
    min_y_ = max_y_ = p.y;
    nx_ = ny_ = 1;
    own_cell_start_.assign(2, 0);
    cell_start_ = own_cell_start_;
  }
  const auto [cx, cy] = cell_of(p);
  const size_t c = static_cast<size_t>(cy) * nx_ + cx;
  const int lo = cell_start_[c];
  int hi = cell_start_[c + 1];
  int k = lo;
  while (k < hi && item_id_[k] >= 0) ++k;
  if (k == hi) {
    // No tombstone in the cell: open a slot at its end.
    const size_t total = item_id_.size();
    item_id_ = storage(own_item_id_, total + 1, nullptr);
    item_x_ = storage(own_item_x_, total + 1, nullptr);
    item_y_ = storage(own_item_y_, total + 1, nullptr);
    std::copy_backward(item_id_.begin() + hi, item_id_.begin() + total,
                       item_id_.end());
    std::copy_backward(item_x_.begin() + hi, item_x_.begin() + total,
                       item_x_.end());
    std::copy_backward(item_y_.begin() + hi, item_y_.begin() + total,
                       item_y_.end());
    for (size_t d = c + 1; d < cell_start_.size(); ++d) ++cell_start_[d];
    ++hi;
  }
  item_id_[k] = id;
  item_x_[k] = p.x;
  item_y_[k] = p.y;
  // From live_hi_ on the cell cap would pick a finer cell.
  if (++live_ >= live_hi_) fresh_ = false;
  // Keep the cell's live ids ascending (tombstones may sit anywhere): move
  // the new entry left past tombstones and larger ids, then right past
  // tombstones and smaller ids.
  const auto swap_slots = [this](int a, int b) {
    std::swap(item_id_[a], item_id_[b]);
    std::swap(item_x_[a], item_x_[b]);
    std::swap(item_y_[a], item_y_[b]);
  };
  while (k > lo && (item_id_[k - 1] < 0 || item_id_[k - 1] > id)) {
    swap_slots(k - 1, k);
    --k;
  }
  while (k + 1 < hi && (item_id_[k + 1] < 0 || item_id_[k + 1] < id)) {
    swap_slots(k, k + 1);
    ++k;
  }
}

std::pair<int, int> GridIndex::cell_of(const Point& p) const {
  // Multiply by the precomputed reciprocal: cell lookup sits on every query
  // path, and build/query use the same expression so assignment stays
  // consistent.
  int cx = static_cast<int>((p.x - min_x_) * inv_cell_);
  int cy = static_cast<int>((p.y - min_y_) * inv_cell_);
  cx = std::clamp(cx, 0, nx_ - 1);
  cy = std::clamp(cy, 0, ny_ - 1);
  return {cx, cy};
}

std::vector<int> GridIndex::within(const Point& q, double radius,
                                   int exclude) const {
  std::vector<int> out;
  within(q, radius, exclude, out);
  return out;
}

void GridIndex::within(const Point& q, double radius, int exclude,
                       std::vector<int>& out) const {
  for_each_within(q, radius, exclude,
                  [&](int i, double, double, double) { out.push_back(i); });
}

double GridIndex::cone_reach(const Point& q, double a0, double width) const {
  // Max distance from q over (bbox intersect cone).  Both sets are convex
  // and q is in the box, so the max sits on a vertex of the intersection:
  // a box corner inside the cone, or a boundary ray's exit through a box
  // edge.  A small angular slack only ever OVER-estimates the reach, which
  // is safe (the caller merely scans a little farther).
  constexpr double kSlack = 1e-9;
  double reach = 0.0;
  const Point corners[4] = {{min_x_, min_y_},
                            {max_x_, min_y_},
                            {max_x_, max_y_},
                            {min_x_, max_y_}};
  for (const auto& c : corners) {
    if (c.x == q.x && c.y == q.y) continue;
    const double theta = geom::ccw_delta(a0, geom::angle_to(q, c));
    if (theta <= width + kSlack || theta >= kTwoPi - kSlack) {
      reach = std::max(reach, geom::dist(q, c));
    }
  }
  // Boundary rays (cone start and end) against the four box edges.
  for (const double a : {a0, a0 + width}) {
    const double dx = std::cos(a), dy = std::sin(a);
    if (std::abs(dx) > 1e-300) {
      for (const double X : {min_x_, max_x_}) {
        const double t = (X - q.x) / dx;
        if (t < 0.0) continue;
        const double y = q.y + t * dy;
        if (y >= min_y_ - kSlack && y <= max_y_ + kSlack) {
          reach = std::max(reach, t);
        }
      }
    }
    if (std::abs(dy) > 1e-300) {
      for (const double Y : {min_y_, max_y_}) {
        const double t = (Y - q.y) / dy;
        if (t < 0.0) continue;
        const double x = q.x + t * dx;
        if (x >= min_x_ - kSlack && x <= max_x_ + kSlack) {
          reach = std::max(reach, t);
        }
      }
    }
  }
  return reach;
}

void GridIndex::cone_nearest(const Point& q, int k, double phase, int exclude,
                             std::vector<int>& nearest) const {
  ConeScratch scratch;
  cone_nearest(q, k, phase, exclude, nearest, scratch);
}

void GridIndex::cone_nearest(const Point& q, int k, double phase, int exclude,
                             std::vector<int>& nearest,
                             ConeScratch& scratch) const {
  DIRANT_ASSERT(k >= 1);
  nearest.assign(k, -1);
  if (size() == 0) return;
  const double cone = kTwoPi / k;
  auto& best = scratch.best;
  auto& reach = scratch.reach;
  best.assign(k, std::numeric_limits<double>::infinity());
  reach.resize(k);
  // Full-circle cones (k == 1) always reach the whole box; skipping the
  // per-cone geometry keeps the common k >= 2 case exact.
  for (int c = 0; c < k; ++c) {
    reach[c] = k == 1 ? std::numeric_limits<double>::infinity()
                      : cone_reach(q, phase + c * cone, cone);
  }

  const auto scan_cell = [&](int x, int y) {
    const size_t c0 = static_cast<size_t>(y) * nx_ + x;
    for (int j = cell_start_[c0]; j < cell_start_[c0 + 1]; ++j) {
      const int i = item_id_[j];
      if (i < 0 || i == exclude) continue;  // tombstone or excluded
      const Point p{item_x_[j], item_y_[j]};
      if (p.x == q.x && p.y == q.y) continue;  // apex: no direction
      const double theta = geom::ccw_delta(phase, geom::angle_to(q, p));
      int c = static_cast<int>(theta / cone);
      if (c >= k) c = k - 1;
      const double d2 = geom::dist2(q, p);
      if (d2 < best[c]) {
        best[c] = d2;
        nearest[c] = i;
      }
    }
  };

  const auto [cx, cy] = cell_of(q);
  const int max_ring = std::max({cx, nx_ - 1 - cx, cy, ny_ - 1 - cy});
  for (int r = 0; r <= max_ring; ++r) {
    if (r == 0) {
      scan_cell(cx, cy);
    } else {
      const int x_lo = cx - r, x_hi = cx + r;
      const int y_lo = cy - r, y_hi = cy + r;
      if (y_lo >= 0) {
        for (int x = std::max(0, x_lo); x <= std::min(nx_ - 1, x_hi); ++x)
          scan_cell(x, y_lo);
      }
      if (y_hi <= ny_ - 1 && y_hi != y_lo) {
        for (int x = std::max(0, x_lo); x <= std::min(nx_ - 1, x_hi); ++x)
          scan_cell(x, y_hi);
      }
      const int y_in_lo = std::max(0, y_lo + 1);
      const int y_in_hi = std::min(ny_ - 1, y_hi - 1);
      if (x_lo >= 0) {
        for (int y = y_in_lo; y <= y_in_hi; ++y) scan_cell(x_lo, y);
      }
      if (x_hi <= nx_ - 1 && x_hi != x_lo) {
        for (int y = y_in_lo; y <= y_in_hi; ++y) scan_cell(x_hi, y);
      }
    }
    // Rings 0..r cover every point within Euclidean distance r*cell_ of q,
    // so a cone is settled once its best hit is that close — or once the
    // scanned radius exhausts the cone's slice of the bounding box.
    const double covered = r * cell_;
    bool done = true;
    for (int c = 0; c < k; ++c) {
      if (best[c] <= covered * covered) continue;
      if (reach[c] <= covered) continue;
      done = false;
      break;
    }
    if (done) return;
  }
}

}  // namespace dirant::spatial
