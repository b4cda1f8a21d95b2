#include "delaunay/delaunay.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/assert.hpp"
#include "common/radix_sort.hpp"
#include "geometry/exact.hpp"

namespace dirant::delaunay {

using geom::Point;

namespace {

constexpr int kNext[3] = {1, 2, 0};
constexpr int kPrev[3] = {2, 0, 1};

// Insertion-order key: [BRIO round: 3 bits | Hilbert distance: 32 bits |
// position in orig_: 29 bits], radix-sorted on the top 35 bits.
constexpr int kIndexBits = 29;
constexpr int kRoundShift = kIndexBits + 32;
constexpr int kRounds = 8;
static_assert(std::bit_width(unsigned{kRounds - 1}) == 64 - kRoundShift);

// Order-16 Hilbert curve over the 65536x65536 grid as a 4-state machine
// (state = whether the lower levels are transposed and/or complemented),
// stepped four levels per lookup: entry [state][x nibble][y nibble] holds
// the next state above the eight key bits of those four levels.
struct HilbertTable {
  std::uint16_t entry[4 * 256];
  constexpr HilbertTable() : entry() {
    for (std::uint32_t state = 0; state < 4; ++state) {
      for (std::uint32_t xn = 0; xn < 16; ++xn) {
        for (std::uint32_t yn = 0; yn < 16; ++yn) {
          std::uint32_t swap = state & 1, flip = state >> 1, d = 0;
          for (int level = 3; level >= 0; --level) {
            std::uint32_t rx = (xn >> level) & 1, ry = (yn >> level) & 1;
            const std::uint32_t t = (rx ^ ry) & swap;  // transpose
            rx ^= t ^ flip;
            ry ^= t ^ flip;
            d = (d << 2) | ((3 * rx) ^ ry);
            // Quadrants with ry == 0 transpose the levels below them;
            // the one with rx == 1 also complements them.
            flip ^= rx & (ry ^ 1);
            swap ^= ry ^ 1;
          }
          entry[state << 8 | xn << 4 | yn] =
              static_cast<std::uint16_t>((flip << 1 | swap) << 8 | d);
        }
      }
    }
  }
};
constexpr HilbertTable kHilbert;

// Distance along the order-16 Hilbert curve of the 65536x65536 grid.
std::uint64_t hilbert_d(std::uint32_t x, std::uint32_t y) {
  std::uint64_t d = 0;
  std::uint32_t state = 0;
  for (int shift = 12; shift >= 0; shift -= 4) {
    const std::uint32_t e = kHilbert.entry[state << 8 |
                                           ((x >> shift) & 15) << 4 |
                                           ((y >> shift) & 15)];
    d = (d << 8) | (e & 255);
    state = e >> 8;
  }
  return d;
}

// BRIO round of input point `id`, first round 0.  A fixed hash (the
// splitmix64 finaliser) of the id puts the point in the last round with
// probability 1/2, the one before with 1/4, and so on; round 0 takes the
// remaining 1/128.
std::uint64_t brio_round(std::uint32_t id) {
  std::uint64_t z = id + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return kRounds - 1 - std::countr_zero(z | (1ull << (kRounds - 1)));
}

}  // namespace

bool Triangulator::run(std::span<const Point> pts, Workspace& ws) {
  const int m = num_real();
  DIRANT_ASSERT_MSG(m < (1 << kIndexBits),
                    "too many points for the insertion-order key");
  double min_x = pts[orig_[0]].x, max_x = min_x;
  double min_y = pts[orig_[0]].y, max_y = min_y;
  for (const int id : orig_) {
    min_x = std::min(min_x, pts[id].x);
    max_x = std::max(max_x, pts[id].x);
    min_y = std::min(min_y, pts[id].y);
    max_y = std::max(max_y, pts[id].y);
  }

  // BRIO order: rounds first, each round swept along the order-16 Hilbert
  // curve, so consecutive insertions are spatially adjacent and the walk
  // from the previous fan is O(1) expected steps.
  const double sx = max_x > min_x ? (max_x - min_x) : 1.0;
  const double sy = max_y > min_y ? (max_y - min_y) : 1.0;
  pts_ = ws.take<Point>(static_cast<size_t>(m) + 3);
  {
    // The sort keys are dead before the soup is taken: its frame ends here.
    Workspace::Frame sort_frame(ws);
    auto order = ws.take<std::uint64_t>(m);
    for (int k = 0; k < m; ++k) {
      const Point& p = pts[orig_[k]];
      const auto hx = static_cast<std::uint32_t>(65535.0 * (p.x - min_x) / sx);
      const auto hy = static_cast<std::uint32_t>(65535.0 * (p.y - min_y) / sy);
      order[k] =
          brio_round(static_cast<std::uint32_t>(orig_[k])) << kRoundShift |
          hilbert_d(hx, hy) << kIndexBits | static_cast<std::uint64_t>(k);
    }
    order = radix_sort(order, kIndexBits, ws);
    // Renumber: pts_[i] is the i-th point inserted, orig_[i] its input id.
    constexpr std::uint64_t kIndexMask = (1ull << kIndexBits) - 1;
    for (std::uint64_t& key : order) key = orig_[key & kIndexMask];
    for (int i = 0; i < m; ++i) {
      orig_[i] = static_cast<int>(order[i]);
      pts_[i] = pts[orig_[i]];
    }
  }

  // Super-triangle hosting every point, corners m, m + 1, m + 2.
  const double cx = (min_x + max_x) / 2.0, cy = (min_y + max_y) / 2.0;
  const double r = std::max({max_x - min_x, max_y - min_y, 1.0});
  const double M = 1e6 * r;
  pts_[m] = {cx + M, cy - M};
  pts_[m + 1] = {cx, cy + M};
  pts_[m + 2] = {cx - M, cy - M};
  Tri super{{m, m + 1, m + 2}, {-1, -1, -1}};
  if (geom::orient2d_sign(pts_[m], pts_[m + 1], pts_[m + 2]) < 0) {
    std::swap(super.v[1], super.v[2]);
  }
  // Each insertion adds exactly two slots, so the soup ends at 2m + 1.
  const size_t slots = 2 * static_cast<size_t>(m) + 1;
  tris_ = ws.take<Tri>(slots);
  tris_[0] = super;
  tri_count_ = 1;
  cavity_mark_ = ws.take<std::uint32_t>(slots);
  std::fill(cavity_mark_.begin(), cavity_mark_.end(), 0);
  epoch_ = 0;
  last_ = 0;
  start_at_ = ws.take<int>(static_cast<size_t>(m) + 3);
  end_at_ = ws.take<int>(static_cast<size_t>(m) + 3);
  for (int i = 0; i < m; ++i) {
    if (!insert(i)) return false;
  }
  return true;
}

void Triangulator::emit(std::vector<std::array<int, 3>>* triangles,
                        std::vector<std::pair<int, int>>& edges) const {
  const int m = num_real();
  for (int id = 0; id < tri_count_; ++id) {
    const Tri& t = tris_[id];
    if (triangles && t.v[0] < m && t.v[1] < m && t.v[2] < m) {
      triangles->push_back({orig_[t.v[0]], orig_[t.v[1]], orig_[t.v[2]]});
    }
    for (int i = 0; i < 3; ++i) {
      const int a = t.v[kNext[i]], b = t.v[kPrev[i]];
      if (a >= m || b >= m) continue;
      // A real-real edge is interior (super-triangle hosting), so its
      // neighbour exists; emitting from the lower triangle id only dedupes.
      if (t.nb[i] != -1 && t.nb[i] < id) continue;
      edges.emplace_back(std::min(orig_[a], orig_[b]),
                         std::max(orig_[a], orig_[b]));
    }
  }
}

// True if q is strictly inside the circumcircle of triangle ti.
bool Triangulator::in_circumcircle(int ti, const Point& q) const {
  const Tri& t = tris_[ti];
  return geom::incircle_sign(pts_[t.v[0]], pts_[t.v[1]], pts_[t.v[2]], q) > 0;
}

// Walking point location from the last fan; returns a triangle containing
// p (boundary inclusive), or -1 on failure.
int Triangulator::locate(const Point& p) const {
  int t = last_;
  const int cap = 4 * tri_count_ + 64;
  for (int step = 0; step < cap; ++step) {
    const Tri& tri = tris_[t];
    bool moved = false;
    for (int i = 0; i < 3; ++i) {
      const int a = tri.v[kNext[i]], b = tri.v[kPrev[i]];
      if (geom::orient2d_sign(pts_[a], pts_[b], p) < 0) {
        const int nxt = tri.nb[i];
        if (nxt == -1) return -1;  // outside the super-triangle
        t = nxt;
        moved = true;
        break;
      }
    }
    if (!moved) return t;
  }
  // Walk cycled (can happen on wildly degenerate data): linear fallback.
  for (int i = 0; i < tri_count_; ++i) {
    const Tri& tri = tris_[i];
    bool inside = true;
    for (int e = 0; e < 3 && inside; ++e) {
      inside = geom::orient2d_sign(pts_[tri.v[kNext[e]]],
                                   pts_[tri.v[kPrev[e]]], p) >= 0;
    }
    if (inside) return i;
  }
  return -1;
}

bool Triangulator::insert(int pi) {
  const Point p = pts_[pi];
  const int t0 = locate(p);
  if (t0 == -1) return false;

  // Grow the cavity: all triangles whose circumcircle strictly contains p.
  // Cavity membership is an epoch stamp, not a cleared bitmap — clearing
  // O(#triangles) per insertion is what made large builds quadratic.
  ++epoch_;
  cavity_.clear();
  cavity_.push_back(t0);
  stack_.clear();
  stack_.push_back(t0);
  cavity_mark_[t0] = epoch_;
  while (!stack_.empty()) {
    const int t = stack_.back();
    stack_.pop_back();
    for (int i = 0; i < 3; ++i) {
      const int nb = tris_[t].nb[i];
      if (nb == -1 || cavity_mark_[nb] == epoch_) continue;
      if (in_circumcircle(nb, p)) {
        cavity_mark_[nb] = epoch_;
        cavity_.push_back(nb);
        stack_.push_back(nb);
      }
    }
  }

  // Boundary: directed edges (a, b) of cavity triangles whose opposite
  // neighbour is outside the cavity.
  boundary_.clear();
  for (const int t : cavity_) {
    const Tri& tri = tris_[t];
    for (int i = 0; i < 3; ++i) {
      const int nb = tri.nb[i];
      if (nb != -1 && cavity_mark_[nb] == epoch_) continue;
      boundary_.push_back({tri.v[kNext[i]], tri.v[kPrev[i]], nb});
    }
  }
  // A star-shaped cavity is a polygon triangulated without interior
  // vertices, so its fan has exactly two triangles more than it, and each
  // new triangle (p, a, b) is ccw.  A reflex boundary edge or a fan of
  // another size means the predicate tie-handling produced a non-star
  // cavity — report failure.  Past these checks the boundary is one simple
  // cycle winding once around p (every edge turns strictly ccw about p),
  // so each vertex starts and ends exactly one boundary edge and the
  // linkage slots below are all written before they are read.
  const int c = static_cast<int>(cavity_.size());
  if (static_cast<int>(boundary_.size()) != c + 2) return false;
  for (const BEdge& e : boundary_) {
    if (geom::orient2d_sign(p, pts_[e.a], pts_[e.b]) <= 0) return false;
  }

  // The fan overwrites the cavity's slots, then appends two.
  const int base = tri_count_;
  tri_count_ += 2;
  for (int k = 0; k < c + 2; ++k) {
    const BEdge& e = boundary_[k];
    const int id = k < c ? cavity_[k] : base + (k - c);
    tris_[id] = {{pi, e.a, e.b}, {e.outside, -1, -1}};
    // Repair the outside triangle's back-pointer.
    if (e.outside != -1) {
      Tri& o = tris_[e.outside];
      for (int i = 0; i < 3; ++i) {
        if (o.v[kNext[i]] == e.b && o.v[kPrev[i]] == e.a) {
          o.nb[i] = id;
          break;
        }
      }
    }
    start_at_[e.a] = id;
    end_at_[e.b] = id;
  }
  // Fan linkage: edge (b, p) of (p, a, b) meets the triangle starting at
  // b; edge (p, a) meets the triangle ending at a.
  for (int k = 0; k < c + 2; ++k) {
    Tri& t = tris_[k < c ? cavity_[k] : base + (k - c)];
    t.nb[1] = start_at_[t.v[2]];  // edge (v2, v0) = (b, p)
    t.nb[2] = end_at_[t.v[1]];    // edge (v0, v1) = (p, a)
  }
  last_ = cavity_[0];
  return true;
}

void Triangulator::triangulate(std::span<const Point> pts, Triangulation& out) {
  out.triangles.clear();
  build(pts, &out.triangles, out.edges);
}

void Triangulator::triangulate(std::span<const Point> pts,
                               std::vector<std::pair<int, int>>& edges) {
  build(pts, nullptr, edges);
}

void Triangulator::build(std::span<const Point> pts,
                         std::vector<std::array<int, 3>>* triangles,
                         std::vector<std::pair<int, int>>& edges) {
  edges.clear();
  const int n = static_cast<int>(pts.size());
  if (n <= 1) return;

  // Fast path: assume the input is duplicate-free (the overwhelmingly
  // common case) and skip the dedup prepass entirely.  An exact duplicate
  // always aborts the build, in any insertion order: it is located in a
  // triangle with the earlier copy as a corner; the neighbours across that
  // corner's two edges have the copy on their circumcircles, so they stay
  // out of the cavity; and the boundary edges through the copy fail the
  // reflex check.  So correctness never depends on this guess.
  Workspace& ws = ws_.get();
  Workspace::Frame frame(ws);
  // Everything run() takes, for at most n points: the sort buffers and
  // then the soup share the bytes past the renumbered points.
  const size_t m = static_cast<size_t>(n);
  ws.reserve(Workspace::bytes<int>(m) + Workspace::bytes<Point>(m + 3) +
             std::max(2 * Workspace::bytes<std::uint64_t>(m) +
                          Workspace::bytes<std::size_t>(kRadixCounts),
                      Workspace::bytes<Tri>(2 * m + 1) +
                          Workspace::bytes<std::uint32_t>(2 * m + 1) +
                          2 * Workspace::bytes<int>(m + 3)));
  orig_ = ws.take<int>(n);
  std::iota(orig_.begin(), orig_.end(), 0);
  {
    Workspace::Frame attempt(ws);
    if (run(pts, ws)) {
      emit(triangles, edges);
      return;
    }
  }

  // Merge exact duplicates: sort indices by coordinates (duplicates become
  // adjacent runs) and keep the lowest input index of each run.
  // Degenerate-input path: allocates freely (it runs at most once per
  // adversarial instance, never in PlanSession steady state).
  std::vector<int> by_coord(n);
  std::iota(by_coord.begin(), by_coord.end(), 0);
  std::sort(by_coord.begin(), by_coord.end(), [&](int a, int b) {
    if (pts[a].x != pts[b].x) return pts[a].x < pts[b].x;
    if (pts[a].y != pts[b].y) return pts[a].y < pts[b].y;
    return a < b;
  });
  std::vector<int> rep(n, -1);  // original -> representative original
  for (int s = 0; s < n;) {
    int e = s + 1;
    while (e < n && pts[by_coord[e]] == pts[by_coord[s]]) ++e;
    // Lowest original index in the run represents it (ties above sort by
    // index, so by_coord[s] is that minimum).
    for (int j = s; j < e; ++j) rep[by_coord[j]] = by_coord[s];
    s = e;
  }
  int reps = 0;
  for (int i = 0; i < n; ++i) {
    if (rep[i] == i) {
      orig_[reps++] = i;
    } else {
      edges.emplace_back(rep[i], i);  // rep[i] < i by construction
    }
  }
  orig_ = orig_.first(static_cast<size_t>(reps));

  if (reps >= 2) {
    if (!run(pts, ws)) {
      edges.clear();  // signal failure: caller falls back
      return;
    }
    emit(triangles, edges);
  }
  // Already unique: duplicate-merge edges pair a representative with a
  // non-representative, triangulation edges pair two representatives, and
  // emit() writes each interior edge from one triangle only.
}

Triangulation triangulate(std::span<const Point> pts) {
  Triangulation out;
  Triangulator builder;
  builder.triangulate(pts, out);
  return out;
}

}  // namespace dirant::delaunay
