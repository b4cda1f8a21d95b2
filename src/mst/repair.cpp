#include "mst/repair.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.hpp"
#include "common/radix_sort.hpp"
#include "geometry/point.hpp"

namespace dirant::mst {

namespace {

/// The library's strict edge total order: (d2, min endpoint, max endpoint).
/// a/b and c/d need not be min/max-ordered.
inline bool edge_key_less(double d2a, int a1, int a2, double d2b, int b1,
                          int b2) {
  if (d2a != d2b) return d2a < d2b;
  const int amin = a1 < a2 ? a1 : a2, amax = a1 < a2 ? a2 : a1;
  const int bmin = b1 < b2 ? b1 : b2, bmax = b1 < b2 ? b2 : b1;
  if (amin != bmin) return amin < bmin;
  return amax < bmax;
}

}  // namespace

void DelaunayEdgePool::seed(std::span<const std::pair<int, int>> edges,
                            std::span<const int> orig_of) {
  Workspace ws;
  seed(edges, orig_of, ws);
}

void DelaunayEdgePool::seed(std::span<const std::pair<int, int>> edges,
                            std::span<const int> orig_of, Workspace& ws) {
  drop_pending();
  int max_id = -1;
  for (int u : orig_of) max_id = std::max(max_id, u);
  // (min << w | max) orders exactly as the (min, max) pair, and the
  // radix sort skips the digits every key shares.
  int w = 1;
  while ((std::uint64_t{1} << w) <= static_cast<std::uint64_t>(max_id)) ++w;
  const std::uint64_t low = (std::uint64_t{1} << w) - 1;
  Workspace::Frame frame(ws);
  auto keys = ws.take<std::uint64_t>(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    const int u = orig_of[edges[i].first], v = orig_of[edges[i].second];
    keys[i] = static_cast<std::uint64_t>(std::min(u, v)) << w |
              static_cast<std::uint64_t>(std::max(u, v));
  }
  keys = radix_sort(keys, 0, ws);
  pool_.clear();
  pool_.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0 && keys[i] == keys[i - 1]) continue;
    pool_.emplace_back(static_cast<int>(keys[i] >> w),
                       static_cast<int>(keys[i] & low));
  }
  explicit_size_ = pool_.size();
  grow(max_id + 1);
  std::fill(state_.begin(), state_.end(), kAbsent);
  for (int u : orig_of) state_[u] = kMember;
  members_ = static_cast<int>(orig_of.size());
  stars_.clear();
  valid_ = true;
}

void DelaunayEdgePool::grow(int n) {
  if (static_cast<int>(state_.size()) >= n) return;
  state_.resize(n, kAbsent);
  tomb_.resize(n, 0);
  staged_head_.resize(n, -1);
}

void DelaunayEdgePool::drop_pending() {
  for (int w : tombs_) tomb_[w] = 0;
  tombs_.clear();
  for (const auto& [a, b] : staged_) staged_head_[a] = staged_head_[b] = -1;
  staged_.clear();
  staged_next_.clear();
  index_built_ = false;
  scanned_ = false;
}

void DelaunayEdgePool::invalidate() {
  valid_ = false;
  drop_pending();
}

void DelaunayEdgePool::build_index() {
  // Counting sort of the base edges by endpoint, each entry holding the
  // other endpoint; the offsets end up shifted one slot and are moved back
  // after the fill.
  const int n = static_cast<int>(state_.size());
  index_off_.assign(static_cast<size_t>(n) + 1, 0);
  for (const auto& [a, b] : pool_) {
    ++index_off_[a];
    ++index_off_[b];
  }
  int run = 0;
  for (int u = 0; u <= n; ++u) {
    const int c = index_off_[u];
    index_off_[u] = run;
    run += c;
  }
  index_.resize(static_cast<size_t>(run));
  for (const auto& [a, b] : pool_) {
    index_[index_off_[a]++] = b;
    index_[index_off_[b]++] = a;
  }
  for (int u = n; u > 0; --u) index_off_[u] = index_off_[u - 1];
  index_off_[0] = 0;
  index_built_ = true;
}

std::size_t DelaunayEdgePool::collect_neighbours(std::span<const int> ws) {
  const auto find = [this](int x) {
    while (uf_[x] != x) x = uf_[x] = uf_[uf_[x]];
    return x;
  };
  const auto visit = [&](int lw, int x) {
    const int mx = x < static_cast<int>(mark_.size()) ? mark_[x] : 0;
    if (mx == 0) {
      boundary_.emplace_back(lw, x);
    } else {
      const int ra = find(lw), rb = find(mx - 1);
      if (ra != rb) uf_[ra] = rb;
    }
  };
  std::size_t seen = 0;
  if (!scanned_) {
    // First erase since the last compaction: no tombstones and no staged
    // edges exist yet, and one pass over the base serves the whole set.
    scanned_ = true;
    const int max_id = static_cast<int>(mark_.size()) - 1;
    for (const auto& [a, b] : pool_) {
      const int ma = a <= max_id ? mark_[a] : 0;
      const int mb = b <= max_id ? mark_[b] : 0;
      if (ma != 0) {
        visit(ma - 1, b);
      } else if (mb != 0) {
        visit(mb - 1, a);
      } else {
        continue;
      }
      ++seen;
    }
    for (int w : ws) {
      if (is_member(w)) {
        tomb_[w] = 1;
        tombs_.push_back(w);
      }
    }
    return seen;
  }
  if (!index_built_) build_index();
  const int indexed = static_cast<int>(index_off_.size()) - 1;
  for (int i = 0; i < static_cast<int>(ws.size()); ++i) {
    const int w = ws[i];
    if (!is_member(w)) continue;
    // Tombstoning w before the next erased node is visited makes every
    // edge between two erased nodes count once.
    if (w < indexed) {
      for (int k = index_off_[w]; k < index_off_[w + 1]; ++k) {
        const int x = index_[k];
        if (tomb_[x]) continue;
        visit(i, x);
        ++seen;
      }
    }
    for (int h = staged_head_[w]; h >= 0; h = staged_next_[h]) {
      const auto& [a, b] = staged_[h >> 1];
      const int x = (h & 1) != 0 ? a : b;
      if (tomb_[x]) continue;
      visit(i, x);
      ++seen;
    }
    tomb_[w] = 1;
    tombs_.push_back(w);
  }
  return seen;
}

void DelaunayEdgePool::stage(int a, int b) {
  // Both ends are survivors with explicit edges, hence not tombstoned: a
  // base entry or staged edge between them is live.
  if (std::binary_search(pool_.begin(), pool_.end(), std::pair{a, b})) return;
  for (int h = staged_head_[a]; h >= 0; h = staged_next_[h]) {
    const auto& e = staged_[h >> 1];
    if (e.first == a && e.second == b) return;
  }
  const int i = static_cast<int>(staged_.size());
  staged_.emplace_back(a, b);
  staged_next_.push_back(staged_head_[a]);
  staged_next_.push_back(staged_head_[b]);
  staged_head_[a] = 2 * i;
  staged_head_[b] = 2 * i + 1;
  ++explicit_size_;
}

void DelaunayEdgePool::erase_nodes(std::span<const int> ws) {
  if (!valid_ || ws.empty()) return;
  int erased = 0;
  bool star_erased = false;
  for (int w : ws) {
    if (!is_member(w)) continue;
    ++erased;
    star_erased |= state_[w] == kStar;
  }
  if (erased == 0) return;
  const int cap = cfg_.degree_cap;
  if (star_erased) {
    // An erased star joins every erased member into one component whose
    // boundary is every surviving member.  Below the cap the member set is
    // tiny, so writing the stars out is cheap.
    if (members_ - erased > cap) {
      invalidate();
      return;
    }
    compact();
  } else if (static_cast<int>(stars_.size()) > cap) {
    // Every component's boundary holds all the stars.
    invalidate();
    return;
  }
  const int nstars = static_cast<int>(stars_.size());
  int max_id = 0;
  for (int w : ws) max_id = std::max(max_id, w);
  if (static_cast<int>(mark_.size()) < max_id + 1) mark_.resize(max_id + 1, 0);
  const int m = static_cast<int>(ws.size());
  for (int i = 0; i < m; ++i) mark_[ws[i]] = i + 1;
  uf_.resize(m);
  for (int i = 0; i < m; ++i) uf_[i] = i;
  boundary_.clear();
  explicit_size_ -= collect_neighbours(ws);
  for (int w : ws) {
    mark_[w] = 0;
    if (is_member(w)) {
      state_[w] = kAbsent;
      --members_;
    }
  }
  for (auto& [local, survivor] : boundary_) {
    while (uf_[local] != local) local = uf_[local];
  }
  std::sort(boundary_.begin(), boundary_.end());
  boundary_.erase(std::unique(boundary_.begin(), boundary_.end()),
                  boundary_.end());
  for (size_t i = 0, j = 0; i < boundary_.size(); i = j) {
    while (j < boundary_.size() && boundary_[j].first == boundary_[i].first) {
      ++j;
    }
    if (static_cast<int>(j - i) + nstars > cap) {
      invalidate();
      return;
    }
  }
  // Deleting a component retriangulates its hole with edges among its
  // (Delaunay ⊆ pool) boundary; adding every pair keeps the superset
  // invariant.  Pairs that touch a star stay implicit.
  for (size_t i = 0, j = 0; i < boundary_.size(); i = j) {
    while (j < boundary_.size() && boundary_[j].first == boundary_[i].first) {
      ++j;
    }
    for (size_t a = i; a < j; ++a) {
      for (size_t b = a + 1; b < j; ++b) {
        const int x = boundary_[a].second, y = boundary_[b].second;
        stage(std::min(x, y), std::max(x, y));
      }
    }
  }
}

void DelaunayEdgePool::insert_node(int v, std::span<const char> alive) {
  if (!valid_) return;
  DIRANT_ASSERT(v >= 0 && v < static_cast<int>(alive.size()) && alive[v]);
  grow(static_cast<int>(alive.size()));
  DIRANT_ASSERT_MSG(state_[v] == kAbsent, "insert_node of a pool member");
  state_[v] = kStar;
  ++members_;
  stars_.push_back(v);
}

void DelaunayEdgePool::compact() {
  if (tombs_.empty() && staged_.empty() && stars_.empty()) return;
  const std::size_t logical = size();
  additions_.clear();
  for (const auto& [a, b] : staged_) {
    if (!tomb_[a] && !tomb_[b]) additions_.push_back({a, b});
  }
  const int n = static_cast<int>(state_.size());
  for (int u = 0; u < n && !stars_.empty(); ++u) {
    if (state_[u] == kAbsent) continue;
    for (int s : stars_) {
      // A star-star pair is written once, from the larger star's row.
      if (u == s || (state_[u] == kStar && u < s)) continue;
      additions_.emplace_back(std::min(u, s), std::max(u, s));
    }
  }
  for (int s : stars_) state_[s] = kMember;
  stars_.clear();
  std::sort(additions_.begin(), additions_.end());
  // The staged and star edges never repeat a live base edge (stage checks
  // first; base entries never touch a star), so the merge is a plain
  // interleave with dead base entries dropped.
  merged_.clear();
  merged_.reserve(logical);
  size_t j = 0;
  for (const auto& e : pool_) {
    if (tomb_[e.first] || tomb_[e.second]) continue;
    while (j < additions_.size() && additions_[j] < e) {
      merged_.push_back(additions_[j++]);
    }
    merged_.push_back(e);
  }
  merged_.insert(merged_.end(), additions_.begin() + j, additions_.end());
  pool_.swap(merged_);
  drop_pending();
  explicit_size_ = pool_.size();
  DIRANT_ASSERT(explicit_size_ == logical);
}

// ---------------------------------------------------------------------------
// LocalMstRepair
// ---------------------------------------------------------------------------

void LocalMstRepair::seed(const Tree& emst, std::span<const int> orig_of,
                          std::span<const geom::Point> positions,
                          std::span<const char> alive) {
  n_orig_ = static_cast<int>(positions.size());
  const int n = n_orig_;
  tadj_.assign(static_cast<size_t>(n) * kAdjCap, 0);
  tarc_.assign(static_cast<size_t>(n) * kAdjCap, -1);
  tdeg_.assign(n, 0);
  in_tree_.assign(n, 0);
  // A kruskal_emst emission is in canonical (d2, min, max) order and the
  // compact→orig remap is monotone; export_tree re-sorts by that key, so
  // the exactness contract rides on it — check while reading the edges.
  LEdge prev{-1.0, -1, -1};
  for (const auto& e : emst.edges) {
    const int u = orig_of[e.u], v = orig_of[e.v];
    const LEdge cur{geom::dist2(positions[u], positions[v]), std::min(u, v),
                    std::max(u, v)};
    DIRANT_ASSERT(prev < cur);
    prev = cur;
    DIRANT_ASSERT(tdeg_[u] < kAdjCap && tdeg_[v] < kAdjCap);
    tadj_[static_cast<size_t>(u) * kAdjCap + tdeg_[u]++] = v;
    tadj_[static_cast<size_t>(v) * kAdjCap + tdeg_[v]++] = u;
  }
  edge_count_ = static_cast<int>(emst.edges.size());
  // The Euler tours are built in one O(n) pass over the adjacency; each
  // edge's handle goes to its slot at both ends.
  const auto slot = [this](int u, int v) {
    const size_t bu = static_cast<size_t>(u) * kAdjCap;
    size_t i = bu;
    while (tadj_[i] != v) ++i;
    return i;
  };
  ett_.build(
      n,
      [this](int u) {
        return std::span<const int>(
            tadj_.data() + static_cast<size_t>(u) * kAdjCap, tdeg_[u]);
      },
      [&](int u, int v, int e) { tarc_[slot(u, v)] = tarc_[slot(v, u)] = e; });
  for (int c = 0; c < static_cast<int>(orig_of.size()); ++c) {
    in_tree_[orig_of[c]] = 1;
  }
  tree_nodes_ = static_cast<int>(orig_of.size());
  d2_max_.assign(n, 0.0);
  len_max_.assign(n, 0.0);
  for (int u = 0; u < n; ++u) {
    double d2m = 0.0, lm = 0.0;
    const size_t bu = static_cast<size_t>(u) * kAdjCap;
    for (int i = 0; i < tdeg_[u]; ++i) {
      const int v = tadj_[bu + i];
      d2m = std::max(d2m, geom::dist2(positions[u], positions[v]));
      lm = std::max(lm, geom::dist(positions[u], positions[v]));
    }
    d2_max_.put(u, d2m);
    len_max_.put(u, lm);
  }
  d2_max_.rebuild();
  len_max_.rebuild();
  lmax2_ub_ = d2_max_.max();
  grid_build(positions, alive);
  epoch_ = 0;
  path_epoch_ = 0;
  rm_stamp_.assign(n, 0);
  label_stamp_.assign(n, 0);
  path_stamp_.assign(n, 0);
  pend_stamp_.assign(n, 0);
  label_.assign(n, 0);
  path_pos_.assign(n, 0);
  path_side_.assign(n, 0);
  parent_.assign(n, -1);
  ped2_.assign(n, 0.0);
  last_region_ = 0;
  valid_ = true;
}

int LocalMstRepair::cell_index(const geom::Point& p) const {
  int cx = static_cast<int>((p.x - min_x_) / cell_);
  int cy = static_cast<int>((p.y - min_y_) / cell_);
  cx = std::clamp(cx, 0, nx_ - 1);
  cy = std::clamp(cy, 0, ny_ - 1);
  return cy * nx_ + cx;
}

void LocalMstRepair::grid_build(std::span<const geom::Point> positions,
                                std::span<const char> alive) {
  min_x_ = min_y_ = std::numeric_limits<double>::infinity();
  double max_x = -min_x_, max_y = -min_y_;
  int alive_count = 0;
  for (int u = 0; u < n_orig_; ++u) {
    if (!alive[u]) continue;
    ++alive_count;
    min_x_ = std::min(min_x_, positions[u].x);
    min_y_ = std::min(min_y_, positions[u].y);
    max_x = std::max(max_x, positions[u].x);
    max_y = std::max(max_y, positions[u].y);
  }
  if (alive_count == 0) {
    min_x_ = min_y_ = 0.0;
    max_x = max_y = 0.0;
  }
  cell_ = std::max(std::sqrt(lmax2_ub_), 1e-12);
  const double span_x = max_x - min_x_, span_y = max_y - min_y_;
  const long cell_cap = 4L * alive_count + 1024;
  for (;;) {
    nx_ = static_cast<int>(span_x / cell_) + 1;
    ny_ = static_cast<int>(span_y / cell_) + 1;
    if (static_cast<long>(nx_) * ny_ <= cell_cap) break;
    cell_ *= 2.0;
  }
  const size_t ncells = static_cast<size_t>(nx_) * ny_;
  if (cells_.size() < ncells) cells_.resize(ncells);
  for (size_t c = 0; c < ncells; ++c) cells_[c].clear();
  cell_of_.assign(n_orig_, -1);
  for (int u = 0; u < n_orig_; ++u) {
    if (alive[u]) grid_insert(u, positions[u]);
  }
}

void LocalMstRepair::grid_insert(int u, const geom::Point& p) {
  const int c = cell_index(p);
  cells_[c].push_back(u);
  cell_of_[u] = c;
}

void LocalMstRepair::grid_erase(int u) {
  // The engine's event loop overwrites positions before the repair runs, so
  // erase by the stored cell, never by the current position.
  const int c = cell_of_[u];
  if (c < 0) return;
  auto& cell = cells_[c];
  for (size_t i = 0; i < cell.size(); ++i) {
    if (cell[i] == u) {
      cell[i] = cell.back();
      cell.pop_back();
      break;
    }
  }
  cell_of_[u] = -1;
}

void LocalMstRepair::adj_add(int u, int v) {
  DIRANT_ASSERT(tdeg_[u] < kAdjCap && tdeg_[v] < kAdjCap);
  const int e = ett_.link(u, v);
  const size_t su = static_cast<size_t>(u) * kAdjCap + tdeg_[u]++;
  const size_t sv = static_cast<size_t>(v) * kAdjCap + tdeg_[v]++;
  tadj_[su] = v;
  tadj_[sv] = u;
  tarc_[su] = tarc_[sv] = e;
}

int LocalMstRepair::adj_strip(int u, int v) {
  const size_t bu = static_cast<size_t>(u) * kAdjCap;
  for (int i = 0; i < tdeg_[u]; ++i) {
    if (tadj_[bu + i] == v) {
      const int e = tarc_[bu + i];
      const size_t last = bu + tdeg_[u] - 1;
      tadj_[bu + i] = tadj_[last];
      tarc_[bu + i] = tarc_[last];
      --tdeg_[u];
      return e;
    }
  }
  return -1;
}

void LocalMstRepair::adj_remove(int u, int v) {
  const int e = adj_strip(u, v);
  adj_strip(v, u);
  DIRANT_ASSERT(e >= 0);
  ett_.cut(e);
}

const char* LocalMstRepair::apply_batch(
    std::span<const geom::Point> positions, std::span<const char> alive,
    int alive_count, std::span<const int> removed,
    std::span<const int> inserted, DelaunayEdgePool& pool) {
  DIRANT_ASSERT(valid_);
  const char* fail = nullptr;
  // A batch touching a quarter of the alive set is not "local" — the pool
  // Kruskal is both simpler and faster there.
  if ((removed.size() + inserted.size()) * 4 >
      static_cast<size_t>(alive_count) + 16) {
    fail = "mst-region";
  }
  ++epoch_;
  for (int w : removed) rm_stamp_[w] = epoch_;
  for (int v : inserted) pend_stamp_[v] = epoch_;
  ops_.clear();
  net_removed_.clear();
  net_added_.clear();
  last_region_ = static_cast<int>(removed.size() + inserted.size());
  if (fail == nullptr && !removed.empty()) {
    fail = delete_phase(positions, removed, pool);
  }
  if (fail == nullptr && !inserted.empty()) {
    fail = insert_phase(positions, alive, alive_count, inserted);
  }
  if (fail == nullptr) finish_batch(positions, alive_count, &fail);
  if (fail != nullptr) {
    // Adjacency / tour / grid state is mid-surgery — unusable until
    // reseeded.
    valid_ = false;
    return fail;
  }
  return nullptr;
}

const char* LocalMstRepair::delete_phase(
    std::span<const geom::Point> positions, std::span<const int> removed,
    DelaunayEdgePool& pool) {
  // Strip the removed nodes out of the tree, its Euler tours and the grid,
  // collecting the surviving endpoints of cut edges — the fragment seeds.
  seeds_.clear();
  for (int w : removed) {
    if (!in_tree_[w]) continue;
    const size_t base = static_cast<size_t>(w) * kAdjCap;
    const int deg = tdeg_[w];
    for (int i = 0; i < deg; ++i) {
      const int x = tadj_[base + i];
      // One-sided strip of w from x's list; w's own list dies wholesale.
      adj_strip(x, w);
      ett_.cut(tarc_[base + i]);
      log_op(w, x, false);
      if (rm_stamp_[x] != epoch_) seeds_.push_back(x);
    }
    tdeg_[w] = 0;
    in_tree_[w] = 0;
    --tree_nodes_;
    grid_erase(w);
  }
  std::sort(seeds_.begin(), seeds_.end());
  seeds_.erase(std::unique(seeds_.begin(), seeds_.end()), seeds_.end());
  const int K = static_cast<int>(seeds_.size());
  last_region_ += K;
  // Every fragment contains at least one seed (each fragment borders a
  // removed node through a tree edge whose surviving endpoint seeds it), so
  // the seeds' distinct tours are exactly the fragments.
  frags_.clear();
  for (const int s : seeds_) frags_.emplace_back(ett_.tree_id(s), s);
  std::sort(frags_.begin(), frags_.end());
  frags_.erase(std::unique(frags_.begin(), frags_.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }),
               frags_.end());
  const int F = static_cast<int>(frags_.size());
  if (F <= 1) return nullptr;  // the survivor tree is still connected

  // The largest fragment is the main class and is never walked: every
  // crossing edge has an endpoint in one of the others, so their pool
  // edges hold every candidate.  The walk is bounded by what the batch
  // cut off — exact sizes, no budget.
  int main_f = 0;
  for (int f = 1; f < F; ++f) {
    if (ett_.tree_size(frags_[f].second) >
        ett_.tree_size(frags_[main_f].second)) {
      main_f = f;
    }
  }
  bfs_.clear();
  for (int f = 0; f < F; ++f) {
    if (f == main_f) continue;
    const int s = frags_[f].second;
    size_t h = bfs_.size();
    bfs_.push_back(s);
    label_stamp_[s] = epoch_;
    label_[s] = f;
    for (; h < bfs_.size(); ++h) {
      const int x = bfs_[h];
      const size_t bx = static_cast<size_t>(x) * kAdjCap;
      for (int i = 0; i < tdeg_[x]; ++i) {
        const int y = tadj_[bx + i];
        if (label_stamp_[y] == epoch_) continue;
        label_stamp_[y] = epoch_;
        label_[y] = f;
        bfs_.push_back(y);
      }
    }
  }
  last_region_ += static_cast<int>(bfs_.size());
  if (static_cast<int>(uf_.size()) < F) uf_.resize(F);
  for (int f = 0; f < F; ++f) uf_[f] = f;
  auto find = [this](int x) {
    while (uf_[x] != x) x = uf_[x] = uf_[uf_[x]];
    return x;
  };
  // Unwalked survivors are the main fragment's.
  auto comp = [&](int u) {
    return find(label_stamp_[u] == epoch_ ? label_[u] : main_f);
  };

  // Crossing candidates: pool edges leaving a walked node's fragment.
  // Removed and pending-insert endpoints are excluded (a walked node is
  // neither): the reconnection must be the MST of the survivor set
  // A0 = alive ∖ (moved ∪ recovered); pending nodes enter later through
  // the exact insertion move.  Every other unwalked survivor is the main
  // fragment's, and an edge between two walked fragments is kept from
  // its smaller endpoint's side only.
  cand_.clear();
  for (const int x : bfs_) {
    const int lx = label_[x];
    pool.for_each_neighbour(x, [&](int y) {
      if (label_stamp_[y] == epoch_) {
        if (label_[y] == lx || y < x) return;
      } else if (rm_stamp_[y] == epoch_ || pend_stamp_[y] == epoch_) {
        return;
      }
      cand_.emplace_back(x, y);
    });
  }

  // Borůvka rounds: each class adopts its minimum crossing edge under the
  // strict (d2, min, max) order — an MST edge by the cut property.  The
  // strict total order makes simultaneous adoptions cycle-free.
  int num_classes = F;
  if (static_cast<int>(best_.size()) < F) best_.resize(F);
  while (num_classes > 1) {
    for (int f = 0; f < F; ++f) {
      if (find(f) == f) best_[f] = {0.0, -1, -1};
    }
    for (const auto& [a, b] : cand_) {
      const int ra = comp(a), rb = comp(b);
      if (ra == rb) continue;
      const double d2 = geom::dist2(positions[a], positions[b]);
      for (const int r : {ra, rb}) {
        Best& cur = best_[r];
        if (cur.u < 0 || edge_key_less(d2, a, b, cur.d2, cur.u, cur.v)) {
          cur = {d2, a, b};
        }
      }
    }
    bool progressed = false;
    for (int f = 0; f < F; ++f) {
      if (find(f) != f || best_[f].u < 0) continue;
      const Best e = best_[f];
      const int ru = comp(e.u), rv = comp(e.v);
      if (ru == rv) continue;  // identical minima already merged this round
      uf_[std::max(ru, rv)] = std::min(ru, rv);  // deterministic root
      --num_classes;
      adj_add(e.u, e.v);
      log_op(e.u, e.v, true);
      lmax2_ub_ = std::max(lmax2_ub_, e.d2);
      last_region_ += 2;
      progressed = true;
    }
    if (!progressed) return "mst-disconnected";
  }
  return nullptr;
}

const char* LocalMstRepair::insert_phase(
    std::span<const geom::Point> positions, std::span<const char> alive,
    int alive_count, std::span<const int> inserted) {
  (void)alive;
  // Rebuild the rooted view (parent_ / ped2_) of the post-deletion tree once
  // per batch; the per-vertex cycle-max walks and swaps keep it current.
  int root = -1;
  for (int u = 0; u < n_orig_; ++u) {
    if (in_tree_[u]) {
      root = u;
      break;
    }
  }
  if (root < 0) return "mst-disconnected";  // no survivor to attach to
  ++path_epoch_;
  bfs_.clear();
  bfs_.push_back(root);
  parent_[root] = -1;
  ped2_[root] = 0.0;
  path_stamp_[root] = path_epoch_;
  for (size_t h = 0; h < bfs_.size(); ++h) {
    const int x = bfs_[h];
    const size_t bx = static_cast<size_t>(x) * kAdjCap;
    for (int i = 0; i < tdeg_[x]; ++i) {
      const int y = tadj_[bx + i];
      if (path_stamp_[y] == path_epoch_) continue;
      path_stamp_[y] = path_epoch_;
      parent_[y] = x;
      ped2_[y] = geom::dist2(positions[x], positions[y]);
      bfs_.push_back(y);
    }
  }
  int walk_budget = cfg_.walk_slack + cfg_.walk_factor * alive_count;
  for (int v : inserted) {
    const char* fail = insert_vertex(positions, v, &walk_budget);
    if (fail != nullptr) return fail;
  }
  return nullptr;
}

const char* LocalMstRepair::insert_vertex(
    std::span<const geom::Point> positions, int v, int* walk_budget) {
  const geom::Point p = positions[v];
  // Nearest in-tree neighbour by expanding grid rings (grid holds exactly
  // the current tree's nodes, so pending inserts are invisible until their
  // own turn).  Ties break toward the smaller id, matching (d2, min, max).
  double nn_d2 = std::numeric_limits<double>::infinity();
  int nn_id = -1;
  double r = cell_;
  for (;;) {
    const int cx0 = std::clamp(
        static_cast<int>((p.x - r - min_x_) / cell_), 0, nx_ - 1);
    const int cx1 = std::clamp(
        static_cast<int>((p.x + r - min_x_) / cell_), 0, nx_ - 1);
    const int cy0 = std::clamp(
        static_cast<int>((p.y - r - min_y_) / cell_), 0, ny_ - 1);
    const int cy1 = std::clamp(
        static_cast<int>((p.y + r - min_y_) / cell_), 0, ny_ - 1);
    for (int cy = cy0; cy <= cy1; ++cy) {
      for (int cx = cx0; cx <= cx1; ++cx) {
        for (const int id : cells_[static_cast<size_t>(cy) * nx_ + cx]) {
          const double d2 = geom::dist2(p, positions[id]);
          if (d2 < nn_d2 || (d2 == nn_d2 && id < nn_id)) {
            nn_d2 = d2;
            nn_id = id;
          }
        }
      }
    }
    if (nn_id >= 0 && nn_d2 <= r * r) break;
    if (cx0 == 0 && cy0 == 0 && cx1 == nx_ - 1 && cy1 == ny_ - 1) {
      if (nn_id < 0) return "mst-disconnected";
      break;
    }
    r *= 2.0;
  }
  // Exact candidate disk: every MST edge incident to v lies within squared
  // radius max(d2(v, NN), lmax²) — cycle property against the current tree
  // plus the always-in edge (v, NN).  Closed disk: inflate the box query,
  // filter exactly.
  const double R2 = std::max(nn_d2, lmax2_ub_);
  const double rq = std::sqrt(R2) * (1.0 + 1e-9);
  disk_.clear();
  {
    const int cx0 = std::clamp(
        static_cast<int>((p.x - rq - min_x_) / cell_), 0, nx_ - 1);
    const int cx1 = std::clamp(
        static_cast<int>((p.x + rq - min_x_) / cell_), 0, nx_ - 1);
    const int cy0 = std::clamp(
        static_cast<int>((p.y - rq - min_y_) / cell_), 0, ny_ - 1);
    const int cy1 = std::clamp(
        static_cast<int>((p.y + rq - min_y_) / cell_), 0, ny_ - 1);
    for (int cy = cy0; cy <= cy1; ++cy) {
      for (int cx = cx0; cx <= cx1; ++cx) {
        for (const int id : cells_[static_cast<size_t>(cy) * nx_ + cx]) {
          const double d2 = geom::dist2(p, positions[id]);
          if (d2 > R2) continue;
          disk_.emplace_back(d2, id);
          if (static_cast<int>(disk_.size()) > cfg_.candidate_cap) {
            return "mst-candidates";
          }
        }
      }
    }
  }
  std::sort(disk_.begin(), disk_.end(),
            [v](const std::pair<double, int>& a,
                const std::pair<double, int>& b) {
              return edge_key_less(a.first, v, a.second, b.first, v, b.second);
            });
  // First candidate = minimum edge incident to v — always an MST edge (cut
  // around {v}).  Attach, then offer every other candidate in ascending
  // order as a cycle-max swap.
  const int w0 = disk_[0].second;
  parent_[v] = w0;
  ped2_[v] = disk_[0].first;
  path_stamp_[v] = 0;  // not part of any previous walk epoch
  adj_add(v, w0);
  log_op(v, w0, true);
  lmax2_ub_ = std::max(lmax2_ub_, disk_[0].first);
  in_tree_[v] = 1;
  ++tree_nodes_;
  grid_insert(v, p);
  last_region_ += static_cast<int>(disk_.size());

  for (size_t ci = 1; ci < disk_.size(); ++ci) {
    const double d2c = disk_[ci].first;
    const int w = disk_[ci].second;
    // Alternating stamped parent walks from v and w until the fronts meet —
    // O(path length to the LCA-ish junction), no depths needed (swap
    // re-rooting invalidates depth bookkeeping).
    ++path_epoch_;
    vchain_.clear();
    wchain_.clear();
    vchain_.push_back(v);
    wchain_.push_back(w);
    path_stamp_[v] = path_epoch_;
    path_side_[v] = 0;
    path_pos_[v] = 0;
    path_stamp_[w] = path_epoch_;
    path_side_[w] = 1;
    path_pos_[w] = 0;
    int a = v, b = w, meet = -1;
    bool a_done = parent_[a] < 0, b_done = parent_[b] < 0;
    while (meet < 0) {
      if (!a_done) {
        const int na = parent_[a];
        if (path_stamp_[na] == path_epoch_ && path_side_[na] == 1) {
          meet = na;
          break;
        }
        path_stamp_[na] = path_epoch_;
        path_side_[na] = 0;
        path_pos_[na] = static_cast<int>(vchain_.size());
        vchain_.push_back(na);
        a = na;
        a_done = parent_[a] < 0;
      }
      if (!b_done) {
        const int nb = parent_[b];
        if (path_stamp_[nb] == path_epoch_ && path_side_[nb] == 0) {
          meet = nb;
          break;
        }
        path_stamp_[nb] = path_epoch_;
        path_side_[nb] = 1;
        path_pos_[nb] = static_cast<int>(wchain_.size());
        wchain_.push_back(nb);
        b = nb;
        b_done = parent_[b] < 0;
      }
      if (meet < 0 && a_done && b_done) return "mst-disconnected";
      if ((*walk_budget -= 2) < 0) return "mst-walk-budget";
    }
    // Path edge lists: each chain entry's edge goes to the next entry (or to
    // the meet node past the end).  A side is truncated at the meet when the
    // meet carries its mark.
    const int vlen = path_side_[meet] == 0 ? path_pos_[meet]
                                           : static_cast<int>(vchain_.size());
    const int wlen = path_side_[meet] == 1 ? path_pos_[meet]
                                           : static_cast<int>(wchain_.size());
    double mx_d2 = 0.0;
    int mx_child = -1, mx_parent = -1, mx_side = 0, mx_idx = 0;
    for (int j = 0; j < vlen; ++j) {
      const int child = vchain_[j];
      const int par =
          j + 1 < static_cast<int>(vchain_.size()) ? vchain_[j + 1] : meet;
      if (mx_child < 0 ||
          edge_key_less(mx_d2, mx_child, mx_parent, ped2_[child], child, par)) {
        mx_d2 = ped2_[child];
        mx_child = child;
        mx_parent = par;
        mx_side = 0;
        mx_idx = j;
      }
    }
    for (int j = 0; j < wlen; ++j) {
      const int child = wchain_[j];
      const int par =
          j + 1 < static_cast<int>(wchain_.size()) ? wchain_[j + 1] : meet;
      if (mx_child < 0 ||
          edge_key_less(mx_d2, mx_child, mx_parent, ped2_[child], child, par)) {
        mx_d2 = ped2_[child];
        mx_child = child;
        mx_parent = par;
        mx_side = 1;
        mx_idx = j;
      }
    }
    DIRANT_ASSERT(mx_child >= 0);
    // Swap iff the candidate beats the cycle max under the strict order.
    if (!edge_key_less(d2c, v, w, mx_d2, mx_child, mx_parent)) continue;
    adj_remove(mx_child, mx_parent);
    log_op(mx_child, mx_parent, false);
    adj_add(v, w);
    log_op(v, w, true);
    lmax2_ub_ = std::max(lmax2_ub_, d2c);
    // Re-root the detached piece: reverse the parent chain from the chain
    // head down to the removed edge's child, hanging the head off the other
    // endpoint of the new edge.
    std::vector<int>& chain = mx_side == 0 ? vchain_ : wchain_;
    const int attach_to = mx_side == 0 ? w : v;
    double carry = ped2_[chain[0]];
    parent_[chain[0]] = attach_to;
    ped2_[chain[0]] = d2c;
    for (int j = 0; j < mx_idx; ++j) {
      const double nxt = ped2_[chain[j + 1]];
      parent_[chain[j + 1]] = chain[j];
      ped2_[chain[j + 1]] = carry;
      carry = nxt;
    }
    last_region_ += 2;
  }
  return nullptr;
}

void LocalMstRepair::refresh_maxima(std::span<const geom::Point> positions,
                                    int u) {
  double d2m = 0.0, lm = 0.0;
  if (in_tree_[u]) {
    const size_t bu = static_cast<size_t>(u) * kAdjCap;
    for (int i = 0; i < tdeg_[u]; ++i) {
      const int v = tadj_[bu + i];
      d2m = std::max(d2m, geom::dist2(positions[u], positions[v]));
      lm = std::max(lm, geom::dist(positions[u], positions[v]));
    }
  }
  d2_max_.set(u, d2m);
  len_max_.set(u, lm);
}

void LocalMstRepair::finish_batch(std::span<const geom::Point> positions,
                                  int alive_count, const char** fail) {
  // Pairs can toggle several times inside one batch (removed in the delete
  // phase, re-added by an insertion swap, removed again…), and every
  // toggle alternates, so a pair's first logged op tells whether it was in
  // the previous tree and the final adjacency whether it is in the new
  // one.  Pairs that end where they started cancel out; the rest are the
  // *net* tree-edge delta (original ids) the warm orienter re-hangs from
  // via last_removed()/last_added().  Every endpoint re-reads its incident
  // maxima, which keeps lmax and lmax² exact after a shrink.
  auto adj_has = [this](int u, int v) {
    const size_t bu = static_cast<size_t>(u) * kAdjCap;
    for (int i = 0; i < tdeg_[u]; ++i) {
      if (tadj_[bu + i] == v) return true;
    }
    return false;
  };
  std::sort(ops_.begin(), ops_.end());
  net_removed_.clear();
  net_added_.clear();
  touched_.clear();
  for (size_t i = 0, j = 0; i < ops_.size(); i = j) {
    const Op& first = ops_[i];
    while (j < ops_.size() && ops_[j].u == first.u && ops_[j].v == first.v) {
      edge_count_ += ops_[j].add ? 1 : -1;
      ++j;
    }
    const bool present = adj_has(first.u, first.v);
    if (!first.add && !present) net_removed_.emplace_back(first.u, first.v);
    if (first.add && present) net_added_.emplace_back(first.u, first.v);
    touched_.push_back(first.u);
    touched_.push_back(first.v);
  }
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()),
                 touched_.end());
  for (int u : touched_) refresh_maxima(positions, u);
  if (edge_count_ != alive_count - 1) {
    *fail = "mst-count";
    return;
  }
  // Swaps can shrink the true lmax; restore the exact value so the next
  // batch's insertion disks don't stay inflated forever.
  lmax2_ub_ = d2_max_.max();
}

void LocalMstRepair::export_tree(std::span<const int> comp_of,
                                 std::span<const geom::Point> compact_pts,
                                 Tree& out) {
  DIRANT_ASSERT(valid_);
  export_.clear();
  for (int u = 0; u < n_orig_; ++u) {
    const size_t bu = static_cast<size_t>(u) * kAdjCap;
    for (int i = 0; i < tdeg_[u]; ++i) {
      const int v = tadj_[bu + i];
      if (u < v) {
        const int cu = comp_of[u], cv = comp_of[v];
        export_.push_back({geom::dist2(compact_pts[cu], compact_pts[cv]), u,
                           v});
      }
    }
  }
  // Canonical (d2, min, max) order; comp_of is monotone on the alive set,
  // so it maps to the canonical compact order — the emission is
  // byte-identical to kruskal_emst over any candidate superset.
  std::sort(export_.begin(), export_.end());
  out.n = static_cast<int>(compact_pts.size());
  out.edges.clear();
  out.edges.reserve(export_.size());
  for (const auto& e : export_) {
    const int cu = comp_of[e.u], cv = comp_of[e.v];
    out.edges.push_back({cu, cv, geom::dist(compact_pts[cu], compact_pts[cv])});
  }
}

}  // namespace dirant::mst
