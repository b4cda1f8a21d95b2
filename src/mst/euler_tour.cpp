#include "mst/euler_tour.hpp"

#include <utility>

namespace dirant::mst {

void EulerTourForest::reset(int n) {
  DIRANT_ASSERT(n >= 0);
  n_ = n;
  t_.resize(3 * static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) make_single(v);
  // Handles are handed out from 0 upwards.
  free_.clear();
  for (int e = n - 2; e >= 0; --e) free_.push_back(e);
}

int EulerTourForest::rank(int x) const {
  int r = cnt(t_[x].l);
  for (int y = x; t_[y].p >= 0; y = t_[y].p) {
    const Node& up = t_[t_[y].p];
    if (up.r == y) r += cnt(up.l) + 1;
  }
  return r;
}

int EulerTourForest::merge_rec(int a, int b) {
  if (a < 0) return b;
  if (b < 0) return a;
  if (prio(a) > prio(b)) {
    const int m = merge_rec(t_[a].r, b);
    t_[a].r = m;
    t_[m].p = a;
    pull(a);
    return a;
  }
  const int m = merge_rec(a, t_[b].l);
  t_[b].l = m;
  t_[m].p = b;
  pull(b);
  return b;
}

int EulerTourForest::merge(int a, int b) {
  const int t = merge_rec(a, b);
  if (t >= 0) t_[t].p = -1;
  return t;
}

void EulerTourForest::split_rec(int t, int k, int& a, int& b) {
  if (t < 0) {
    a = b = -1;
    return;
  }
  const int left = t_[t].l;
  if (cnt(left) >= k) {
    int rest;
    split_rec(left, k, a, rest);
    t_[t].l = rest;
    if (rest >= 0) t_[rest].p = t;
    pull(t);
    b = t;
  } else {
    int rest;
    split_rec(t_[t].r, k - cnt(left) - 1, rest, b);
    t_[t].r = rest;
    if (rest >= 0) t_[rest].p = t;
    pull(t);
    a = t;
  }
}

void EulerTourForest::split(int t, int k, int& a, int& b) {
  split_rec(t, k, a, b);
  if (a >= 0) t_[a].p = -1;
  if (b >= 0) t_[b].p = -1;
}

int EulerTourForest::reroot(int u) {
  int a, b;
  split(root(u), rank(u), a, b);
  return merge(b, a);
}

int EulerTourForest::link(int u, int v) {
  DIRANT_ASSERT(u >= 0 && u < n_ && v >= 0 && v < n_);
  DIRANT_ASSERT_MSG(!connected(u, v), "Euler-tour link inside one tree");
  DIRANT_ASSERT(!free_.empty());
  const int e = free_.back();
  free_.pop_back();
  const int uv = n_ + 2 * e, vu = uv + 1;
  make_single(uv);
  make_single(vu);
  const int tu = reroot(u), tv = reroot(v);
  merge(merge(tu, uv), merge(tv, vu));
  return e;
}

void EulerTourForest::cut(int e) {
  DIRANT_ASSERT(e >= 0 && e + 1 < n_);
  int x = n_ + 2 * e, y = x + 1;
  int rx = rank(x), ry = rank(y);
  if (rx > ry) {
    std::swap(x, y);
    std::swap(rx, ry);
  }
  // tour = A x B y C: B is one side's tour, C·A (cyclically A then C) the
  // other's.
  int a, rest, arc, inner, c;
  split(root(x), rx, a, rest);
  split(rest, 1, arc, rest);
  split(rest, ry - rx - 1, inner, rest);
  split(rest, 1, arc, c);
  merge(a, c);
  make_single(x);
  make_single(y);
  free_.push_back(e);
}

void EulerTourForest::assemble() {
  // Cartesian tree over seq_ by priority; the stack holds the right spine.
  // A node's subtree is the contiguous run of the tour from its leftmost
  // descendant up to the element that pops it off the spine, so its counts
  // follow from the run's ends: while a node is on the spine, `cnt` holds
  // the run's first position and `vcnt` the vertex elements before it.
  const auto finish = [this](int y, int hi, int verts) {
    Node& ny = t_[y];
    ny.cnt = hi - ny.cnt + 1;
    ny.vcnt = verts - ny.vcnt;
  };
  const int len = static_cast<int>(seq_.size());
  int verts = 0;  // vertex elements before position i
  stack_.clear();
  for (int i = 0; i < len; ++i) {
    const int x = seq_[i];
    int lo = i, vbefore = verts, last = -1;
    while (!stack_.empty() && prio(stack_.back()) < prio(x)) {
      last = stack_.back();
      lo = t_[last].cnt;
      vbefore = t_[last].vcnt;
      finish(last, i - 1, verts);
      stack_.pop_back();
    }
    const int up = stack_.empty() ? -1 : stack_.back();
    t_[x] = {last, -1, up, lo, vbefore};
    if (last >= 0) t_[last].p = x;
    if (up >= 0) t_[up].r = x;
    stack_.push_back(x);
    verts += x < n_ ? 1 : 0;
  }
  for (; !stack_.empty(); stack_.pop_back()) finish(stack_.back(), len - 1, verts);
}

}  // namespace dirant::mst
