#include "graph/recert.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"

namespace dirant::graph {

bool IncrementalSccCert::row_has(const Digraph& dg, int from, int to) {
  for (int t : dg.out(from)) {
    if (t == to) return true;
  }
  return false;
}

void IncrementalSccCert::rebuild(const Digraph& dg, const Digraph& dgt,
                                 std::span<const char> alive,
                                 int alive_count) {
  n_ = dg.size();
  DIRANT_ASSERT(static_cast<int>(alive.size()) == n_);
  const int m = alive_count;
  if (m == 0) {
    valid_ = false;
    return;
  }
  if (static_cast<int>(out_parent_.size()) < n_) {
    out_parent_.resize(n_, -1);
    in_next_.resize(n_, -1);
    out_kids_.resize(n_);
    in_kids_.resize(n_);
    member_.resize(n_, 0);
    mark_out_.resize(n_, 0);
    mark_in_.resize(n_, 0);
    anchor_out_.resize(n_, 0);
    anchor_in_.resize(n_, 0);
    unanch_out_.resize(n_, 0);
    unanch_in_.resize(n_, 0);
    gvis_.resize(n_, 0);
    gpred_.resize(n_, -1);
  }
  hub_ = -1;
  for (int u = 0; u < n_; ++u) {
    member_[u] = alive[u];
    if (!alive[u]) continue;
    if (hub_ < 0) hub_ = u;  // the smallest alive id
    out_kids_.head[u] = -1;
    in_kids_.head[u] = -1;
  }
  // Out-tree: BFS from the hub over dg — visit order is a pure function of
  // the row contents, which are bit-identical at every thread count.
  ++epoch_;
  bfs_.clear();
  bfs_.push_back(hub_);
  mark_out_[hub_] = epoch_;
  out_parent_[hub_] = -1;
  for (size_t i = 0; i < bfs_.size(); ++i) {
    const int u = bfs_[i];
    for (int v : dg.out(u)) {
      if (mark_out_[v] == epoch_) continue;
      mark_out_[v] = epoch_;
      out_parent_[v] = u;
      out_kids_.link(u, v);
      bfs_.push_back(v);
    }
  }
  bool ok = static_cast<int>(bfs_.size()) == m;
  // In-tree: BFS from the hub over the transpose (a transpose edge u→v
  // means v→u in dg, so v reaches the hub through u).
  DIRANT_ASSERT(dgt.size() == n_ && dgt.edge_count() == dg.edge_count());
  bfs_.clear();
  bfs_.push_back(hub_);
  mark_in_[hub_] = epoch_;
  in_next_[hub_] = -1;
  for (size_t i = 0; i < bfs_.size(); ++i) {
    const int u = bfs_[i];
    for (int v : dgt.out(u)) {
      if (mark_in_[v] == epoch_) continue;
      mark_in_[v] = epoch_;
      in_next_[v] = u;
      in_kids_.link(u, v);
      bfs_.push_back(v);
    }
  }
  ok = ok && static_cast<int>(bfs_.size()) == m;
  valid_ = ok;  // callers pass strongly connected graphs; stay defensive
}

bool IncrementalSccCert::anchored(int w, const std::vector<int>& parent,
                                  std::vector<int>& memo,
                                  std::vector<int>& unanchored,
                                  int* walk_budget) {
  // Walk the hub chain until the hub / a stamped ancestor (anchored) or a
  // detached node / a node stamped unanchored (not anchored — some orphan
  // root is still in the way).  Anchorage is monotone within a repair, so
  // positive verdicts stamp the walked path for the whole call; negative
  // ones hold until the next attachment bumps attach_epoch_.
  path_.clear();
  int x = w;
  for (;;) {
    if (x == hub_ || memo[x] == epoch_) {
      for (int p : path_) memo[p] = epoch_;
      return true;
    }
    if (unanchored[x] == attach_epoch_) break;
    path_.push_back(x);
    const int up = parent[x];
    if (up < 0) break;
    x = up;
    if (--*walk_budget < 0) return false;
  }
  for (int p : path_) unanchored[p] = attach_epoch_;
  return false;
}

bool IncrementalSccCert::repair(const Digraph& dg, const Digraph& dgt,
                                std::span<const char> is_alive, int alive,
                                std::span<const int> suspects,
                                std::span<const char> changed_pos) {
  if (!valid_) return false;
  const int budget = cfg_.budget_slack + alive / cfg_.budget_divisor;
  const auto dead = [&](int u) { return !is_alive[u]; };
  if (alive == 0 || dead(hub_) ||
      static_cast<int>(suspects.size()) > budget) {
    valid_ = false;
    return false;
  }
  ++epoch_;
  roots_out_.clear();
  roots_in_.clear();
  int frontier = 0;

  const auto orphan_out = [&](int u) {
    if (mark_out_[u] == epoch_) return;
    mark_out_[u] = epoch_;
    if (out_parent_[u] >= 0) {
      out_kids_.unlink(out_parent_[u], u);
      out_parent_[u] = -1;
    }
    roots_out_.push_back(u);
    ++frontier;
  };
  const auto orphan_in = [&](int u) {
    if (mark_in_[u] == epoch_) return;
    mark_in_[u] = epoch_;
    if (in_next_[u] >= 0) {
      in_kids_.unlink(in_next_[u], u);
      in_next_[u] = -1;
    }
    roots_in_.push_back(u);
    ++frontier;
  };
  const auto collect_kids = [this](const KidList& kl, int parent) {
    tmp_.clear();
    for (int c = kl.head[parent]; c >= 0; c = kl.next[c]) tmp_.push_back(c);
  };

  // ---- Phase 1: enumerate every certificate edge that could have broken
  // and orphan the affected roots.  Subtrees below a broken link ride along
  // with their root — none of their own edges changed.
  for (int s : suspects) {
    if (dead(s)) {
      // Died this batch: detach, orphan both kid lists.
      if (!member_[s]) continue;
      member_[s] = 0;
      if (out_parent_[s] >= 0) {
        out_kids_.unlink(out_parent_[s], s);
        out_parent_[s] = -1;
      }
      if (in_next_[s] >= 0) {
        in_kids_.unlink(in_next_[s], s);
        in_next_[s] = -1;
      }
      collect_kids(out_kids_, s);
      out_kids_.head[s] = -1;
      for (int c : tmp_) {
        out_parent_[c] = -1;  // already off s's (cleared) list
        orphan_out(c);
      }
      collect_kids(in_kids_, s);
      in_kids_.head[s] = -1;
      for (int u : tmp_) {
        in_next_[u] = -1;
        orphan_in(u);
      }
      ++frontier;
    } else if (!member_[s]) {
      // Recovered this batch: joins with no usable history.
      member_[s] = 1;
      out_kids_.head[s] = -1;
      in_kids_.head[s] = -1;
      out_parent_[s] = -1;
      in_next_[s] = -1;
      orphan_out(s);
      orphan_in(s);
    } else {
      // Alive member: its row was rebuilt (dirty) and/or its position
      // changed — re-verify every certificate edge that reads either.
      if (s != hub_) {
        if (out_parent_[s] < 0 || !row_has(dg, out_parent_[s], s)) {
          orphan_out(s);
        }
        if (in_next_[s] < 0 || !row_has(dg, s, in_next_[s])) {
          orphan_in(s);
        }
      }
      collect_kids(out_kids_, s);
      for (int c : tmp_) {
        if (!row_has(dg, s, c)) orphan_out(c);
      }
      if (changed_pos[s]) {
        // Clean rows drop and retest exactly the moved/recovered targets,
        // so edges into s from *clean* sources must re-verify too.
        collect_kids(in_kids_, s);
        for (int u : tmp_) {
          if (!row_has(dg, u, s)) orphan_in(u);
        }
      }
    }
    if (frontier > budget) {
      valid_ = false;
      return false;
    }
  }

  // ---- Phase 2: re-anchor.  A root may attach only under an anchored
  // parent, so each pass over the root lists either attaches someone (and
  // possibly anchors more of the frontier) or every still-orphaned root's
  // candidates run through another orphan's subtree and phase 3 takes over.
  int walk_budget = cfg_.walk_slack + cfg_.walk_factor * alive;
  ++attach_epoch_;  // phase 1 re-parented: no negative verdict carries over
  int remaining = 0;
  for (int u : roots_out_) remaining += !dead(u);
  for (int u : roots_in_) remaining += !dead(u);
  bool progress = true;
  while (remaining > 0 && progress) {
    progress = false;
    for (int u : roots_out_) {
      if (dead(u) || out_parent_[u] >= 0) continue;
      for (int w : dgt.out(u)) {  // candidate edge w→u by definition
        if (!anchored(w, out_parent_, anchor_out_, unanch_out_,
                      &walk_budget)) {
          continue;
        }
        out_parent_[u] = w;
        out_kids_.link(w, u);
        anchor_out_[u] = epoch_;
        ++attach_epoch_;
        --remaining;
        progress = true;
        break;
      }
      if (walk_budget < 0) {
        valid_ = false;
        return false;
      }
    }
    for (int u : roots_in_) {
      if (dead(u) || in_next_[u] >= 0) continue;
      for (int w : dg.out(u)) {  // candidate edge u→w by definition
        if (!anchored(w, in_next_, anchor_in_, unanch_in_, &walk_budget)) {
          continue;
        }
        in_next_[u] = w;
        in_kids_.link(w, u);
        anchor_in_[u] = epoch_;
        ++attach_epoch_;
        --remaining;
        progress = true;
        break;
      }
      if (walk_budget < 0) {
        valid_ = false;
        return false;
      }
    }
  }

  // ---- Phase 3: path grafting.  A stuck root's every candidate parent lies
  // inside its own subtree (a direct attachment would close a cycle — think
  // of a fringe pair whose only mutual edges point at each other).  BFS away
  // from the root along certificate-capable edges until an anchored node
  // appears, then re-root the entire discovered chain under it: each relink
  // leaves the chain ending at the hub, and interior nodes were all
  // un-anchored at discovery, so the terminal's hub chain avoids them and
  // acyclicity is preserved.  Strong connectivity guarantees the BFS finds
  // an anchored node (the hub itself in the worst case) within budget.
  if (remaining > 0) {
    const auto relink = [&](std::vector<int>& plink, KidList& kids,
                            std::vector<int>& memo, int node, int par) {
      if (plink[node] >= 0) kids.unlink(plink[node], node);
      plink[node] = par;
      kids.link(par, node);
      memo[node] = epoch_;
    };
    const auto graft_path = [&](std::vector<int>& plink, KidList& kids,
                                std::vector<int>& memo, int u, int x, int a) {
      int node = x;
      relink(plink, kids, memo, node, a);
      while (node != u) {
        const int c = gpred_[node];
        relink(plink, kids, memo, c, node);
        node = c;
      }
      ++attach_epoch_;
    };
    for (int u : roots_out_) {
      if (dead(u) || out_parent_[u] >= 0) continue;
      ++gepoch_;
      bfs_.clear();
      bfs_.push_back(u);
      gvis_[u] = gepoch_;
      bool got = false;
      for (size_t i = 0; i < bfs_.size() && !got; ++i) {
        const int x = bfs_[i];
        for (int w : dgt.out(x)) {  // edge w→x by definition
          if (gvis_[w] == gepoch_) continue;
          --walk_budget;
          if (anchored(w, out_parent_, anchor_out_, unanch_out_,
                       &walk_budget)) {
            graft_path(out_parent_, out_kids_, anchor_out_, u, x, w);
            got = true;
            break;
          }
          gvis_[w] = gepoch_;
          gpred_[w] = x;
          bfs_.push_back(w);
        }
        if (walk_budget < 0) {
          valid_ = false;
          return false;
        }
      }
      if (!got) {  // no anchored node reaches u: genuinely degraded
        valid_ = false;
        return false;
      }
    }
    for (int u : roots_in_) {
      if (dead(u) || in_next_[u] >= 0) continue;
      ++gepoch_;
      bfs_.clear();
      bfs_.push_back(u);
      gvis_[u] = gepoch_;
      bool got = false;
      for (size_t i = 0; i < bfs_.size() && !got; ++i) {
        const int x = bfs_[i];
        for (int w : dg.out(x)) {  // edge x→w by definition
          if (gvis_[w] == gepoch_) continue;
          --walk_budget;
          if (anchored(w, in_next_, anchor_in_, unanch_in_, &walk_budget)) {
            graft_path(in_next_, in_kids_, anchor_in_, u, x, w);
            got = true;
            break;
          }
          gvis_[w] = gepoch_;
          gpred_[w] = x;
          bfs_.push_back(w);
        }
        if (walk_budget < 0) {
          valid_ = false;
          return false;
        }
      }
      if (!got) {  // u reaches no anchored node: genuinely degraded
        valid_ = false;
        return false;
      }
    }
    // A graft can attach a later root as a chain interior; recount instead
    // of tracking decrements through the relinks.
    remaining = 0;
    for (int u : roots_out_) remaining += !dead(u) && out_parent_[u] < 0;
    for (int u : roots_in_) remaining += !dead(u) && in_next_[u] < 0;
  }
  if (remaining > 0) {
    valid_ = false;
    return false;
  }
  return true;
}

bool IncrementalSccCert::audit_removal(const Digraph& dg, const Digraph& dgt,
                                       std::span<const int> removed,
                                       int alive_count,
                                       std::vector<int>& outside) {
  outside.clear();
  if (!valid_) return false;
  // Stamps: gvis_ == gepoch_ marks the removed set; under epoch_,
  // mark_out_/mark_in_ mark the two cut subtrees and anchor_out_/anchor_in_
  // the nodes of those subtrees found reached from / reaching the hub.
  ++gepoch_;
  for (int x : removed) gvis_[x] = gepoch_;
  if (gvis_[hub_] == gepoch_) return false;
  ++epoch_;
  const auto cut = [&](int u) { return gvis_[u] == gepoch_; };
  const size_t cap = static_cast<size_t>(cfg_.budget_slack) +
                     static_cast<size_t>(alive_count / 4);
  // Every survivor outside the removed nodes' subtrees keeps its whole
  // tree path to (out-tree: from) the hub, so only the subtrees are in
  // question.  A subtree below another removed node is collected from
  // that node, not from here.
  const auto collect = [&](const KidList& kids, std::vector<int>& mark,
                           std::vector<int>& list) {
    list.clear();
    for (int x : removed) {
      if (!member_[x]) continue;  // not in the trees (recovered this batch)
      for (int c = kids.head[x]; c >= 0; c = kids.next[c]) {
        if (cut(c)) continue;
        mark[c] = epoch_;
        list.push_back(c);
      }
    }
    for (size_t i = 0; i < list.size() && list.size() <= cap; ++i) {
      for (int c = kids.head[list[i]]; c >= 0; c = kids.next[c]) {
        if (cut(c)) continue;
        mark[c] = epoch_;
        list.push_back(c);
      }
    }
    return list.size() <= cap;
  };
  auto& under_out = roots_out_;
  auto& under_in = roots_in_;
  if (!collect(out_kids_, mark_out_, under_out) ||
      !collect(in_kids_, mark_in_, under_in)) {
    return false;
  }

  // ---- Out-tree: a cut node is reached iff some edge enters its subtree
  // closure from an anchored survivor.  The subtree roots come first, so
  // a root that re-attaches carries its whole subtree along through the
  // forward walk (tree edges are graph edges) and nobody below it scans
  // its in-list.
  const auto reach_from = [&](int r) {
    anchor_out_[r] = epoch_;
    bfs_.clear();
    bfs_.push_back(r);
    for (size_t i = 0; i < bfs_.size(); ++i) {
      for (int t : dg.out(bfs_[i])) {
        if (mark_out_[t] != epoch_ || anchor_out_[t] == epoch_) continue;
        anchor_out_[t] = epoch_;
        bfs_.push_back(t);
      }
    }
  };
  for (int u : under_out) {
    if (anchor_out_[u] == epoch_) continue;
    for (int w : dgt.out(u)) {  // edge w→u
      if (!member_[w] || cut(w) || mark_out_[w] == epoch_) continue;
      reach_from(u);
      break;
    }
  }

  // ---- In-tree: a cut node reaches the hub iff some path leaves its
  // subtree closure into an anchored survivor.  Its own row shows a direct
  // exit; the rest are walked back from those nodes through the in-lists.
  bfs_.clear();
  for (int u : under_in) {
    for (int t : dg.out(u)) {
      if (cut(t) || mark_in_[t] == epoch_) continue;
      anchor_in_[u] = epoch_;
      bfs_.push_back(u);
      break;
    }
  }
  for (size_t i = 0; i < bfs_.size(); ++i) {
    for (int u : dgt.out(bfs_[i])) {  // edge u→t
      if (mark_in_[u] != epoch_ || anchor_in_[u] == epoch_) continue;
      anchor_in_[u] = epoch_;
      bfs_.push_back(u);
    }
  }

  // Each list holds a node at most once (one parent per tree); a node of
  // both lists already outside on the out-side is not listed again.
  for (int u : under_out) {
    if (anchor_out_[u] != epoch_) outside.push_back(u);
  }
  for (int u : under_in) {
    if (anchor_in_[u] != epoch_ &&
        (mark_out_[u] != epoch_ || anchor_out_[u] == epoch_)) {
      outside.push_back(u);
    }
  }
  // Ascending by radix: the ids ride in the top bits of the keys, so the
  // sort makes one pass per 11 bits of the id range.
  const int shift =
      64 - std::max(1, static_cast<int>(std::bit_width(gvis_.size())));
  Workspace::Frame frame(sort_ws_);
  auto keys = sort_ws_.take<std::uint64_t>(outside.size());
  for (size_t i = 0; i < outside.size(); ++i) {
    keys[i] = static_cast<std::uint64_t>(outside[i]) << shift;
  }
  keys = radix_sort(keys, shift, sort_ws_);
  for (size_t i = 0; i < outside.size(); ++i) {
    outside[i] = static_cast<int>(keys[i] >> shift);
  }
  return true;
}

}  // namespace dirant::graph
