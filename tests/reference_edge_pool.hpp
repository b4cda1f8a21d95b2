#pragma once
// Test-only oracle for mst::DelaunayEdgePool: the materialising candidate
// pool.  Every insert writes its v × alive edges out and every operation
// re-merges one sorted, duplicate-free edge vector, so each answer is read
// straight off the explicit edge list.  The library pool represents
// inserted nodes implicitly (stars), stages its erases (tombstones, staged
// closure edges, one compaction in edges()) and must agree with this one
// on every valid(), size(), oversized() and edges() answer.  Same maintenance rules
// as the library (see mst/repair.hpp), none of its cleverness.

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "mst/repair.hpp"

namespace dirant::test {

class ReferenceEdgePool {
 public:
  explicit ReferenceEdgePool(mst::EdgePoolConfig cfg = {}) : cfg_(cfg) {}

  /// Same contract as DelaunayEdgePool::seed: compact-id edges, mapped to
  /// original ids through `orig_of`.
  void seed(std::span<const std::pair<int, int>> edges,
            std::span<const int> orig_of) {
    pool_.clear();
    for (const auto& [a, b] : edges) {
      const int u = orig_of[a], v = orig_of[b];
      pool_.emplace_back(std::min(u, v), std::max(u, v));
    }
    std::sort(pool_.begin(), pool_.end());
    pool_.erase(std::unique(pool_.begin(), pool_.end()), pool_.end());
    valid_ = true;
  }

  bool valid() const { return valid_; }

  void erase_node(int w) {
    if (!valid_) return;
    std::vector<int> nbrs;
    std::size_t keep = 0;
    for (const auto& e : pool_) {
      if (e.first == w) {
        nbrs.push_back(e.second);
      } else if (e.second == w) {
        nbrs.push_back(e.first);
      } else {
        pool_[keep++] = e;
      }
    }
    pool_.resize(keep);
    if (static_cast<int>(nbrs.size()) > cfg_.degree_cap) {
      valid_ = false;
      return;
    }
    std::vector<std::pair<int, int>> additions;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        additions.emplace_back(std::min(nbrs[i], nbrs[j]),
                               std::max(nbrs[i], nbrs[j]));
      }
    }
    merge(additions);
  }

  /// Batched erase: all pairs of each erased component's surviving
  /// boundary (components through pool edges among the erased nodes).
  void erase_nodes(std::span<const int> ws) {
    if (!valid_ || ws.empty()) return;
    if (ws.size() == 1) {
      erase_node(ws.front());
      return;
    }
    const int m = static_cast<int>(ws.size());
    const auto local = [&](int u) {
      const auto it = std::find(ws.begin(), ws.end(), u);
      return it == ws.end() ? -1 : static_cast<int>(it - ws.begin());
    };
    std::vector<int> uf(m);
    for (int i = 0; i < m; ++i) uf[i] = i;
    const auto find = [&uf](int x) {
      while (uf[x] != x) x = uf[x] = uf[uf[x]];
      return x;
    };
    std::vector<std::pair<int, int>> boundary;
    std::size_t keep = 0;
    for (const auto& e : pool_) {
      const int lu = local(e.first), lv = local(e.second);
      if (lu < 0 && lv < 0) {
        pool_[keep++] = e;
      } else if (lu >= 0 && lv >= 0) {
        const int ra = find(lu), rb = find(lv);
        if (ra != rb) uf[ra] = rb;
      } else if (lu >= 0) {
        boundary.emplace_back(lu, e.second);
      } else {
        boundary.emplace_back(lv, e.first);
      }
    }
    pool_.resize(keep);
    for (auto& [l, survivor] : boundary) l = find(l);
    std::sort(boundary.begin(), boundary.end());
    boundary.erase(std::unique(boundary.begin(), boundary.end()),
                   boundary.end());
    std::vector<std::pair<int, int>> additions;
    for (std::size_t i = 0, j = 0; i < boundary.size(); i = j) {
      while (j < boundary.size() && boundary[j].first == boundary[i].first) {
        ++j;
      }
      if (static_cast<int>(j - i) > cfg_.degree_cap) {
        valid_ = false;
        return;
      }
      for (std::size_t a = i; a < j; ++a) {
        for (std::size_t b = a + 1; b < j; ++b) {
          additions.emplace_back(
              std::min(boundary[a].second, boundary[b].second),
              std::max(boundary[a].second, boundary[b].second));
        }
      }
    }
    merge(additions);
  }

  /// Add v × {u : alive[u], u != v}.
  void insert_node(int v, std::span<const char> alive) {
    if (!valid_) return;
    std::vector<std::pair<int, int>> additions;
    for (int u = 0; u < static_cast<int>(alive.size()); ++u) {
      if (u == v || !alive[u]) continue;
      additions.emplace_back(std::min(u, v), std::max(u, v));
    }
    merge(additions);
  }

  std::size_t size() const { return pool_.size(); }

  bool oversized(int alive_count) const {
    return static_cast<double>(pool_.size()) >
           cfg_.size_factor * alive_count + cfg_.size_slack;
  }

  std::span<const std::pair<int, int>> edges() const { return pool_; }

 private:
  void merge(std::vector<std::pair<int, int>>& additions) {
    pool_.insert(pool_.end(), additions.begin(), additions.end());
    std::sort(pool_.begin(), pool_.end());
    pool_.erase(std::unique(pool_.begin(), pool_.end()), pool_.end());
  }

  std::vector<std::pair<int, int>> pool_;  ///< sorted, unique, u < v
  bool valid_ = false;
  mst::EdgePoolConfig cfg_;
};

}  // namespace dirant::test
