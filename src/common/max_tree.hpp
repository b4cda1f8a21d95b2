#pragma once
/// \file max_tree.hpp
/// Point-update, global-maximum tournament tree over a fixed index range.
///
/// Incremental consumers that patch per-node values in place — the churn
/// engine's certificate maxima (largest sector radius, spread sum and
/// antenna count over every alive row) and the localized MST repair's
/// longest tree edge — need the exact maximum after a value *shrinks*,
/// which a running max cannot give.  A leaf per index and one max per
/// internal node answer it in O(1) after an O(log n) update, with no heap
/// traffic once sized.  The maximum is a max over exact leaf values, so it
/// is bit-identical to a fresh scan of the same values.

#include <algorithm>
#include <vector>

namespace dirant {

class MaxTree {
 public:
  /// Size for `n` indices, every leaf set to `fill`.  Capacity is kept
  /// across calls of the same or smaller size.
  void assign(int n, double fill) {
    leaves_ = 1;
    while (leaves_ < n) leaves_ *= 2;
    t_.assign(static_cast<size_t>(2 * leaves_), fill);
  }

  /// Leaf `i` := v, then re-max its root path (stops early once a parent
  /// already holds the new maximum of its two children).
  void set(int i, double v) {
    size_t k = static_cast<size_t>(leaves_ + i);
    if (t_[k] == v) return;
    t_[k] = v;
    for (k /= 2; k >= 1; k /= 2) {
      const double m = std::max(t_[2 * k], t_[2 * k + 1]);
      if (t_[k] == m) break;
      t_[k] = m;
    }
  }

  /// Write leaf `i` without re-maxing; call `rebuild` after a bulk fill.
  void put(int i, double v) { t_[static_cast<size_t>(leaves_ + i)] = v; }
  /// Recompute every internal node from the leaves (O(n)).
  void rebuild() {
    for (int k = leaves_ - 1; k >= 1; --k) {
      t_[k] = std::max(t_[2 * k], t_[2 * k + 1]);
    }
  }

  /// Maximum over every leaf (the fill value for padding leaves).
  double max() const { return t_[1]; }

 private:
  int leaves_ = 1;
  std::vector<double> t_ = std::vector<double>(2, 0.0);
};

}  // namespace dirant
