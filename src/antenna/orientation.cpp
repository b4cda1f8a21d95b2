#include "antenna/orientation.hpp"

#include <algorithm>

namespace dirant::antenna {

double Orientation::spread_sum(int u) const {
  double total = 0.0;
  for (const auto& s : antennas(u)) total += s.width;
  return total;
}

double Orientation::max_spread_sum() const {
  double m = 0.0;
  for (int u = 0; u < size(); ++u) m = std::max(m, spread_sum(u));
  return m;
}

int Orientation::max_antennas_per_node() const {
  int m = 0;
  for (const int c : count_) m = std::max(m, c);
  return m;
}

void Orientation::widen(int min_stride) {
  const int old = stride_;
  stride_ = std::max(min_stride, 2 * old);
  const size_t n = count_.size();
  at_.resize(n * stride_);
  dirs_.resize(n * stride_);
  // Rows only move up (u·stride grows with the stride), so moving them from
  // the last row down never overwrites a row not yet moved.
  for (size_t u = n; u-- > 1;) {
    const auto c = static_cast<size_t>(count_[u]);
    std::copy_backward(at_.begin() + u * old, at_.begin() + u * old + c,
                       at_.begin() + u * stride_ + c);
    std::copy_backward(dirs_.begin() + u * old, dirs_.begin() + u * old + c,
                       dirs_.begin() + u * stride_ + c);
  }
}

}  // namespace dirant::antenna
