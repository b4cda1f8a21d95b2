#pragma once
/// \file radix_sort.hpp
/// Stable LSD radix sort of packed 64-bit keys.  The hot sorts of the EMST
/// front end (the triangulator's insertion order, Kruskal's edge order) sort
/// `(sort bits | index)` words whose low bits are a payload that only has to
/// keep its input order among equal sort bits; a few counting passes over
/// 11-bit digits beat a comparison sort on them by a wide margin.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "common/assert.hpp"
#include "common/workspace.hpp"

namespace dirant {

/// Digit-count slots a sort takes: 11-bit digits, at most six passes.
inline constexpr std::size_t kRadixCounts = 6 * (std::size_t{1} << 11);

/// Sorts `keys` stably by their bits [shift, 64), 11 bits per pass from the
/// lowest digit up; bits below `shift` are payload and take no part in the
/// order.  A digit that every key shares costs no pass.  The scatter buffer
/// and the digit counts are taken from `ws` in the caller's open frame; the
/// sorted keys come back in the returned span, which is `keys` or that
/// buffer.  0 <= shift < 64.
inline std::span<std::uint64_t> radix_sort(std::span<std::uint64_t> keys,
                                           int shift, Workspace& ws) {
  constexpr int kDigitBits = 11;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  constexpr std::uint64_t kDigitMask = kBuckets - 1;
  DIRANT_ASSERT(shift >= 0 && shift < 64);
  const std::size_t n = keys.size();
  if (n < 2) return keys;
  const int passes = (64 - shift + kDigitBits - 1) / kDigitBits;
  const auto counts = ws.take<std::size_t>(passes * kBuckets);

  // One read of the keys fills every digit's histogram.
  std::fill(counts.begin(), counts.end(), 0);
  for (const std::uint64_t k : keys) {
    const std::uint64_t s = k >> shift;
    for (int p = 0; p < passes; ++p) {
      ++counts[p * kBuckets + ((s >> (p * kDigitBits)) & kDigitMask)];
    }
  }

  std::uint64_t* src = keys.data();
  std::uint64_t* dst = ws.take<std::uint64_t>(n).data();
  for (int p = 0; p < passes; ++p) {
    std::size_t* count = counts.data() + p * kBuckets;
    const int digit_shift = shift + p * kDigitBits;
    if (count[(src[0] >> digit_shift) & kDigitMask] == n) continue;
    std::size_t sum = 0;
    for (std::size_t d = 0; d < kBuckets; ++d) {
      const std::size_t c = count[d];
      count[d] = sum;
      sum += c;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t k = src[i];
      dst[count[(k >> digit_shift) & kDigitMask]++] = k;
    }
    std::swap(src, dst);
  }
  return {src, n};
}

}  // namespace dirant
