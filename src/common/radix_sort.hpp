#pragma once
/// \file radix_sort.hpp
/// Stable LSD radix sort of packed 64-bit keys.  The hot sorts of the EMST
/// front end (the triangulator's insertion order, Kruskal's edge order) sort
/// `(sort bits | index)` words whose low bits are a payload that only has to
/// keep its input order among equal sort bits; a few counting passes over
/// 11-bit digits beat a comparison sort on them by a wide margin.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace dirant {

/// Working memory for `radix_sort`: the scatter buffer and the digit
/// counts.  Owned by the caller, so concurrent sorts share nothing and a
/// warm scratch sorts inputs of stable size without allocating.
struct RadixScratch {
  std::vector<std::uint64_t> buf;
  std::vector<std::size_t> counts;
};

/// Sorts `keys` stably by their bits [shift, 64), 11 bits per pass from the
/// lowest digit up; bits below `shift` are payload and take no part in the
/// order.  A digit that every key shares costs no pass.  `keys` may come
/// back holding what was `scratch.buf`'s storage (the two are swapped after
/// an odd number of passes).  0 <= shift < 64.
inline void radix_sort(std::vector<std::uint64_t>& keys, int shift,
                       RadixScratch& scratch) {
  constexpr int kDigitBits = 11;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  constexpr std::uint64_t kDigitMask = kBuckets - 1;
  DIRANT_ASSERT(shift >= 0 && shift < 64);
  const std::size_t n = keys.size();
  if (n < 2) return;
  const int passes = (64 - shift + kDigitBits - 1) / kDigitBits;

  // One read of the keys fills every digit's histogram.
  auto& counts = scratch.counts;
  counts.assign(static_cast<std::size_t>(passes) * kBuckets, 0);
  for (const std::uint64_t k : keys) {
    const std::uint64_t s = k >> shift;
    for (int p = 0; p < passes; ++p) {
      ++counts[p * kBuckets + ((s >> (p * kDigitBits)) & kDigitMask)];
    }
  }

  auto& buf = scratch.buf;
  buf.resize(n);
  for (int p = 0; p < passes; ++p) {
    std::size_t* count = counts.data() + p * kBuckets;
    const int digit_shift = shift + p * kDigitBits;
    if (count[(keys[0] >> digit_shift) & kDigitMask] == n) continue;
    std::size_t sum = 0;
    for (std::size_t d = 0; d < kBuckets; ++d) {
      const std::size_t c = count[d];
      count[d] = sum;
      sum += c;
    }
    for (const std::uint64_t k : keys) {
      buf[count[(k >> digit_shift) & kDigitMask]++] = k;
    }
    keys.swap(buf);
  }
}

}  // namespace dirant
