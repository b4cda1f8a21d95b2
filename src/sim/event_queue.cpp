#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace dirant::sim {

namespace {

/// Min-heap order on (tick, seq) for the overflow park — the same strict
/// total order the wheel realises structurally.
constexpr auto heap_later = [](const auto& a, const auto& b) {
  return a.tick != b.tick ? a.tick > b.tick : a.seq > b.seq;
};

/// Index of the first set bit at position >= `from` in a kWords-word
/// bitmap, or -1.
template <int Words>
int find_ge(const std::uint64_t (&w)[Words], int from) {
  if (from >= Words * 64) return -1;
  int word = from >> 6;
  std::uint64_t bits = w[word] & (~0ull << (from & 63));
  for (;;) {
    if (bits != 0) return (word << 6) + std::countr_zero(bits);
    if (++word == Words) return -1;
    bits = w[word];
  }
}

}  // namespace

void EventQueue::reset() {
  for (std::vector<Packed>& b : buckets_) b.clear();
  std::memset(occ_, 0, sizeof occ_);
  heap_.clear();
  cur_ = 0;
  head_ = 0;
  size_ = 0;
  seq_ = 0;
  cascaded_ = 0;
  parked_ = 0;
}

void EventQueue::park(std::uint64_t tick, std::uint32_t data,
                      std::uint32_t aux) {
  heap_.push_back(HeapEntry{tick, seq_++, data, aux});
  std::push_heap(heap_.begin(), heap_.end(), heap_later);
  ++parked_;
}

// Pops every parked event belonging to the top-level window that starts at
// the (window-aligned) cursor back into the wheels.  Heap order is
// (tick, seq), so same-tick events re-enter their bucket in seq order —
// and the wheels hold nothing for this window yet, so FIFO is preserved.
void EventQueue::drain_overflow() {
  const std::uint64_t end = cur_ + (1ull << kSpanBits);
  while (!heap_.empty() && heap_.front().tick < end) {
    std::pop_heap(heap_.begin(), heap_.end(), heap_later);
    const HeapEntry e = heap_.back();
    heap_.pop_back();
    place(e.tick, e.data, e.aux);
  }
}

// Redistributes the upper-level slot the cursor just entered.  Every event
// re-places on a strictly lower level (its level-`level` window now
// contains the cursor), into buckets that are empty until this window is
// current — a stable scan, never a merge.
void EventQueue::cascade(int level) {
  const int slot = static_cast<int>((cur_ >> (level * kBits)) & kMask);
  std::vector<Packed>& b =
      buckets_[static_cast<size_t>(level * kSlots + slot)];
  if (b.empty()) return;
  cascaded_ += b.size();
  for (const Packed& p : b) place(p.tick, p.data, p.aux);
  b.clear();
  occ_[level][slot >> 6] &= ~(1ull << (slot & 63));
}

// Moves the cursor to the next occupied tick.  Precondition: size_ > 0 and
// the cursor's bucket is empty.  The occupancy bitmaps skip empty slots on
// every level: an occupied level-j slot always lies strictly after the
// cursor's own level-j slot (placement puts an event on the lowest level
// whose aligned window holds the cursor, and the cursor's own upper slots
// were cascaded when it entered them), so the cursor jumps straight to the
// next occupied level-0 slot, else to the next occupied level-1 or level-2
// slot, cascading it down.  When the wheels are drained entirely it jumps
// to the overflow's top-level window, so far-future timers cost
// O(overflow), not O(tick gap).
void EventQueue::advance() {
  // The cursor's own slot was just drained; slot 0 of a freshly entered
  // window has NOT been examined, so `from` resets to 0 whenever the
  // cursor moves to a window start below.
  int from = static_cast<int>(cur_ & kMask) + 1;
  for (;;) {
    if (size_ == heap_.size()) {
      // Everything pending is parked beyond the current top-level window.
      DIRANT_ASSERT(!heap_.empty());
      cur_ = heap_.front().tick & ~((1ull << kSpanBits) - 1);
      drain_overflow();
      from = 0;
      continue;
    }
    if (const int s = find_ge(occ_[0], from); s >= 0) {
      cur_ = (cur_ & ~kMask) | static_cast<std::uint64_t>(s);
      return;
    }
    // Level-0 window exhausted: enter the next occupied level-1 slot of
    // this level-2 window, else the next occupied level-2 slot, and
    // cascade it downward.  (A cascaded level-2 slot fills no level-1
    // slot 0: those events share the cursor's level-0 window.)
    const int l1 = static_cast<int>((cur_ >> kBits) & kMask);
    if (const int s = find_ge(occ_[1], l1 + 1); s >= 0) {
      cur_ = (cur_ & ~((1ull << (2 * kBits)) - 1)) |
             (static_cast<std::uint64_t>(s) << kBits);
      cascade(1);
    } else {
      // The wheels still hold an event (size_ > heap_.size()), and it is
      // on neither lower level.
      const int l2 = static_cast<int>((cur_ >> (2 * kBits)) & kMask);
      const int s2 = find_ge(occ_[2], l2 + 1);
      DIRANT_ASSERT(s2 >= 0);
      cur_ = (cur_ & ~((1ull << kSpanBits) - 1)) |
             (static_cast<std::uint64_t>(s2) << (2 * kBits));
      cascade(2);
    }
    from = 0;
  }
}

}  // namespace dirant::sim
