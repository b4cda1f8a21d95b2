#pragma once
// Test-only oracle for sim::EventQueue: the plain binary heap.  Every event
// carries an explicit push sequence number and pops in `(tick, seq)` order
// by comparison, O(log m) per operation — the order the timing wheel must
// realise structurally (FIFO buckets, seq-stable cascades, an overflow
// park).  Same interface as the library queue, none of its machinery.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"

namespace dirant::test {

class ReferenceEventQueue {
 public:
  using Item = sim::EventQueue::Item;

  void reset() {
    heap_.clear();
    now_ = 0;
    seq_ = 0;
  }

  bool empty() const { return heap_.empty(); }
  /// The last popped tick: pushing below it would schedule into the past.
  std::uint64_t now() const { return now_; }

  void push(std::uint64_t tick, std::uint32_t data, std::uint32_t aux) {
    heap_.push_back(Entry{tick, seq_++, data, aux});
    std::push_heap(heap_.begin(), heap_.end(), later);
  }

  Item pop() {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Entry e = heap_.back();
    heap_.pop_back();
    now_ = e.tick;
    return Item{e.tick, e.data, e.aux};
  }

 private:
  struct Entry {
    std::uint64_t tick;
    std::uint64_t seq;
    std::uint32_t data;
    std::uint32_t aux;
  };

  static bool later(const Entry& a, const Entry& b) {
    return a.tick != b.tick ? a.tick > b.tick : a.seq > b.seq;
  }

  std::vector<Entry> heap_;
  std::uint64_t now_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace dirant::test
