#pragma once
/// \file event_queue.hpp
/// EventQueue — the discrete-event core of sim::TrafficEngine: a
/// hierarchical timing wheel with the classic binary heap retained behind
/// the same interface as the correctness oracle (`QueueKind::kBinaryHeap`).
///
/// The queue delivers events in strictly increasing `(tick, push-order)`
/// order — the FIFO tie-break that makes the TrafficEngine's run a pure
/// function of (topology, schedule, seed).  The binary heap realises that
/// order with an explicit per-event sequence number and O(log m)
/// comparisons per push/pop; the timing wheel realises it *structurally*
/// in O(1) amortized per event, with no comparator on the hot path at all:
///
///   * **Level-0 buckets are single ticks.**  Level j has 256 slots of
///     256^j ticks each, and an event lands on the lowest level whose
///     *aligned* window contains both the event and the cursor — so a
///     level-0 slot only ever holds events of exactly one tick, appended
///     in push order.  Dequeue is a straight FIFO scan of the cursor's
///     bucket: the `(tick, seq)` order falls out of the structure.
///   * **Seq-stable cascades.**  When the cursor crosses a window
///     boundary, the next upper-level slot is redistributed downward by a
///     linear scan in storage order.  Appends during distribution preserve
///     relative order, and the aligned-window placement rule guarantees
///     every destination bucket is *empty* at cascade time (events for a
///     window can only reach lower levels once the window is current), so
///     no merge — and no comparison — is ever needed.
///   * **Far events park in an overflow heap.**  Ticks beyond the top
///     wheel window (2^24 ticks) keep their sequence number and wait in a
///     small `(tick, seq)` binary heap; they drain into the wheels, in
///     heap order, when the cursor enters their window.  Same-tick parked
///     events therefore re-enter in seq order, and by then every in-wheel
///     event of that window is gone — order is preserved end to end.
///   * **Recycled slabs.**  Buckets, bitmap words and the overflow heap
///     are engine-owned vectors that `reset()` clears without releasing,
///     so a warm run performs zero heap allocations once every bucket has
///     seen its peak occupancy (the `WarmRunIsAllocationFree` contract).
///
/// Occupancy bitmaps (one word per 64 slots) let the cursor skip empty
/// slots with `countr_zero` instead of stepping tick by tick; when the
/// wheels are empty the cursor jumps straight to the overflow's window, so
/// arbitrarily distant timers cost O(overflow) — not O(horizon).
///
/// The payload is two opaque 32-bit words (`data`, `aux`); the engine
/// packs its event kind + index into `data` and the packet generation into
/// `aux`.  In-wheel records are 16 bytes — half the footprint of the old
/// heap's 32-byte events — so a bucket scan is cache-dense.
/// `tests/test_event_queue.cpp` drives both kinds through adversarial
/// interleavings and asserts exact pop-order equality.
///
/// Not thread-safe; one queue per engine, same as the engine itself.

#include <array>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace dirant::sim {

enum class QueueKind : std::uint8_t {
  kTimingWheel,  ///< hierarchical wheel, O(1) amortized, comparator-free
  kBinaryHeap,   ///< std::push_heap/pop_heap oracle, O(log m)
};

const char* to_string(QueueKind k);

class EventQueue {
 public:
  /// One dequeued event.  `data`/`aux` are returned exactly as pushed.
  struct Item {
    std::uint64_t tick = 0;
    std::uint32_t data = 0;
    std::uint32_t aux = 0;
  };

  EventQueue() { reset(QueueKind::kTimingWheel); }

  /// Empties the queue and rewinds the cursor to tick 0, keeping every
  /// bucket's capacity (the warm zero-alloc contract).  The overload picks
  /// the implementation for the next run; a mid-run kind switch is not a
  /// meaningful operation, so reconfiguring always resets.
  void reset() { reset(kind_); }
  void reset(QueueKind kind);

  QueueKind kind() const { return kind_; }
  bool empty() const { return size_ == 0; }
  std::uint64_t size() const { return size_; }

  /// Lower bound of poppable ticks: the wheel cursor, or the last popped
  /// tick in heap mode.  Pushing below it is a contract violation — a
  /// discrete-event loop never schedules into the past.
  std::uint64_t now() const { return cur_; }

  // Observability for tests and benches (cumulative since reset):
  /// events redistributed downward by wheel-wrap cascades.
  std::uint64_t cascaded() const { return cascaded_; }
  /// events parked in (and later drained from) the overflow heap.
  std::uint64_t parked() const { return parked_; }

  void push(std::uint64_t tick, std::uint32_t data, std::uint32_t aux) {
    ++size_;
    if (kind_ == QueueKind::kBinaryHeap) {
      push_heap_mode(tick, data, aux);
      return;
    }
    DIRANT_ASSERT(tick >= cur_);
    if ((tick >> kSpanBits) != (cur_ >> kSpanBits)) {
      park(tick, data, aux);
      return;
    }
    place(tick, data, aux);
  }

  /// Pops the strictly next event in `(tick, push-order)`.  Precondition:
  /// `!empty()`.
  Item pop() {
    DIRANT_ASSERT(size_ != 0);
    if (kind_ == QueueKind::kBinaryHeap) return pop_heap_mode();
    for (;;) {
      // The cursor's level-0 bucket holds events of exactly one tick in
      // push order; handlers may append same-tick events while it drains,
      // and the re-read of size() picks those up in order.
      std::vector<Packed>& b = buckets_[static_cast<size_t>(cur_ & kMask)];
      if (head_ < b.size()) {
        const Packed p = b[head_++];
        --size_;
        return Item{cur_, p.data, p.aux};
      }
      b.clear();
      head_ = 0;
      occ_[0][(cur_ & kMask) >> 6] &= ~(1ull << (cur_ & 63));
      advance();
    }
  }

 private:
  static constexpr int kBits = 8;            ///< slots per level = 2^kBits
  static constexpr int kSlots = 1 << kBits;  ///< 256
  static constexpr int kLevels = 3;          ///< wheel span = 2^24 ticks
  static constexpr int kSpanBits = kLevels * kBits;
  static constexpr std::uint64_t kMask = kSlots - 1;
  static constexpr int kWords = kSlots / 64;

  /// In-wheel record: 16 bytes.  No sequence number — FIFO order within a
  /// bucket IS seq order, structurally.
  struct Packed {
    std::uint64_t tick;
    std::uint32_t data;
    std::uint32_t aux;
  };

  /// Heap / overflow record: the explicit `(tick, seq)` key the wheel
  /// does not need.
  struct HeapEntry {
    std::uint64_t tick;
    std::uint64_t seq;
    std::uint32_t data;
    std::uint32_t aux;
  };

  /// Buckets an in-window event on the lowest level whose aligned window
  /// still contains the cursor.  Precondition: same top-level window.
  void place(std::uint64_t tick, std::uint32_t data, std::uint32_t aux) {
    int level = 0;
    while (level + 1 < kLevels &&
           (tick >> ((level + 1) * kBits)) != (cur_ >> ((level + 1) * kBits))) {
      ++level;
    }
    const int slot = static_cast<int>((tick >> (level * kBits)) & kMask);
    buckets_[static_cast<size_t>(level * kSlots + slot)].push_back(
        Packed{tick, data, aux});
    occ_[level][slot >> 6] |= 1ull << (slot & 63);
  }

  void park(std::uint64_t tick, std::uint32_t data, std::uint32_t aux);
  void drain_overflow();
  void cascade(int level);
  void advance();

  void push_heap_mode(std::uint64_t tick, std::uint32_t data,
                      std::uint32_t aux);
  Item pop_heap_mode();

  // Level-0 slots first so the pop hot path indexes with no offset.
  std::array<std::vector<Packed>, kLevels * kSlots> buckets_;
  std::uint64_t occ_[kLevels][kWords] = {};
  /// Overflow park (wheel mode) / the entire queue (heap mode): one
  /// recycled buffer, `(tick, seq)` min-heap order in both roles.
  std::vector<HeapEntry> heap_;
  std::uint64_t cur_ = 0;
  std::size_t head_ = 0;  ///< consumed prefix of the cursor's bucket
  std::uint64_t size_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t cascaded_ = 0;
  std::uint64_t parked_ = 0;
  QueueKind kind_ = QueueKind::kTimingWheel;
};

}  // namespace dirant::sim
