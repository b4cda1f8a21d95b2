// sim::EventQueue — the timing-wheel vs binary-heap parity suite.  The
// wheel's whole claim is that it realises the same strict (tick, seq) pop
// order as the heap *structurally*, so every test here drives both kinds
// through the same push/pop trace and asserts exact equality of the
// (tick, data, aux) pop sequence — not statistical similarity.  Covered
// adversaries: random tick spreads at every wheel level, same-tick floods,
// interleaved push-while-draining, far-horizon events that park in the
// overflow heap and cascade back in, and sparse far-apart timers that
// exercise the empty-wheel cursor jump.  A final test pins the recycled-
// slab contract: replaying an identical trace on a warm queue performs
// zero heap allocations.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc_counter.hpp"
#include "sim/event_queue.hpp"

namespace {

namespace sim = dirant::sim;
using dirant::test::count_allocations;

std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Popped {
  std::uint64_t tick;
  std::uint32_t data;
  std::uint32_t aux;

  bool operator==(const Popped&) const = default;
};

// One adversarial trace: interleave seeded pushes (delta drawn from
// [0, spread], relative to the queue's current now()) with drain bursts,
// then drain the remainder.  `data` carries the push index, so an
// out-of-order pop — or any FIFO violation among equal ticks — shows up
// as a payload mismatch, not just a tick mismatch.
void run_trace(sim::EventQueue& q, sim::QueueKind kind, std::uint64_t seed,
               int pushes, std::uint64_t spread, int burst,
               std::vector<Popped>& out) {
  q.reset(kind);
  out.clear();
  std::uint64_t ctr = seed;
  int pushed = 0;
  while (pushed < pushes || !q.empty()) {
    for (int i = 0; i < burst && pushed < pushes; ++i, ++pushed) {
      const std::uint64_t delta = splitmix64(++ctr) % (spread + 1);
      q.push(q.now() + delta, static_cast<std::uint32_t>(pushed),
             static_cast<std::uint32_t>(pushed ^ 0x55555555u));
    }
    const int pops = 1 + static_cast<int>(splitmix64(++ctr) % burst);
    for (int i = 0; i < pops && !q.empty(); ++i) {
      const sim::EventQueue::Item e = q.pop();
      out.push_back(Popped{e.tick, e.data, e.aux});
    }
  }
}

void expect_same_trace(std::uint64_t seed, int pushes, std::uint64_t spread,
                       int burst) {
  sim::EventQueue wheel;
  sim::EventQueue heap;
  std::vector<Popped> w, h;
  run_trace(wheel, sim::QueueKind::kTimingWheel, seed, pushes, spread, burst,
            w);
  run_trace(heap, sim::QueueKind::kBinaryHeap, seed, pushes, spread, burst,
            h);
  ASSERT_EQ(w.size(), h.size());
  ASSERT_EQ(w.size(), static_cast<std::size_t>(pushes));
  for (std::size_t i = 0; i < w.size(); ++i) {
    ASSERT_EQ(w[i], h[i]) << "first divergence at pop " << i;
  }
  // Both queues saw the same interleaving, so the pop order must also be
  // sorted by tick (the FIFO part is already pinned by the payloads).
  for (std::size_t i = 1; i < w.size(); ++i) {
    ASSERT_LE(w[i - 1].tick, w[i].tick);
  }
}

TEST(EventQueue, ToStringNamesKinds) {
  EXPECT_STREQ("wheel", sim::to_string(sim::QueueKind::kTimingWheel));
  EXPECT_STREQ("heap", sim::to_string(sim::QueueKind::kBinaryHeap));
}

// Spreads chosen to pin each mechanism: 0 (pure FIFO), 3 (single level-0
// window), 500 (level-1 cascades), 100000 (level-2 cascades), 2^26
// (overflow park + empty-wheel jump).
TEST(EventQueue, ParityAcrossTickSpreads) {
  expect_same_trace(/*seed=*/1, /*pushes=*/4000, /*spread=*/0, /*burst=*/7);
  expect_same_trace(2, 4000, 3, 5);
  expect_same_trace(3, 4000, 500, 9);
  expect_same_trace(4, 4000, 100000, 6);
  expect_same_trace(5, 2000, 1ull << 26, 4);
}

TEST(EventQueue, SameTickFloodIsFifo) {
  sim::EventQueue q;
  for (int trial = 0; trial < 2; ++trial) {
    q.reset(trial == 0 ? sim::QueueKind::kTimingWheel
                       : sim::QueueKind::kBinaryHeap);
    q.push(41, 0xffffffffu, 0);
    for (std::uint32_t i = 0; i < 1000; ++i) q.push(42, i, ~i);
    ASSERT_EQ(q.pop().tick, 41u);
    for (std::uint32_t i = 0; i < 1000; ++i) {
      const sim::EventQueue::Item e = q.pop();
      ASSERT_EQ(e.tick, 42u);
      ASSERT_EQ(e.data, i);
      ASSERT_EQ(e.aux, ~i);
    }
    EXPECT_TRUE(q.empty());
  }
}

// Same-tick pushes arriving while the cursor's bucket is mid-drain must
// pop in push order after the already-queued events — the handler-
// schedules-at-now pattern the engine leans on.
TEST(EventQueue, PushAtNowWhileDraining) {
  for (const auto kind :
       {sim::QueueKind::kTimingWheel, sim::QueueKind::kBinaryHeap}) {
    sim::EventQueue q;
    q.reset(kind);
    q.push(7, 0, 0);
    q.push(7, 1, 0);
    ASSERT_EQ(q.pop().data, 0u);
    q.push(7, 2, 0);  // lands behind data=1 at the same tick
    q.push(8, 3, 0);
    ASSERT_EQ(q.pop().data, 1u);
    ASSERT_EQ(q.pop().data, 2u);
    ASSERT_EQ(q.pop().data, 3u);
    EXPECT_TRUE(q.empty());
  }
}

// Far-horizon events must actually exercise the park/cascade machinery —
// the counters prove the trace went through the overflow heap and upper
// wheels, not some degenerate shortcut.
TEST(EventQueue, FarHorizonParksAndCascades) {
  sim::EventQueue q;
  q.reset(sim::QueueKind::kTimingWheel);
  // Beyond the 2^24-tick wheel span: parks in the overflow heap.
  q.push(1ull << 30, 100, 0);
  q.push((1ull << 30) + (1ull << 20), 101, 0);
  // Same top-level window, different level-1 slots: cascades on wrap.
  q.push(70000, 200, 0);
  q.push(300, 300, 0);
  EXPECT_EQ(q.pop().data, 300u);
  EXPECT_EQ(q.pop().data, 200u);
  EXPECT_GT(q.cascaded(), 0u);
  EXPECT_EQ(q.parked(), 2u);
  // The wheels are now empty: the cursor jumps straight to the overflow
  // window instead of stepping 2^30 ticks.
  const sim::EventQueue::Item far1 = q.pop();
  EXPECT_EQ(far1.tick, 1ull << 30);
  EXPECT_EQ(far1.data, 100u);
  EXPECT_EQ(q.pop().data, 101u);
  EXPECT_TRUE(q.empty());
}

// Sparse far-apart timers: every pop crosses several empty windows, and
// parked events keep their FIFO rank among equal ticks.
TEST(EventQueue, SparseTimersParity) {
  expect_same_trace(/*seed=*/11, /*pushes=*/600, /*spread=*/1ull << 28,
                    /*burst=*/3);
}

TEST(EventQueue, ResetRewindsAndKeepsKind) {
  sim::EventQueue q;
  q.reset(sim::QueueKind::kBinaryHeap);
  q.push(5, 1, 0);
  (void)q.pop();
  EXPECT_EQ(q.now(), 5u);
  q.reset();
  EXPECT_EQ(q.kind(), sim::QueueKind::kBinaryHeap);
  EXPECT_EQ(q.now(), 0u);
  EXPECT_TRUE(q.empty());
  q.reset(sim::QueueKind::kTimingWheel);
  EXPECT_EQ(q.kind(), sim::QueueKind::kTimingWheel);
}

// The recycled-slab contract behind WarmRunIsAllocationFree: replaying an
// identical trace on a warm queue touches no allocator, for both kinds.
TEST(EventQueue, WarmReplayIsAllocationFree) {
  for (const auto kind :
       {sim::QueueKind::kTimingWheel, sim::QueueKind::kBinaryHeap}) {
    sim::EventQueue q;
    std::vector<Popped> out;
    const auto replay = [&] {
      run_trace(q, kind, /*seed=*/17, /*pushes=*/3000, /*spread=*/40000,
                /*burst=*/8, out);
    };
    replay();  // cold: grows buckets and `out` to their peak occupancy
    EXPECT_EQ(count_allocations(replay), 0) << sim::to_string(kind);
  }
}

}  // namespace
