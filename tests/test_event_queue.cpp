// sim::EventQueue — the timing wheel against the binary-heap oracle.  The
// wheel's whole claim is that it realises the heap's strict (tick, seq)
// pop order *structurally*, so the suite drives the wheel and
// tests/reference_event_queue.hpp through the same seeded push/pop traces
// and asserts exact equality of every popped (tick, data, aux) — not
// statistical similarity.  The randomized traces cover random tick spreads
// at every wheel level, same-tick floods, pushes at now() while the
// cursor's bucket drains, far-horizon events that park in the overflow
// heap and cascade back in, and reset() reuse of one queue across traces;
// two long fixed far traces keep hundreds of events parked at once, so the
// overflow heap's (tick, seq) order and the cursor's jumps across empty
// upper windows are checked under load.  Fixed tests pin the mechanisms by
// name (the park/cascade counters) and the recycled-slab contract:
// replaying an identical trace on a warm queue performs zero heap
// allocations.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc_counter.hpp"
#include "reference_event_queue.hpp"
#include "sim/event_queue.hpp"

namespace {

namespace sim = dirant::sim;
using dirant::test::count_allocations;
using dirant::test::ReferenceEventQueue;

std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Spreads chosen to pin each mechanism: 0 (pure FIFO), 3 (single level-0
// window), 500 (level-1 cascades), 100000 (level-2 cascades), and the far
// spread 2^26 (timers beyond the 2^24-tick wheel span: overflow park,
// empty-wheel cursor jump, empty upper windows skipped per pop).
constexpr std::uint64_t kNearSpreads[] = {0, 3, 500, 100000};
constexpr std::uint64_t kFarSpread = 1ull << 26;

// One trace, driven through any queue with the EventQueue interface:
// interleave seeded pushes with drain bursts, then drain the remainder.
// `data` carries the push index, so an out-of-order pop — or any FIFO
// violation among equal ticks — shows up as a payload mismatch, not just a
// tick mismatch.  `on_pop` sees every popped item.
//
// Adversarial mix (default): a quarter of the pushes land at now() (a push
// while the cursor's bucket drains), a quarter repeat the previous push's
// tick when it is still pending (same-tick groups, parked ones included),
// and the rest draw a delta from [0, spread] relative to now().  Uniform
// mix: every push draws its delta from [0, spread], so at a far spread
// most pending events sit in the overflow park at once.
enum class Mix { kAdversarial, kUniform };

template <typename Queue, typename OnPop>
void run_trace(Queue& q, std::uint64_t seed, int pushes, std::uint64_t spread,
               int burst, OnPop&& on_pop, Mix mix = Mix::kAdversarial) {
  q.reset();
  std::uint64_t ctr = seed;
  std::uint64_t last = 0;
  int pushed = 0;
  while (pushed < pushes || !q.empty()) {
    for (int i = 0; i < burst && pushed < pushes; ++i, ++pushed) {
      const std::uint64_t r = splitmix64(++ctr);
      std::uint64_t tick = q.now();
      if (mix == Mix::kUniform) {
        tick += r % (spread + 1);
      } else if ((r & 3) == 1 && last >= q.now()) {
        tick = last;
      } else if ((r & 3) >= 2) {
        tick += (r >> 2) % (spread + 1);
      }
      last = tick;
      q.push(tick, static_cast<std::uint32_t>(pushed),
             static_cast<std::uint32_t>(pushed ^ 0x55555555u));
    }
    const int pops = 1 + static_cast<int>(splitmix64(++ctr) % burst);
    for (int i = 0; i < pops && !q.empty(); ++i) on_pop(q.pop());
  }
}

bool same_item(const sim::EventQueue::Item& a,
               const sim::EventQueue::Item& b) {
  return a.tick == b.tick && a.data == b.data && a.aux == b.aux;
}

// Runs one trace through `wheel` and a fresh reference heap and asserts the
// two pop sequences agree item for item, and that the wheel's pops are
// tick-sorted.
void expect_matches_reference(sim::EventQueue& wheel, std::uint64_t seed,
                              int pushes, std::uint64_t spread, int burst,
                              Mix mix = Mix::kAdversarial) {
  ReferenceEventQueue heap;
  std::vector<sim::EventQueue::Item> w, h;
  run_trace(
      wheel, seed, pushes, spread, burst,
      [&](const sim::EventQueue::Item& e) { w.push_back(e); }, mix);
  run_trace(
      heap, seed, pushes, spread, burst,
      [&](const sim::EventQueue::Item& e) { h.push_back(e); }, mix);
  ASSERT_EQ(w.size(), static_cast<std::size_t>(pushes)) << "seed " << seed;
  ASSERT_EQ(h.size(), w.size()) << "seed " << seed;
  for (std::size_t i = 0; i < w.size(); ++i) {
    ASSERT_TRUE(same_item(w[i], h[i]))
        << "seed " << seed << ": first divergence at pop " << i << " (tick "
        << w[i].tick << " vs " << h[i].tick << ")";
    if (i > 0) {
      ASSERT_LE(w[i - 1].tick, w[i].tick) << "seed " << seed;
    }
  }
}

// 240 seeded traces, one wheel reused (reset) across all of them.
TEST(EventQueue, RandomizedTracesMatchReferenceHeap) {
  sim::EventQueue wheel;
  std::uint64_t parked = 0, cascaded = 0;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    const bool far = seed % 10 == 0;
    const std::uint64_t spread = far ? kFarSpread : kNearSpreads[seed % 4];
    const std::uint64_t r = splitmix64(seed * 0x51ed27ull);
    const int pushes = 80 + static_cast<int>(r % 200);
    const int burst = 1 + static_cast<int>((r >> 20) % 9);
    expect_matches_reference(wheel, seed, pushes, spread, burst);
    if (HasFatalFailure()) return;
    parked += wheel.parked();
    cascaded += wheel.cascaded();
  }
  // The traces must actually reach the overflow park and the upper wheels,
  // or the parity above says nothing about them.
  EXPECT_GT(parked, 0u);
  EXPECT_GT(cascaded, 0u);
}

// Long uniform far traces: most pending events wait in the overflow park
// at once, drain back in (tick, seq) order, and every pop crosses several
// empty upper windows.  Spread 2^26 spans a few top-level windows, 2^28
// a few dozen.
TEST(EventQueue, LongFarTracesMatchReferenceHeap) {
  sim::EventQueue wheel;
  expect_matches_reference(wheel, /*seed=*/5, /*pushes=*/2000,
                           /*spread=*/1ull << 26, /*burst=*/4, Mix::kUniform);
  EXPECT_GT(wheel.parked(), 1000u);
  expect_matches_reference(wheel, /*seed=*/11, /*pushes=*/600,
                           /*spread=*/1ull << 28, /*burst=*/3, Mix::kUniform);
  EXPECT_GT(wheel.parked(), 300u);
}

TEST(EventQueue, SameTickFloodIsFifo) {
  sim::EventQueue q;
  for (int trial = 0; trial < 2; ++trial) {
    q.reset();
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
  sim::EventQueue q;
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

// Far-horizon events must actually exercise the park/cascade machinery —
// the counters prove the trace went through the overflow heap and upper
// wheels, not some degenerate shortcut.
TEST(EventQueue, FarHorizonParksAndCascades) {
  sim::EventQueue q;
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

TEST(EventQueue, ResetRewindsCursorAndCounters) {
  sim::EventQueue q;
  q.push(5, 1, 0);
  q.push(1ull << 30, 2, 0);
  (void)q.pop();
  EXPECT_EQ(q.now(), 5u);
  q.reset();
  EXPECT_EQ(q.now(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.parked(), 0u);
  EXPECT_EQ(q.cascaded(), 0u);
  q.push(3, 7, 0);
  EXPECT_EQ(q.pop().tick, 3u);
}

// The recycled-slab contract behind WarmRunIsAllocationFree: replaying an
// identical trace on a warm queue touches no allocator.
TEST(EventQueue, WarmReplayIsAllocationFree) {
  sim::EventQueue q;
  std::vector<sim::EventQueue::Item> out;
  const auto replay = [&] {
    out.clear();
    run_trace(q, /*seed=*/17, /*pushes=*/3000, /*spread=*/40000,
              /*burst=*/8,
              [&](const sim::EventQueue::Item& e) { out.push_back(e); });
  };
  replay();  // cold: grows buckets and `out` to their peak occupancy
  EXPECT_EQ(count_allocations(replay), 0);
}

}  // namespace
