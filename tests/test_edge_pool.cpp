// Randomized differential test: mst::DelaunayEdgePool (inserted nodes kept
// as implicit stars) against tests/reference_edge_pool.hpp (every edge
// written out).  Seeded fail/recover/move sequences drive both pools in
// sim::ChurnEngine::step's call order — buffered fails flush in one
// erase_nodes before any insert, a move is erase_node + insert_node, and a
// batch ends with a flush.  After every pool call both must agree on
// valid() and (while valid) size(); at every batch end also on
// oversized(alive) and edges().  A batch that leaves the pool invalid or
// oversized reseeds both, as the engine's escalation does.
//
// The sweep covers n in [4, 128], degree_cap in {3, 6, 12, 64} and
// size_factor in {2, 6}: small n with a large cap takes the branch where
// an erased star is materialised instead of invalidating the pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <random>
#include <utility>
#include <vector>

#include "mst/repair.hpp"
#include "reference_edge_pool.hpp"

namespace mst = dirant::mst;
using dirant::test::ReferenceEdgePool;

namespace {

struct Counters {
  int star_erases = 0;   ///< erase of a node inserted earlier in the batch
  int star_erases_kept = 0;  ///< ... that left the pool valid (materialised)
  int invalidations = 0;
  int oversized = 0;
  int clean_batches = 0;  ///< batch ends with a valid, in-bounds pool
  int over_cap_batches = 0;  ///< batches inserting more stars than the cap
};

class Driver {
 public:
  Driver(int n, mst::EdgePoolConfig cfg, std::uint64_t seed)
      : n_(n), pool_(cfg), ref_(cfg), rng_(seed), alive_(n, 0),
        inserted_(n, 0) {
    // Start with roughly 80% alive so recovers have dead nodes to revive.
    for (int u = 0; u < n_; ++u) alive_[u] = coin(0.8) ? 1 : 0;
    alive_[0] = alive_[1] = 1;
    reseed();
  }

  void run_batch(Counters& c) {
    std::fill(inserted_.begin(), inserted_.end(), 0);
    const int events = 1 + pick(8);
    for (int i = 0; i < events; ++i) {
      const int kind = pick(3);
      const int u = pick(n_);
      if (kind == 0) {  // fail: buffered until the next insert
        if (!alive_[u] || alive_count() <= 2) continue;
        alive_[u] = 0;
        pending_.push_back(u);
      } else if (kind == 1) {  // recover
        if (alive_[u]) continue;
        alive_[u] = 1;
        flush(c);
        insert(u);
      } else {  // move
        if (!alive_[u]) continue;
        flush(c);
        const bool star = inserted_[u] && ref_.valid();
        pool_.erase_node(u);
        ref_.erase_node(u);
        expect_same("erase_node");
        count_star_erase(c, star);
        insert(u);
      }
    }
    flush(c);
    finish_batch(c);
  }

  /// A traffic-like batch, in sim::ChurnEngine::poisson_schedule's shape:
  /// nodes in id order, each alive one failing with `fail` or else moving
  /// with `move`, each dead one recovering with `recover`.  Fails buffer
  /// between the inserts, so multi-fail erases interleave with the single
  /// erases of moves, and with high insert rates a batch holds more stars
  /// than the degree cap.
  void run_traffic_batch(double fail, double move, double recover,
                         Counters& c) {
    std::fill(inserted_.begin(), inserted_.end(), 0);
    int stars = 0;
    for (int u = 0; u < n_; ++u) {
      if (!alive_[u]) {
        if (!coin(recover)) continue;
        alive_[u] = 1;
        flush(c);
        insert(u);
        ++stars;
      } else if (coin(fail)) {
        if (alive_count() <= 2) continue;
        alive_[u] = 0;
        pending_.push_back(u);
      } else if (coin(move)) {
        flush(c);
        pool_.erase_node(u);
        ref_.erase_node(u);
        expect_same("erase_node");
        insert(u);
        ++stars;
      }
      if (testing::Test::HasFatalFailure()) return;
    }
    flush(c);
    if (stars > pool_.config().degree_cap) ++c.over_cap_batches;
    finish_batch(c);
  }

 private:
  void finish_batch(Counters& c) {
    if (!ref_.valid()) {
      ++c.invalidations;
    } else {
      const int alive = alive_count();
      ASSERT_EQ(pool_.oversized(alive), ref_.oversized(alive));
      const auto got = pool_.edges();
      const auto want = ref_.edges();
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                             want.end()))
          << "edges() differ: " << got.size() << " vs " << want.size();
      if (ref_.oversized(alive)) {
        ++c.oversized;
      } else {
        ++c.clean_batches;
        return;
      }
    }
    reseed();
  }

  int pick(int k) { return std::uniform_int_distribution<int>(0, k - 1)(rng_); }
  bool coin(double p) { return std::bernoulli_distribution(p)(rng_); }
  int alive_count() const {
    return static_cast<int>(std::count(alive_.begin(), alive_.end(), 1));
  }

  void insert(int u) {
    pool_.insert_node(u, alive_);
    ref_.insert_node(u, alive_);
    inserted_[u] = 1;
    expect_same("insert_node");
  }

  void flush(Counters& c) {
    bool star = false;
    for (int u : pending_) star |= inserted_[u] != 0;
    star &= ref_.valid();
    pool_.erase_nodes(pending_);
    ref_.erase_nodes(pending_);
    pending_.clear();
    expect_same("erase_nodes");
    count_star_erase(c, star);
  }

  void count_star_erase(Counters& c, bool star) {
    if (!star) return;
    ++c.star_erases;
    if (ref_.valid()) ++c.star_erases_kept;
  }

  // Checked after every pool call, so the call that invalidates the pool
  // is the oracle's too.
  void expect_same(const char* op) {
    ASSERT_EQ(pool_.valid(), ref_.valid()) << "after " << op;
    if (ref_.valid()) {
      ASSERT_EQ(pool_.size(), ref_.size()) << "after " << op;
    }
  }

  // A sparse random candidate set over the alive nodes in compact ids:
  // a path (so the pool starts connected) plus ~1.5 random chords per node.
  void reseed() {
    orig_of_.clear();
    for (int u = 0; u < n_; ++u) {
      if (alive_[u]) orig_of_.push_back(u);
    }
    const int m = static_cast<int>(orig_of_.size());
    edges_.clear();
    for (int c = 0; c + 1 < m; ++c) edges_.emplace_back(c, c + 1);
    for (int i = 0; i < m + m / 2; ++i) {
      const int a = pick(m), b = pick(m);
      if (a != b) edges_.emplace_back(a, b);
    }
    pool_.seed(edges_, orig_of_);
    ref_.seed(edges_, orig_of_);
    expect_same("seed");
  }

  int n_;
  mst::DelaunayEdgePool pool_;
  ReferenceEdgePool ref_;
  std::mt19937_64 rng_;
  std::vector<char> alive_;
  std::vector<int> inserted_;  ///< inserted this batch (still a star)
  std::vector<int> pending_, orig_of_;
  std::vector<std::pair<int, int>> edges_;
};

TEST(EdgePoolDifferential, StarPoolMatchesMaterialisingOracle) {
  Counters total;
  std::uint64_t seed = 1;
  for (const int cap : {3, 6, 12, 64}) {
    for (const double factor : {2.0, 6.0}) {
      const mst::EdgePoolConfig cfg{cap, factor, 32};
      for (const int n : {4, 5, 7, 10, 16, 24, 40, 64, 96, 128}) {
        for (int rep = 0; rep < 3; ++rep) {
          Driver d(n, cfg, seed++);
          for (int b = 0; b < 25; ++b) {
            d.run_batch(total);
            if (testing::Test::HasFatalFailure()) {
              FAIL() << "cap=" << cap << " factor=" << factor << " n=" << n
                     << " seed=" << seed - 1 << " batch=" << b;
            }
          }
        }
      }
    }
  }
  // The sweep must reach every branch it exists for.
  std::printf("star erases %d (kept %d), invalidations %d, oversized %d, "
              "clean batches %d\n",
              total.star_erases, total.star_erases_kept, total.invalidations,
              total.oversized, total.clean_batches);
  EXPECT_GT(total.star_erases, 100);
  EXPECT_GT(total.star_erases_kept, 50);
  EXPECT_GT(total.invalidations, 50);
  EXPECT_GT(total.oversized, 50);
  EXPECT_GT(total.clean_batches, 200);
}

}  // namespace

namespace {

TEST(EdgePoolDifferential, TrafficLikeBatchesMatchMaterialisingOracle) {
  // Low rates and a loose size guard keep many batches valid, so the
  // staged closure edges, the tombstones and the lazily built index are
  // checked through many erases and a compaction per batch; high rates
  // push a batch past the degree cap in stars, which must invalidate the
  // pool at the oracle's call.
  Counters total;
  std::uint64_t seed = 1000;
  for (const int cap : {6, 16, 64}) {
    for (const double factor : {6.0, 1000.0}) {
      for (const int n : {60, 150, 240}) {
        for (const double move : {0.01, 0.05, 0.2}) {
          Driver d(n, {cap, factor, 32}, seed++);
          for (int b = 0; b < 6; ++b) {
            d.run_traffic_batch(0.02, move, 0.3, total);
            if (testing::Test::HasFatalFailure()) {
              FAIL() << "cap=" << cap << " factor=" << factor << " n=" << n
                     << " move=" << move << " seed=" << seed - 1
                     << " batch=" << b;
            }
          }
        }
      }
    }
  }
  std::printf("star erases %d (kept %d), invalidations %d, oversized %d, "
              "clean batches %d, over-cap batches %d\n",
              total.star_erases, total.star_erases_kept, total.invalidations,
              total.oversized, total.clean_batches, total.over_cap_batches);
  EXPECT_GT(total.invalidations, 20);
  EXPECT_GT(total.over_cap_batches, 10);
  EXPECT_GT(total.clean_batches, 40);
}

}  // namespace

namespace {

TEST(EdgePoolDifferential, RadixSeedMatchesSortedOracle) {
  // The seed packs each edge as (min << w | max) and radix-sorts the keys;
  // the pool must come out exactly as std::sort + unique of the (min, max)
  // pairs leaves it.  Edges repeat in both orientations, and the original
  // ids are sparse up to ~2^22, so the keys span several radix digits; one
  // pair of borrowed buffers serves every seed, of growing and shrinking
  // size.
  std::mt19937_64 rng(77);
  std::vector<std::uint64_t> keys;
  dirant::RadixScratch radix;
  for (const int n : {2, 3, 50, 700, 4000, 90}) {
    std::vector<int> orig_of;
    int id = static_cast<int>(rng() % 5);
    for (int c = 0; c < n; ++c) {
      orig_of.push_back(id);
      id += 1 + static_cast<int>(rng() % (c % 3 == 0 ? 2000 : 3));
    }
    std::vector<std::pair<int, int>> edges;
    for (int i = 0; i < 3 * n; ++i) {
      const int a = static_cast<int>(rng() % n);
      int b = static_cast<int>(rng() % n);
      if (a == b) b = (b + 1) % n;
      edges.emplace_back(a, b);
      if (i % 4 == 0) edges.emplace_back(b, a);  // the same edge again
    }
    mst::DelaunayEdgePool pool;
    ReferenceEdgePool ref;
    pool.seed(edges, orig_of, keys, radix);
    ref.seed(edges, orig_of);
    const auto got = pool.edges();
    const auto want = ref.edges();
    ASSERT_EQ(got.size(), want.size()) << "n=" << n;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin())) << "n=" << n;
    EXPECT_EQ(pool.size(), want.size()) << "n=" << n;
  }
}

}  // namespace
