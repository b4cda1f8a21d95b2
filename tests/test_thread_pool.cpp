// par::ThreadPool — the single run_job slot every pooled path fans out
// through.  Coverage, exception propagation, back-to-back reuse, and a
// timed slot stress test: several caller threads each drive their own pool
// through short back-to-back jobs and check that every index of every job
// ran exactly once, inside the job's count, under that job's description.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace par = dirant::par;

namespace {

TEST(ThreadPool, RunIndexedCoversRangeOnce) {
  par::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  par::run_indexed(&pool, 1000, [&](int i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionsPropagateAndPoolStaysUsable) {
  par::ThreadPool pool(4);
  EXPECT_THROW(par::run_indexed(&pool, 100,
                                [&](int i) {
                                  if (i == 57) throw std::runtime_error("x");
                                }),
               std::runtime_error);
  std::atomic<int> count{0};
  par::run_indexed(&pool, 10, [&](int) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, BackToBackJobs) {
  par::ThreadPool pool(2);
  std::atomic<int> done{0};
  int expected = 0;
  for (int j = 0; j < 50; ++j) {
    const int count = 2 + j % 5;
    par::run_indexed(&pool, count, [&](int) { ++done; });
    expected += count;
    ASSERT_EQ(done.load(), expected) << "job " << j;
  }
}

// ---- slot stress ---------------------------------------------------------

constexpr int kMinCount = 2;
constexpr int kMaxCount = 6;
/// Ledger width: every index any job can claim, so an index run past a
/// (shorter) job's count still lands in a slot the check reads.
constexpr int kSlots = kMaxCount;
/// Job descriptions live in a ring that outlives the pool, so even a worker
/// holding a stale description dereferences valid memory and its writes
/// show up in the ledger instead of corrupting a dead stack frame.
constexpr int kRing = 64;

struct Ledger {
  std::array<std::atomic<int>, kSlots> runs{};
  std::array<std::atomic<long long>, kSlots> ran_by{};
};

struct Job {
  Ledger* ledger = nullptr;
  long long id = 0;
};

void stamp(void* ctx, int i) {
  const auto* job = static_cast<const Job*>(ctx);
  job->ledger->runs[i].fetch_add(1);
  job->ledger->ran_by[i].store(job->id);
}

/// One stress caller.  Member order matters: the pool is destroyed (its
/// workers joined) before the ledger and ring it may still reference.
struct Caller {
  Ledger ledger;
  std::array<Job, kRing> ring;
  par::ThreadPool pool;
  explicit Caller(unsigned workers) : pool(workers) {}
};

/// Drives the caller's pool through back-to-back jobs until `deadline`;
/// returns the number of jobs run, or stops at the first violation and
/// describes it in `failure`.
long long drive(Caller& caller, std::chrono::steady_clock::time_point deadline,
                std::string& failure) {
  Ledger& ledger = caller.ledger;
  long long id = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    for (int rep = 0; rep < 256; ++rep, ++id) {
      const int count =
          kMinCount + static_cast<int>(id % (kMaxCount - kMinCount + 1));
      Job& job = caller.ring[static_cast<size_t>(id % kRing)];
      job.ledger = &ledger;
      job.id = id;
      caller.pool.run_job(&stamp, &job, count);
      for (int i = 0; i < kSlots; ++i) {
        const int runs = ledger.runs[i].exchange(0);
        const long long by = ledger.ran_by[i].exchange(-1);
        std::string what;
        if (i < count && runs != 1) {
          what = runs == 0 ? "missed" : "ran " + std::to_string(runs) + " times";
        } else if (i < count && by != id) {
          what = "stamped by stale job " + std::to_string(by);
        } else if (i >= count && runs != 0) {
          what = "ran past the job's count";
        }
        if (!what.empty()) {
          failure = "job " + std::to_string(id) + " (count " +
                    std::to_string(count) + ") index " + std::to_string(i) +
                    ": " + what;
          return id;
        }
      }
    }
  }
  return id;
}

// Four callers, each with its own 4-worker pool, for 5 s of back-to-back
// jobs of count 2..6.  Jobs this short finish while workers are still
// waking, which is exactly the window in which a worker could snapshot one
// job and drain the next; a slot that lets that happen either trips the
// ledger or hangs (ctest's TIMEOUT turns the hang into a failure).
TEST(ThreadPool, SlotStressBackToBackShortJobs) {
  constexpr int kCallers = 4;
  constexpr int kWorkers = 4;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::vector<std::string> failures(kCallers);
  std::vector<long long> jobs(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      Caller caller(kWorkers);
      jobs[c] = drive(caller, deadline, failures[c]);
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "caller " << c << ": " << failures[c];
    EXPECT_GT(jobs[c], 0) << "caller " << c;
    std::printf("caller %d: %lld jobs\n", c, jobs[c]);
  }
}

}  // namespace
