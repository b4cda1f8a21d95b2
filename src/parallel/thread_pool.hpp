#pragma once
/// \file thread_pool.hpp
/// Fixed-size thread pool with one allocation-free fan-out mechanism:
/// `run_job` installs a (function pointer, context, count) job in a single
/// slot and the workers plus the calling thread claim indices off a shared
/// atomic counter.  `run_indexed` is the typed front end every pooled path
/// uses (the sharded digraph build, the audit probe and failure-trial
/// fan-outs, core::orient_batch).
///
/// Design notes (HPC-parallel house style): explicit parallelism with plain
/// std::thread, no detached threads, join-on-destruction (RAII), exceptions
/// from job bodies are captured and rethrown on the calling thread.

#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace dirant::par {

class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, >= 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned thread_count() const { return static_cast<unsigned>(workers_.size()); }

  /// Runs `fn(ctx, i)` for every i in [0, count), with workers AND the
  /// calling thread claiming indices off a shared atomic counter.  No
  /// per-task closure is heap-allocated — the job is one function pointer +
  /// context installed in a fixed slot — so the zero-allocation steady-state
  /// paths can fan out without touching the allocator.  Blocks until every
  /// index has run; rethrows the first captured exception.  One job at a
  /// time per pool: job bodies must not call run_job on the same pool.
  void run_job(void (*fn)(void*, int), void* ctx, int count);

 private:
  void worker_loop();
  /// Claim-and-run loop shared by workers and the run_job caller.  Returns
  /// the number of indices this thread completed.
  int drain_job(void (*fn)(void*, int), void* ctx, int count);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  bool stopping_ = false;
  std::exception_ptr first_error_;

  // Fixed run_job slot.  fn/ctx/count are written under mu_ before workers
  // are woken.  A worker joins a job by bumping job_active_ under mu_ (in
  // the same critical section that snapshots the slot) and leaves it by
  // decrementing under mu_ after draining; the caller clears the slot only
  // once job_remaining_ == 0 AND job_active_ == 0.  So no worker can still
  // be inside drain_job when the next run_job resets job_next_ — a stale
  // worker can never claim a later job's indices with an earlier job's
  // fn/ctx/count.
  void (*job_fn_)(void*, int) = nullptr;
  void* job_ctx_ = nullptr;
  int job_count_ = 0;
  int job_remaining_ = 0;          ///< indices not yet completed (under mu_)
  int job_active_ = 0;             ///< workers inside drain_job (under mu_)
  std::atomic<int> job_next_{0};   ///< next unclaimed index
};

/// Shared process-wide pool (lazily constructed).
ThreadPool& global_pool();

/// Session thread-knob policy, shared by PlanSession::set_threads and
/// AuditSession::set_threads: clamps `threads` to >= 1 and makes `pool`
/// match — reset when serial (<= 1), spawn or resize to exactly that many
/// workers otherwise.  Returns the clamped count.
int ensure_pool(std::unique_ptr<ThreadPool>& pool, int threads);

/// Runs `body(i)` for i in [0, count): through `pool->run_job` when the pool
/// can actually run them concurrently, inline otherwise.  The callable is
/// passed by address into a capture-free trampoline, so the pooled fan-out
/// performs zero heap allocations.  Both execution modes run the identical
/// body in index order or interleaved — callers own determinism by making
/// each index's work independent.
template <typename F>
void run_indexed(ThreadPool* pool, int count, F&& body) {
  if (pool == nullptr || pool->thread_count() <= 1 || count <= 1) {
    for (int i = 0; i < count; ++i) body(i);
    return;
  }
  using Body = std::remove_reference_t<F>;
  void* ctx = const_cast<void*>(static_cast<const void*>(std::addressof(body)));
  pool->run_job([](void* c, int i) { (*static_cast<Body*>(c))(i); }, ctx,
                count);
}

}  // namespace dirant::par
