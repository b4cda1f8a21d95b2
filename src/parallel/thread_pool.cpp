#include "parallel/thread_pool.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace dirant::par {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_job(void (*fn)(void*, int), void* ctx, int count) {
  if (count <= 0) return;
  {
    std::lock_guard lock(mu_);
    DIRANT_ASSERT_MSG(!stopping_, "run_job on stopping pool");
    DIRANT_ASSERT_MSG(job_fn_ == nullptr, "nested run_job on one pool");
    job_fn_ = fn;
    job_ctx_ = ctx;
    job_count_ = count;
    job_remaining_ = count;
    job_next_.store(0, std::memory_order_relaxed);
  }
  cv_task_.notify_all();
  // The calling thread claims indices too: a busy or single-worker pool
  // still makes progress, and the common case finishes without a context
  // switch when the job is smaller than the worker count.
  const int mine = drain_job(fn, ctx, count);
  std::unique_lock lock(mu_);
  job_remaining_ -= mine;
  cv_idle_.wait(lock,
                [this] { return job_remaining_ == 0 && job_active_ == 0; });
  job_fn_ = nullptr;
  job_ctx_ = nullptr;
  job_count_ = 0;
  if (first_error_) {
    auto err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

int ThreadPool::drain_job(void (*fn)(void*, int), void* ctx, int count) {
  int done = 0;
  while (true) {
    const int i = job_next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) return done;
    try {
      fn(ctx, i);
    } catch (...) {
      std::lock_guard lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    ++done;
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock lock(mu_);
  while (true) {
    cv_task_.wait(lock, [this] {
      return stopping_ ||
             (job_fn_ != nullptr &&
              job_next_.load(std::memory_order_relaxed) < job_count_);
    });
    if (stopping_) return;
    // Join the job in the same critical section that snapshots it: the
    // caller cannot clear the slot (or install the next job) until this
    // worker has left again.
    auto* fn = job_fn_;
    void* ctx = job_ctx_;
    const int count = job_count_;
    ++job_active_;
    lock.unlock();
    const int done = drain_job(fn, ctx, count);
    lock.lock();
    job_remaining_ -= done;
    if (--job_active_ == 0 && job_remaining_ == 0) cv_idle_.notify_all();
  }
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

int ensure_pool(std::unique_ptr<ThreadPool>& pool, int threads) {
  threads = std::max(1, threads);
  if (threads <= 1) {
    pool.reset();
  } else if (!pool || pool->thread_count() != static_cast<unsigned>(threads)) {
    pool = std::make_unique<ThreadPool>(static_cast<unsigned>(threads));
  }
  return threads;
}

}  // namespace dirant::par
