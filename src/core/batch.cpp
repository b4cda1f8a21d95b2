#include "core/batch.hpp"

#include <chrono>

#include "common/assert.hpp"
#include "core/session.hpp"
#include "parallel/thread_pool.hpp"

namespace dirant::core {

namespace {

using Clock = std::chrono::steady_clock;

void run_one(const std::vector<geom::Point>& pts, const ProblemSpec& spec,
             const BatchOptions& options, PlanSession& session,
             BatchItem& out) {
  const auto t0 = Clock::now();
  out.result = session.orient(pts, spec);  // copy out of the session arena
  out.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  if (options.certify) {
    // Idempotent when unchanged: the worker session keeps (or drops) its
    // certify pool across the instances it streams.
    session.set_threads(options.certify_threads);
    out.certificate = session.certify(pts, spec);
  }
}

}  // namespace

std::vector<BatchItem> orient_batch(
    std::span<const std::vector<geom::Point>> instances,
    const ProblemSpec& spec, const BatchOptions& options) {
  for (const auto& pts : instances) {
    DIRANT_ASSERT_MSG(!pts.empty(), "empty sensor set in batch");
  }
  std::vector<BatchItem> items(instances.size());
  if (instances.empty()) return items;

  if (!options.parallel || instances.size() == 1) {
    PlanSession session;  // one warm pipeline for the whole run
    for (size_t i = 0; i < instances.size(); ++i) {
      run_one(instances[i], spec, options, session, items[i]);
    }
    return items;
  }

  par::run_indexed(&par::global_pool(), static_cast<int>(instances.size()),
                   [&](int i) {
    // One session per thread: every instance a thread claims streams
    // through that thread's warm pipeline (EMST scratch, orienter arena,
    // certification buffers), so nothing crosses threads and nothing
    // allocates after each thread's first instance — only the per-item
    // result copy-out touches the heap.
    thread_local PlanSession session;
    run_one(instances[static_cast<size_t>(i)], spec, options, session,
            items[static_cast<size_t>(i)]);
  });
  return items;
}

}  // namespace dirant::core
