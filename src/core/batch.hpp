#pragma once
/// \file batch.hpp
/// Batched orientation — the front door for Monte-Carlo and fleet
/// workloads (many independent instances through the same (k, phi) spec).
/// A thin fan-out over par::run_indexed on the global pool: each thread
/// streams the instances it claims through one warm core::PlanSession
/// (core/session.hpp), which owns every piece of pipeline scratch — nothing
/// crosses threads, and after a thread's first instance the only heap
/// traffic is the per-item result copy-out.

#include <span>
#include <vector>

#include "core/types.hpp"
#include "core/validate.hpp"
#include "geometry/point.hpp"

namespace dirant::core {

struct BatchOptions {
  bool parallel = true;  ///< fan out over the global thread pool
  bool certify = false;  ///< also run the independent certifier per instance
  /// Per-instance certification parallelism (PlanSession::set_threads on
  /// each worker session).  1 = serial, allocation-free certify (default);
  /// > 1 shards the certification digraph build — identical results,
  /// intended for certify-dominated batches of LARGE instances.  Combined
  /// with `parallel` this oversubscribes (workers × certify_threads
  /// threads); prefer instance-level fan-out unless individual instances
  /// are big enough to need intra-instance parallelism.
  int certify_threads = 1;
};

/// One per-instance record of a batch run.
struct BatchItem {
  Result result;
  Certificate certificate;  ///< meaningful iff BatchOptions::certify
  double wall_ms = 0.0;     ///< this instance's pipeline time (EMST+orient)
};

/// Orient every instance under `spec`.  Results are positionally aligned
/// with `instances`; identical to calling `orient` in a loop (the fan-out
/// never changes outputs, only wall-clock).
std::vector<BatchItem> orient_batch(
    std::span<const std::vector<geom::Point>> instances,
    const ProblemSpec& spec, const BatchOptions& options = {});

}  // namespace dirant::core
