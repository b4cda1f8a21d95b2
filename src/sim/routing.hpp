#pragma once
/// \file routing.hpp
/// Greedy geographic routing over the oriented network — the workload
/// directional sensor networks actually run.  A packet at u destined for t
/// is forwarded to the out-neighbour closest to t; it fails if no neighbour
/// makes progress (a routing void) or the TTL expires.

#include <span>

#include "geometry/point.hpp"
#include "graph/digraph.hpp"

namespace dirant::sim {

struct RouteResult {
  bool delivered = false;
  int hops = 0;
};

/// Route one packet greedily from `src` to `dst`.
RouteResult greedy_route(const graph::Digraph& g,
                         std::span<const geom::Point> pts, int src, int dst,
                         int ttl = -1);

/// Greedy routing over sampled (src, dst) pairs
/// (`AuditSession::routing_stats`).
struct RoutingStats {
  double delivery_rate = 0.0;
  double mean_hops = 0.0;        ///< over delivered packets
  double mean_stretch = 0.0;     ///< greedy hops / BFS hops, delivered only
  int attempted = 0;
};

}  // namespace dirant::sim
