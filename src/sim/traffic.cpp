#include "sim/traffic.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace dirant::sim {

namespace {

std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kStreamStep = 0x9e3779b97f4a7c15ULL;

/// NaN-safe probability check: the negated comparison rejects NaN along
/// with anything outside [0, 1].
bool bad_prob(double x) { return !(x >= 0.0 && x <= 1.0); }

/// Rejects degenerate knobs with a structured error before any engine
/// state is touched.  Every rejected combination here used to produce
/// silently wrong behaviour: service_ticks == 0 collapses contention
/// delay, ack_timeout == 0 with retries schedules a retry storm at the
/// same tick, TTL 0 drops everything as "ttl", out-of-range probabilities
/// bias every loss draw.
void validate_options(const TrafficOptions& o) {
  if (o.queue_capacity <= 0) {
    throw TrafficOptionsError("queue_capacity", "must be positive");
  }
  if (o.ttl <= 0) {
    throw TrafficOptionsError("ttl", "must be positive");
  }
  if (o.service_ticks == 0) {
    throw TrafficOptionsError("service_ticks", "must be positive");
  }
  if (o.arq.max_retries < 0) {
    throw TrafficOptionsError("arq.max_retries", "must be non-negative");
  }
  if (o.arq.max_retries > 0 && o.arq.ack_timeout == 0) {
    throw TrafficOptionsError("arq.ack_timeout",
                              "retrying ARQ needs a nonzero timeout");
  }
  switch (o.loss.kind) {
    case LossKind::kNone:
      break;
    case LossKind::kBernoulli:
      if (bad_prob(o.loss.p)) {
        throw TrafficOptionsError("loss.p", "probability outside [0, 1]");
      }
      break;
    case LossKind::kGilbertElliott:
      if (bad_prob(o.loss.p)) {
        throw TrafficOptionsError("loss.p", "probability outside [0, 1]");
      }
      if (bad_prob(o.loss.p_bad)) {
        throw TrafficOptionsError("loss.p_bad", "probability outside [0, 1]");
      }
      if (bad_prob(o.loss.p_good_to_bad)) {
        throw TrafficOptionsError("loss.p_good_to_bad",
                                  "probability outside [0, 1]");
      }
      if (bad_prob(o.loss.p_bad_to_good)) {
        throw TrafficOptionsError("loss.p_bad_to_good",
                                  "probability outside [0, 1]");
      }
      break;
  }
  if (!(o.battery.capacity >= 0.0)) {
    throw TrafficOptionsError("battery.capacity", "must be non-negative");
  }
  if (!(o.battery.per_packet_scale >= 0.0)) {
    throw TrafficOptionsError("battery.per_packet_scale",
                              "must be non-negative");
  }
}

}  // namespace

TrafficEngine::TrafficEngine() = default;
TrafficEngine::~TrafficEngine() = default;

void TrafficEngine::bind(std::span<const geom::Point> pts,
                         const antenna::Orientation& o,
                         const mst::Tree* tree) {
  DIRANT_ASSERT(static_cast<int>(pts.size()) == o.size());
  DIRANT_ASSERT(tree == nullptr || tree->n == static_cast<int>(pts.size()));
  churn_ = nullptr;
  orient_ = &o;
  tree_ = tree;
  n_ = static_cast<int>(pts.size());
  graph_ = &audit_.load(pts, o);
  if (tree_) tree_->adjacency_into(tree_adj_);
}

void TrafficEngine::bind_graph(const graph::Digraph& g) {
  churn_ = nullptr;
  orient_ = nullptr;
  tree_ = nullptr;
  n_ = g.size();
  audit_.bind(g);
  graph_ = &g;
}

void TrafficEngine::attach_churn(ChurnEngine& eng) {
  DIRANT_ASSERT(eng.size() > 0);  // init() first
  churn_ = &eng;
  orient_ = nullptr;
  tree_ = nullptr;
  n_ = eng.size();
  graph_ = &eng.certified_digraph();
}

double TrafficEngine::battery_charge(int u) const {
  DIRANT_ASSERT(u >= 0 && u < static_cast<int>(battery_.size()));
  return battery_[u];
}

void TrafficEngine::set_threads(int threads) { audit_.set_threads(threads); }

// --- randomness ---------------------------------------------------------

double TrafficEngine::u01() {
  const std::uint64_t z = splitmix64(rng_state_ + kStreamStep * ++rng_ctr_);
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

std::uint64_t TrafficEngine::jitter_draw(std::uint64_t bound) {
  if (bound == 0) return 0;
  return splitmix64(rng_state_ + kStreamStep * ++rng_ctr_) % bound;
}

bool TrafficEngine::frame_lost(int edge_pos) {
  switch (opts_.loss.kind) {
    case LossKind::kNone:
      return false;
    case LossKind::kBernoulli:
      return u01() < opts_.loss.p;
    case LossKind::kGilbertElliott: {
      char& s = link_state_[edge_pos];
      const bool lost = u01() < (s ? opts_.loss.p_bad : opts_.loss.p);
      // One Markov step per frame; always two draws, so the stream
      // position is a pure function of the frame sequence.
      const double t = u01();
      s = s ? (t < opts_.loss.p_bad_to_good ? 0 : 1)
            : (t < opts_.loss.p_good_to_bad ? 1 : 0);
      return lost;
    }
  }
  return false;
}

// --- packet plumbing ----------------------------------------------------

int TrafficEngine::acquire_slot() {
  if (!free_slots_.empty()) {
    const int s = free_slots_.back();
    free_slots_.pop_back();
    slot_live_[s] = 1;
    return s;
  }
  pool_.push_back({});
  slot_live_.push_back(1);
  return static_cast<int>(pool_.size()) - 1;
}

int TrafficEngine::try_enqueue(std::uint64_t now, int logical, int node,
                               int dst, int hops) {
  NodeState& ns = node_[node];
  if (ns.qlen >= opts_.queue_capacity) return -1;
  const int s = acquire_slot();
  Packet& p = pool_[s];
  p.logical = logical;
  p.node = node;
  p.dst = dst;
  p.attempts = 0;
  p.hops = hops;
  ++ns.qlen;
  ++log_copies_[logical];
  // The radio serialises departures: a burst pays contention delay.
  const std::uint64_t t = std::max(now, ns.busy_until) + opts_.service_ticks;
  ns.busy_until = t;
  push_event(t, EventKind::kTransmit, s, static_cast<int>(p.gen));
  return s;
}

void TrafficEngine::finish_copy(int slot) {
  Packet& p = pool_[slot];
  --node_[p.node].qlen;
  --log_copies_[p.logical];
  slot_live_[slot] = 0;
  ++p.gen;  // invalidates any event still pointing at this slot
  free_slots_.push_back(slot);
}

void TrafficEngine::resolve_logical(int logical, long long* cause) {
  if (cause && log_copies_[logical] == 0 && !log_delivered_[logical]) {
    ++*cause;
  }
}

void TrafficEngine::deliver(std::uint64_t now, int logical) {
  if (log_delivered_[logical]) {
    ++report_.duplicates;
    return;
  }
  log_delivered_[logical] = 1;
  ++report_.delivered;
  latencies_.push_back(now - log_born_[logical]);
}

void TrafficEngine::drain_transmit_energy(int u) {
  if (opts_.battery.capacity <= 0.0) return;
  report_.energy_drained += drain_battery(battery_[u], tx_cost_[u]);
  if (battery_[u] <= 0.0 && !node_[u].battery_dead) {
    node_[u].battery_dead = 1;
    node_[u].alive = 0;  // leaves the alive set; routes are NOT rebuilt —
                         // neighbours discover the death through lost frames
    ++report_.battery_dead;
  }
}

// --- routing ------------------------------------------------------------

int TrafficEngine::edge_position(int u, int v) const {
  const auto row = graph_->out(u);
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i] == v) return graph_->out_offset(u) + static_cast<int>(i);
  }
  return -1;
}

int TrafficEngine::tree_hop(int s, int u, int& edge_pos) {
  Hop& h = tree_memo_[static_cast<size_t>(s) * n_ + u];
  if (h.epos == kUnknownEdge) h.epos = h.v >= 0 ? edge_position(u, h.v) : -1;
  edge_pos = h.epos;
  // A tree hop without a live CSR edge is a routing void, same as no hop.
  return h.epos >= 0 ? h.v : -1;
}

void TrafficEngine::rebuild_routes() {
  const int nd = static_cast<int>(dsts_.size());
  const size_t cells = static_cast<size_t>(nd) * n_;
  tree_memo_.assign(cells, Hop{-1, kUnknownEdge});
  // Route targets per destination slot, bucketed by slot: every source
  // of a flow that offers packets to it (future injections start there)
  // and the holder of every live copy bound for it.  Until the next
  // rebuild a packet only moves to a hop one step closer to its
  // destination (an ARQ retry stays put), so it never reaches a node
  // farther than the farthest target.
  auto& off = route_off_;
  auto& targets = route_targets_;
  off.assign(static_cast<size_t>(nd) + 1, 0);
  for (const Flow& fl : schedule_->flows) {
    if (fl.packets > 0) ++off[dst_slot_of_[fl.dst] + 1];
  }
  for (int c = 0; c < static_cast<int>(pool_.size()); ++c) {
    if (slot_live_[c]) ++off[dst_slot_of_[pool_[c].dst] + 1];
  }
  for (int s = 0; s < nd; ++s) off[s + 1] += off[s];
  targets.resize(off[nd]);
  for (const Flow& fl : schedule_->flows) {
    if (fl.packets > 0) targets[off[dst_slot_of_[fl.dst]]++] = fl.src;
  }
  for (int c = 0; c < static_cast<int>(pool_.size()); ++c) {
    if (slot_live_[c]) {
      targets[off[dst_slot_of_[pool_[c].dst]]++] = pool_[c].node;
    }
  }
  for (int s = nd; s > 0; --s) off[s] = off[s - 1];
  off[0] = 0;

  dist_.assign(n_, -1);
  route_mark_.assign(n_, 0);
  for (int s = 0; s < nd; ++s) {
    const int dst = dsts_[s];
    Hop* next = tree_memo_.data() + static_cast<size_t>(s) * n_;
    if (!node_alive(dst)) {
      stranded_mask_[dst] = 1;
      continue;
    }
    // Mark the distinct targets other than dst itself.
    int pending = 0;
    for (int k = off[s]; k < off[s + 1]; ++k) {
      const int u = targets[k];
      if (u != dst && !route_mark_[u]) {
        route_mark_[u] = 1;
        ++pending;
      }
    }
    // BFS toward dst, stopping once every target is discovered and the
    // last one's level L >= 1 is complete: only nodes with dist < L are
    // expanded.  L >= 1 keeps `reachable` exact (level 1 is always
    // discovered); an unreachable target runs the BFS to exhaustion.
    int stop = pending == 0 ? 1 : -1;
    const auto bfs = [&](auto&& in_neighbours, bool record_parent) {
      auto& q = bfs_.queue;
      q.clear();
      q.push_back(dst);
      dist_[dst] = 0;
      for (size_t h = 0; h < q.size(); ++h) {
        const int x = q[h];
        if (stop >= 0 && dist_[x] >= stop) break;
        for (int y : in_neighbours(x)) {
          if (dist_[y] >= 0) continue;
          dist_[y] = dist_[x] + 1;
          if (record_parent) next[y].v = x;
          q.push_back(y);
          if (route_mark_[y] && --pending == 0) {
            stop = std::max(dist_[y], 1);
          }
        }
      }
    };
    bool reachable = false;
    if (tree_ != nullptr) {
      // Static mode with a recorded orientation tree: hop toward the BFS
      // parent on the tree path to dst.
      bfs([&](int x) -> const std::vector<int>& { return tree_adj_[x]; },
          true);
      reachable = bfs_.queue.size() > 1;
    } else {
      // BFS in-tree of the certified digraph: distances-to-dst via the
      // transpose; next hop = first out-neighbour one step closer.  Every
      // discovered node's distance is final, and every node one step
      // closer than a discovered one is discovered, so the scan over the
      // discovered nodes picks the hops a full BFS would.  In churn mode
      // the engine keeps that transpose already (in-lists ascending,
      // exactly `reversed_into`), patched with its digraph.
      const graph::Digraph& gt = churn_ != nullptr
                                     ? churn_->certified_transpose()
                                     : audit_.transpose();
      bfs([&](int x) { return gt.out(x); }, false);
      for (const int u : bfs_.queue) {
        const int du = dist_[u];
        if (du <= 0) continue;  // dst itself
        for (int v : graph_->out(u)) {
          if (dist_[v] == du - 1) {
            next[u].v = v;
            reachable = true;
            break;
          }
        }
      }
    }
    for (const int u : bfs_.queue) dist_[u] = -1;
    for (int k = off[s]; k < off[s + 1]; ++k) route_mark_[targets[k]] = 0;
    if (!reachable) {
      // Alive but unreachable from everyone: stranded, if anyone else is
      // around to want it.
      for (int u = 0; u < n_; ++u) {
        if (u != dst && node_alive(u)) {
          stranded_mask_[dst] = 1;
          break;
        }
      }
    }
  }
}

void TrafficEngine::refresh_topology() {
  if (churn_ != nullptr) {
    graph_ = &churn_->certified_digraph();
    const auto& ca = churn_->alive();
    // Only the liveness fields refresh: qlen/busy_until carry the
    // in-flight forwarding state across a mid-run rebuild.
    for (int u = 0; u < n_; ++u) {
      if (ca[u] && !prev_alive_[u]) {
        // Recovered nodes rejoin with a full battery.
        battery_[u] = opts_.battery.capacity;
        node_[u].battery_dead = 0;
      }
      prev_alive_[u] = ca[u];
      node_[u].alive = ca[u] && !node_[u].battery_dead;
    }
    tx_cost_.assign(n_, opts_.battery.per_packet_scale);
    const auto& o = churn_->last_result().orientation;
    for (int u = 0; u < n_; ++u) {
      if (!ca[u]) continue;
      tx_cost_[u] = opts_.battery.per_packet_scale *
                    node_transmit_energy(o, u, opts_.energy);
    }
  } else {
    for (int u = 0; u < n_; ++u) node_[u].alive = 1;
    tx_cost_.assign(n_, opts_.battery.per_packet_scale);
    if (orient_ != nullptr) {
      for (int u = 0; u < n_; ++u) {
        tx_cost_[u] *= node_transmit_energy(*orient_, u, opts_.energy);
      }
    }
  }
  // Edge identities changed with the CSR: all links restart Good.
  link_state_.assign(graph_->edge_count(), 0);
}

// --- event handlers -----------------------------------------------------

void TrafficEngine::handle_inject(std::uint64_t now, int flow) {
  const Flow& fl = schedule_->flows[flow];
  const int seq = next_seq_[flow]++;
  if (seq + 1 < fl.packets) {
    push_event(now + fl.interval, EventKind::kInject, flow, 0);
  }
  const int logical = flow_off_[flow] + seq;
  ++report_.offered;
  log_born_[logical] = now;

  if (!node_alive(fl.dst)) {
    stranded_mask_[fl.dst] = 1;
    resolve_logical(logical, &report_.drop_stranded);
    return;
  }
  if (!node_alive(fl.src)) {
    resolve_logical(logical, &report_.drop_stranded);
    return;
  }
  if (fl.src == fl.dst) {
    deliver(now, logical);
    return;
  }

  if (try_enqueue(now, logical, fl.src, fl.dst, 0) < 0) {
    resolve_logical(logical, &report_.drop_queue);
  }
}

void TrafficEngine::handle_churn(std::uint64_t, int batch) {
  DIRANT_ASSERT(churn_ != nullptr);
  churn_->step(schedule_->churn[batch].events);
  // In-flight packets at nodes that just died are lost.
  const auto& ca = churn_->alive();
  for (int s = 0; s < static_cast<int>(pool_.size()); ++s) {
    if (!slot_live_[s]) continue;
    const int u = pool_[s].node;
    if (ca[u]) continue;
    const int logical = pool_[s].logical;
    finish_copy(s);
    resolve_logical(logical, node_[u].battery_dead ? &report_.drop_battery
                                                   : &report_.drop_churn);
  }
  refresh_topology();
  rebuild_routes();
}

void TrafficEngine::arq_failure(std::uint64_t now, int slot) {
  Packet& p = pool_[slot];
  ++p.attempts;
  const ArqOptions& arq = opts_.arq;
  if (p.attempts <= arq.max_retries) {
    const int sh = std::min(p.attempts - 1, 30);
    const std::uint64_t backoff =
        arq.backoff_base == 0
            ? 0
            : std::min(arq.backoff_cap, arq.backoff_base << sh);
    push_event(now + arq.ack_timeout + backoff + jitter_draw(arq.jitter),
               EventKind::kTransmit, slot, static_cast<int>(p.gen));
    return;
  }
  const int logical = p.logical;
  finish_copy(slot);
  resolve_logical(logical, &report_.drop_retry);
}

void TrafficEngine::handle_unicast(std::uint64_t now, int slot, Packet& p) {
  const int logical = p.logical;
  const int u = p.node;
  const int dst = p.dst;
  if (p.hops + 1 > opts_.ttl) {
    finish_copy(slot);
    resolve_logical(logical, &report_.drop_ttl);
    return;
  }

  int epos = -1;
  const int v = tree_hop(dst_slot_of_[dst], u, epos);
  if (v < 0) {
    finish_copy(slot);
    resolve_logical(logical, &report_.drop_no_route);
    return;
  }

  // Data frame.
  ++report_.transmissions;
  if (p.attempts > 0) ++report_.retransmissions;
  drain_transmit_energy(u);
  const int hops = p.hops + 1;

  const bool frame_ok = node_alive(v) && !frame_lost(epos);
  if (!frame_ok) {
    ++report_.frames_lost;
    arq_failure(now, slot);
    return;
  }
  // Ack comes back on the same link.
  const bool ack_ok = !frame_lost(epos);
  if (ack_ok) {
    finish_copy(slot);  // the copy departs u ...
    if (v == dst) {
      deliver(now, logical);  // ... and is consumed at the destination
      return;
    }
    if (try_enqueue(now, logical, v, dst, hops) < 0) {
      resolve_logical(logical, &report_.drop_queue);
    }
    return;
  }
  // Lost ack: the receiver HAS the frame.  The sender, none the wiser,
  // retransmits; the receiver recognises the (flow, seq) duplicate,
  // suppresses it without forwarding, and re-acks — per-hop duplicate
  // suppression is what keeps a lossy multi-hop path from breeding copy
  // storms (a forwarded duplicate per lost ack compounds to ~1.2^hops
  // copies and congestion-collapses every queue on a long path).  The
  // exchange is charged as one deterministic extra transmission; the
  // re-ack is assumed to arrive, a second-order loss this model ignores.
  ++report_.acks_lost;
  if (opts_.arq.max_retries > 0) {
    // The duplicate-suppressing exchange only happens when the sender
    // actually retransmits; a no-retry sender just moves on, unaware.
    ++report_.duplicates;
    ++report_.transmissions;
    ++report_.retransmissions;
    drain_transmit_energy(u);
  }
  finish_copy(slot);  // the sender's copy departs u once the re-ack lands
  if (v == dst) {
    deliver(now, logical);
    return;
  }
  if (try_enqueue(now, logical, v, dst, hops) < 0) {
    resolve_logical(logical, &report_.drop_queue);
  }
}

// --- run ----------------------------------------------------------------

const TrafficReport& TrafficEngine::run(const TrafficSchedule& schedule,
                                        const TrafficOptions& opts) {
  DIRANT_ASSERT(graph_ != nullptr);  // bind/bind_graph/attach_churn first
  DIRANT_ASSERT(schedule.churn.empty() || churn_ != nullptr);
  validate_options(opts);
  schedule_ = &schedule;
  opts_ = opts;

  // Reset the report in place (stranded keeps its capacity — the warm
  // zero-alloc contract).
  const TrafficReport zero{};
  auto stranded = std::move(report_.stranded);
  report_ = zero;
  stranded.clear();
  report_.stranded = std::move(stranded);

  rng_state_ = splitmix64(opts.seed ^ 0x5bf0'3635'dea8'f7cdULL);
  rng_ctr_ = 0;

  // Per-node state.
  battery_.assign(n_, opts.battery.capacity);
  node_.assign(n_, NodeState{});
  stranded_mask_.assign(n_, 0);
  prev_alive_.assign(n_, 1);
  if (churn_ != nullptr) {
    const auto& ca = churn_->alive();
    for (int u = 0; u < n_; ++u) prev_alive_[u] = ca[u];
  }
  refresh_topology();

  // Per-flow / per-logical-packet state.
  const int flows = static_cast<int>(schedule.flows.size());
  flow_off_.assign(static_cast<size_t>(flows) + 1, 0);
  for (int f = 0; f < flows; ++f) {
    const Flow& fl = schedule.flows[f];
    DIRANT_ASSERT(fl.src >= 0 && fl.src < n_ && fl.dst >= 0 && fl.dst < n_);
    flow_off_[f + 1] = flow_off_[f] + std::max(0, fl.packets);
  }
  const int total = flow_off_[flows];
  next_seq_.assign(flows, 0);
  log_delivered_.assign(total, 0);
  log_copies_.assign(total, 0);
  log_born_.assign(total, 0);
  latencies_.clear();
  latencies_.reserve(total);

  // Distinct destinations of flows that offer packets -> collection-tree
  // slots.
  dst_slot_of_.assign(n_, -1);
  dsts_.clear();
  for (const Flow& fl : schedule.flows) {
    if (fl.packets > 0 && dst_slot_of_[fl.dst] < 0) {
      dst_slot_of_[fl.dst] = static_cast<int>(dsts_.size());
      dsts_.push_back(fl.dst);
    }
  }
  pool_.clear();
  slot_live_.clear();
  free_slots_.clear();
  rebuild_routes();

  // Seed the event queue.
  queue_.reset();
  for (int b = 0; b < static_cast<int>(schedule.churn.size()); ++b) {
    push_event(schedule.churn[b].tick, EventKind::kChurn, b, 0);
  }
  for (int f = 0; f < flows; ++f) {
    if (schedule.flows[f].packets > 0) {
      push_event(schedule.flows[f].start, EventKind::kInject, f, 0);
    }
  }

  // The loop.  Serial by design: the wheel pops a strict (tick, seq)
  // total order, so the run is a pure function of (topology, schedule,
  // seed).
  while (!queue_.empty()) {
    const EventQueue::Item e = queue_.pop();
    ++report_.events;
    const int a = static_cast<int>(e.data & 0x3fffffffu);
    switch (static_cast<EventKind>(e.data >> 30)) {
      case EventKind::kInject:
        handle_inject(e.tick, a);
        break;
      case EventKind::kTransmit: {
        if (a >= static_cast<int>(pool_.size()) || !slot_live_[a]) break;
        Packet& p = pool_[a];
        if (p.gen != e.aux) break;  // stale generation
        if (!node_alive(p.node)) {
          const int logical = p.logical;
          long long* cause = node_[p.node].battery_dead
                                 ? &report_.drop_battery
                                 : &report_.drop_churn;
          finish_copy(a);
          resolve_logical(logical, cause);
          break;
        }
        handle_unicast(e.tick, a, p);
        break;
      }
      case EventKind::kChurn:
        handle_churn(e.tick, a);
        break;
    }
  }

  // Finalize.
  report_.delivery_ratio =
      report_.offered > 0
          ? static_cast<double>(report_.delivered) / report_.offered
          : 0.0;
  std::sort(latencies_.begin(), latencies_.end());
  const auto pct = [&](double q) -> std::uint64_t {
    if (latencies_.empty()) return 0;
    const auto idx = static_cast<size_t>(
        std::llround(q * static_cast<double>(latencies_.size() - 1)));
    return latencies_[idx];
  };
  report_.p50_latency = pct(0.50);
  report_.p99_latency = pct(0.99);
  for (int u = 0; u < n_; ++u) {
    if (stranded_mask_[u]) report_.stranded.push_back(u);
  }
  int alive_end = 0;
  for (int u = 0; u < n_; ++u) alive_end += node_alive(u) ? 1 : 0;
  report_.alive_end = alive_end;
  if (churn_ != nullptr) {
    const auto& ca = churn_->alive();
    int killed = 0;
    for (int u = 0; u < n_; ++u) killed += ca[u] ? 0 : 1;
    report_.churn_killed = killed;
  }
  schedule_ = nullptr;
  return report_;
}

}  // namespace dirant::sim
