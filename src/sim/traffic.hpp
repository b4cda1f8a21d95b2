#pragma once
/// \file traffic.hpp
/// TrafficEngine — packet-level discrete-event simulation over a certified
/// orientation: the "heavy traffic" half of the north star.  Where
/// AuditSession answers *structural* questions (is the digraph strongly
/// connected, how far can a flood reach), the TrafficEngine answers the
/// *protocol* question the multihop literature says dominates real
/// deployments (Georgiou–Nguyen 2015): what fraction of offered traffic
/// survives lossy links, queue contention, battery exhaustion and node
/// churn — and how much of it the ARQ layer (retry / timeout / backoff)
/// claws back.
///
/// The engine is a timestamped event loop (hierarchical timing wheel over
/// integer ticks — see sim/event_queue.hpp — whose FIFO buckets realise
/// the (tick, sequence) total order structurally) above a bound
/// transmission digraph:
///
///   * **Forwarding queues.**  Every node is a single radio with a finite
///     FIFO queue (`TrafficOptions::queue_capacity`).  A packet copy
///     occupies a slot from acceptance until it departs; acceptance when
///     the queue is full is a tail drop, and the radio serialises
///     transmissions (`service_ticks` each), so bursts pay contention
///     delay rather than transmitting in parallel.
///   * **Link loss.**  Seeded Bernoulli or Gilbert–Elliott per-link loss
///     (two-state Markov channel, per-CSR-edge state).  Every draw comes
///     from one engine-owned splitmix64 counter stream advanced in event
///     order, so a run is a pure function of (instance, schedule, seed).
///   * **Hop-by-hop ARQ.**  A transmission is a data frame plus an ack on
///     the same link.  A lost frame (or a frame sent to a dead node)
///     retries after `ack_timeout + backoff + jitter`, with deterministic
///     exponential backoff (base << attempt, capped) and seeded jitter,
///     up to `max_retries`.  A lost *ack* creates a duplicate: the
///     receiver forwards its copy while the sender retries — duplicates
///     are suppressed at the destination by per-flow sequence numbers and
///     reported, never double-delivered.  A per-packet TTL bounds hops.
///   * **Collection-tree routing.**  CTP-style unicast: every hop follows a
///     per-destination collection tree — the recorded orientation tree
///     when one is bound, else the BFS in-tree of the certified digraph.
///     Broadcast reach is a structural question (AuditSession::flood), not
///     a traffic policy.  Greedy geographic forwarding is not one either:
///     on Theorem 3 digraphs each sensor's two narrow sectors aim along
///     MST edges, and the strictly-decreasing rule (sim/routing.hpp, still
///     used by AuditSession) hits a routing void almost at once.
///   * **Energy.**  Every transmission drains the sender's battery by its
///     per-packet sector energy (sim/energy.hpp, clamped at zero — a
///     charge never goes negative).  A node whose battery empties leaves
///     the alive set: packets it holds are lost, frames sent to it are
///     lost, and the report counts battery deaths separately from
///     churn kills.
///   * **Churn.**  A schedule may interleave timed ChurnEngine batches
///     between packet events (`attach_churn`).  A batch re-plans and
///     re-certifies through the attached engine, in-flight packets at
///     failed nodes are lost, collection trees and link states rebuild
///     against the new certified digraph, and destinations that died or
///     became unreachable are reported as stranded in the TrafficReport —
///     degraded delivery is data, never a throw.
///
/// Determinism is the contract, same as everywhere else: the event loop is
/// serial, its pop order is a strict total order, and every thread-
/// sensitive stage underneath (the sharded digraph build, churn
/// recertification) carries its own bit-identity contract —
/// so the whole TrafficReport is bit-identical across repeats and at every
/// thread count (tests/test_traffic.cpp).  Reuse contract: bind once, then
/// `run()` forever; the second and subsequent identical runs on a warm
/// static-topology engine perform zero heap allocations
/// (Traffic.WarmRunIsAllocationFree).  Not thread-safe; one engine per
/// thread.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "antenna/orientation.hpp"
#include "geometry/point.hpp"
#include "graph/digraph.hpp"
#include "graph/traversal.hpp"
#include "mst/tree.hpp"
#include "sim/audit.hpp"
#include "sim/churn.hpp"
#include "sim/energy.hpp"
#include "sim/event_queue.hpp"

namespace dirant::sim {

/// Thrown by TrafficEngine::run when the options are degenerate (zero
/// service time, zero TTL, a retrying ARQ with no timeout, out-of-range
/// loss probabilities, ...).  Structured like io::CsvError: `field()`
/// names the offending knob, and the type still derives from
/// std::runtime_error for existing catch sites.  Validation happens before
/// any engine state is touched, so a rejected run leaves the previous
/// report intact.
class TrafficOptionsError : public std::runtime_error {
 public:
  TrafficOptionsError(std::string field, const std::string& reason)
      : std::runtime_error("TrafficOptions." + field + ": " + reason),
        field_(std::move(field)) {}

  const std::string& field() const { return field_; }

 private:
  std::string field_;
};

/// Always kCollectionTree: collection-tree routing is the only policy.
/// Kept so existing callers that set `TrafficOptions::policy` (perfbench's
/// traffic workload) stay unchanged.
enum class RoutingPolicy {
  kCollectionTree,  ///< every hop follows the per-destination tree
};

enum class LossKind {
  kNone,           ///< ideal links
  kBernoulli,      ///< every frame lost i.i.d. with probability `p`
  kGilbertElliott, ///< two-state Markov channel per link
};

/// Per-link loss model.  Gilbert–Elliott: a link is Good or Bad; a frame is
/// lost with `p` in Good and `p_bad` in Bad, and the state takes one Markov
/// step per frame (`p_good_to_bad` / `p_bad_to_good`).  All links start
/// Good at `run()` and after every churn rebuild (edge identities change
/// with the CSR).
struct LossModel {
  LossKind kind = LossKind::kNone;
  double p = 0.0;
  double p_bad = 0.5;
  double p_good_to_bad = 0.05;
  double p_bad_to_good = 0.25;
};

/// Hop-by-hop ARQ knobs.  `max_retries == 0` is the no-retry baseline: one
/// attempt per hop, loss is final.
struct ArqOptions {
  int max_retries = 4;
  std::uint64_t ack_timeout = 40;   ///< ticks from attempt to retry decision
  std::uint64_t backoff_base = 16;  ///< doubles per attempt: base << (a-1)
  std::uint64_t backoff_cap = 1024; ///< ceiling on the exponential term
  std::uint64_t jitter = 16;        ///< seeded uniform [0, jitter) per retry
};

/// Per-node battery.  `capacity == 0` disables batteries (infinite energy).
/// Each transmission drains `per_packet_scale` times the sender's sector
/// energy (sim/energy.hpp node term; 1.0 when no orientation is bound);
/// charge clamps at zero and an empty battery kills the node.
struct BatteryOptions {
  double capacity = 0.0;
  double per_packet_scale = 1.0;
};

struct TrafficOptions {
  RoutingPolicy policy = RoutingPolicy::kCollectionTree;
  LossModel loss{};
  ArqOptions arq{};
  BatteryOptions battery{};
  EnergyModel energy{};          ///< per-packet cost model (battery scale)
  int queue_capacity = 16;       ///< forwarding slots per node (tail drop)
  std::uint64_t service_ticks = 8;  ///< radio airtime per transmission
  int ttl = 64;                  ///< max hops per packet copy
  std::uint64_t seed = 1;
};

/// One unicast flow: `packets` packets from `src` to `dst` (original ids),
/// injected at `start`, `start + interval`, ...  A flow with `packets <= 0`
/// offers nothing and takes no part in routing: its destination gets no
/// collection tree and is never reported stranded on its account.
struct Flow {
  int src = 0;
  int dst = 0;
  int packets = 1;
  std::uint64_t start = 0;
  std::uint64_t interval = 100;
};

/// A churn batch scheduled mid-simulation (requires `attach_churn`).
struct TimedChurnBatch {
  std::uint64_t tick = 0;
  std::vector<ChurnEvent> events;
};

struct TrafficSchedule {
  std::vector<Flow> flows;
  std::vector<TimedChurnBatch> churn;  ///< ascending tick
};

/// Everything one run produced.  Drop causes are **logical**: each offered
/// packet ends exactly once — delivered, or counted under the cause that
/// killed its last surviving copy — so
///   offered == delivered + drop_queue + drop_ttl + drop_retry +
///              drop_no_route + drop_churn + drop_battery + drop_stranded
/// holds on every run (enforced by tests).  Frame/ack losses,
/// retransmissions and duplicates are copy-level protocol counters.
struct TrafficReport {
  long long offered = 0;
  long long delivered = 0;
  double delivery_ratio = 0.0;  ///< delivered / offered (0 when no offer)

  std::uint64_t p50_latency = 0;  ///< ticks, delivered packets only
  std::uint64_t p99_latency = 0;

  long long transmissions = 0;    ///< data-frame attempts
  long long retransmissions = 0;  ///< attempts beyond the first per hop
  long long frames_lost = 0;      ///< data frames lost (incl. dead receiver)
  long long acks_lost = 0;        ///< acks lost (each creates a duplicate)
  long long duplicates = 0;       ///< copies suppressed at the destination
  /// Always 0: no policy reroutes any more.  Kept so existing readers of
  /// the report (perfbench's traffic digest) stay unchanged.
  long long reroutes = 0;

  // Per-cause loss breakdown (logical packets; see above).
  long long drop_queue = 0;     ///< tail drop at a full forwarding queue
  long long drop_ttl = 0;       ///< hop budget exhausted
  long long drop_retry = 0;     ///< ARQ retries exhausted
  long long drop_no_route = 0;  ///< no tree route
  long long drop_churn = 0;     ///< in-flight at a churn-failed node
  long long drop_battery = 0;   ///< in-flight at a battery-dead node
  long long drop_stranded = 0;  ///< endpoint dead/stranded at injection

  long long events = 0;          ///< events processed (throughput denominator)
  double energy_drained = 0.0;   ///< total battery drain (clamped)
  int battery_dead = 0;          ///< nodes that died of battery exhaustion
  int churn_killed = 0;          ///< nodes dead to churn at end of run
  int alive_end = 0;             ///< alive nodes at end of run
  /// Destinations (original ids, ascending, unique) that were dead or
  /// unreachable when traffic wanted them — the graceful-degradation
  /// ledger the churn integration reports instead of throwing.
  std::vector<int> stranded;

  /// Field-by-field bit-identity (doubles compared exactly): the contract
  /// between thread counts and repeated runs.
  bool operator==(const TrafficReport&) const = default;
};

class TrafficEngine {
 public:
  TrafficEngine();
  ~TrafficEngine();
  TrafficEngine(const TrafficEngine&) = delete;
  TrafficEngine& operator=(const TrafficEngine&) = delete;

  /// Static topology: build the induced transmission digraph of (pts, o)
  /// into the engine's AuditSession and simulate over it.  `tree`
  /// (optional, must span pts) is the recorded orientation tree; when
  /// given, collection-tree routing follows its paths instead of the BFS
  /// in-tree of the digraph.  The caller keeps `pts` (and `tree`) alive
  /// while bound.
  void bind(std::span<const geom::Point> pts, const antenna::Orientation& o,
            const mst::Tree* tree = nullptr);

  /// Static topology over a caller-owned digraph (tests, synthetic
  /// workloads).  No orientation: per-packet energy cost is 1.0 per node.
  void bind_graph(const graph::Digraph& g);

  /// Churn-aware topology: simulate over `eng`'s certified digraph and
  /// alive set; `TrafficSchedule::churn` batches step the engine
  /// mid-simulation.  The engine must be init()ed; the caller keeps it
  /// alive while attached.  Traffic node ids are *original* ids (the
  /// ChurnEngine init order).  Note a run advances `eng`'s state.
  void attach_churn(ChurnEngine& eng);

  /// Run one simulation.  Returns a reference into engine-owned storage —
  /// valid until the next run()/bind; copy out to keep.  Degenerate
  /// options throw TrafficOptionsError before any state is touched; after
  /// that the run never throws on degraded delivery: stranded
  /// destinations, drops and partial delivery are report fields.  Pure
  /// function of (topology, schedule, opts) — bit-identical across
  /// repeats and thread counts.
  const TrafficReport& run(const TrafficSchedule& schedule,
                           const TrafficOptions& opts);

  const TrafficReport& last_report() const { return report_; }

  /// The event core of the last/current run (cascade and overflow
  /// counters) — observability for tests and benches.
  const EventQueue& event_queue() const { return queue_; }

  /// Remaining battery charge of original node `u` after the last run
  /// (capacity when batteries were disabled).  Never negative.
  double battery_charge(int u) const;

  /// Parallelism for the digraph build inside `bind` (forwarded to the
  /// owned AuditSession).  The event loop itself is serial by design; a
  /// churn engine attached via `attach_churn` carries its own knob.
  /// Results never change, only wall clock.
  void set_threads(int threads);

 private:
  struct Packet {
    int logical = -1;   ///< flat (flow, seq) id
    int node = -1;      ///< current holder, original id
    int dst = -1;       ///< destination, original id
    int attempts = 0;   ///< tries at the current hop
    int hops = 0;
    std::uint32_t gen = 0;  ///< stale-event guard
  };

  static constexpr int kUnknownEdge = -2;  ///< route-memo "not yet computed"

  // Event payload packing: the queue carries (tick, data, aux) with
  // data = kind << 30 | a and aux = packet generation.  `a` is a flow
  // (kInject), packet slot (kTransmit) or batch index (kChurn) — all
  // comfortably below 2^30.
  enum class EventKind : std::uint8_t { kInject, kTransmit, kChurn };

  // --- event loop ---
  void push_event(std::uint64_t tick, EventKind kind, int a, int b) {
    DIRANT_ASSERT(a >= 0 && a < (1 << 30));
    queue_.push(tick,
                (static_cast<std::uint32_t>(kind) << 30) |
                    static_cast<std::uint32_t>(a),
                static_cast<std::uint32_t>(b));
  }
  void handle_inject(std::uint64_t now, int flow);
  void handle_churn(std::uint64_t now, int batch);
  void handle_unicast(std::uint64_t now, int slot, Packet& p);

  // --- packet plumbing ---
  int acquire_slot();
  /// Queue a copy of `logical` at `node`; returns the slot, or -1 on a
  /// tail drop (no copy created, no accounting — the caller decides).
  int try_enqueue(std::uint64_t now, int logical, int node, int dst,
                  int hops);
  /// Free a copy's slot (queue length, pool); no logical accounting —
  /// pair with resolve_logical.
  void finish_copy(int slot);
  /// Logical drop accounting: counts `*cause` iff `logical` has no
  /// surviving copies and was never delivered.
  void resolve_logical(int logical, long long* cause);
  void deliver(std::uint64_t now, int logical);
  void arq_failure(std::uint64_t now, int slot);

  // --- topology view ---
  void refresh_topology();
  void rebuild_routes();
  int edge_position(int u, int v) const;
  /// Memoized next hop + CSR edge position for destination slot `s`.  The
  /// route is a pure function of the topology — deliberately blind to
  /// liveness: the sender does not know which neighbours are alive, frames
  /// to dead nodes are lost and the ARQ layer pays for the discovery — so
  /// the first visit per (s, u) resolves the edge and every later hop is
  /// O(1).  Route rebuilds reset the memo.
  int tree_hop(int s, int u, int& edge_pos);
  bool node_alive(int u) const { return node_[u].alive != 0; }
  void drain_transmit_energy(int u);

  // --- randomness (one counter stream, advanced in event order) ---
  double u01();
  std::uint64_t jitter_draw(std::uint64_t bound);
  bool frame_lost(int edge_pos);

  // Topology sources (exactly one bound).
  AuditSession audit_;                     ///< digraph build + transpose
  const graph::Digraph* graph_ = nullptr;  ///< current graph (node ids)
  const antenna::Orientation* orient_ = nullptr;
  const mst::Tree* tree_ = nullptr;
  ChurnEngine* churn_ = nullptr;
  int n_ = 0;  ///< original-space node count

  /// Hot per-node forwarding state fused into one 16-byte record, so a
  /// transmit touches one cache line per endpoint instead of three —
  /// alive is the churn alive mask AND NOT battery-dead.
  struct NodeState {
    std::uint64_t busy_until = 0;
    std::int32_t qlen = 0;
    std::uint8_t alive = 0;
    std::uint8_t battery_dead = 0;
  };
  std::vector<NodeState> node_;
  std::vector<char> prev_alive_;
  std::vector<double> battery_, tx_cost_;

  // Event core + packet pool.
  EventQueue queue_;
  std::vector<Packet> pool_;
  std::vector<int> free_slots_;
  std::vector<char> slot_live_;

  // Per-flow / per-logical-packet state (flat, offset per flow).
  std::vector<int> flow_off_, next_seq_;
  std::vector<char> log_delivered_;
  std::vector<int> log_copies_;
  std::vector<std::uint64_t> log_born_;

  /// One memoized route step — next hop + CSR edge position fused into
  /// 8 bytes, so a lookup is one cache-line touch.  rebuild_routes fills
  /// `v`; `epos == kUnknownEdge` marks a cell whose edge is not resolved
  /// yet.
  struct Hop {
    int v;
    int epos;
  };

  // Collection trees: one dsts_.size() x n_ route memo, `v` filled per
  // distinct destination whenever routes rebuild, `epos` lazily on first
  // visit.
  std::vector<int> dsts_;  ///< distinct destinations of flows that offer
                           ///< packets, stable order
  std::vector<int> dst_slot_of_;   ///< orig id -> slot in dsts_ (-1)
  std::vector<Hop> tree_memo_;
  std::vector<int> dist_;          ///< BFS scratch (all -1 between BFSs)
  graph::BfsScratch bfs_;
  // Route targets of the last rebuild, bucketed by destination slot.
  std::vector<int> route_off_, route_targets_;
  std::vector<char> route_mark_;  ///< targets of the slot being routed
  std::vector<std::vector<int>> tree_adj_;  ///< bound recorded tree

  // Link loss state (Gilbert-Elliott, per CSR edge).
  std::vector<char> link_state_;

  // Stranded ledger + latency samples.
  std::vector<char> stranded_mask_;
  std::vector<std::uint64_t> latencies_;

  const TrafficSchedule* schedule_ = nullptr;
  TrafficOptions opts_{};
  TrafficReport report_;
  std::uint64_t rng_state_ = 0;
  std::uint64_t rng_ctr_ = 0;
};

}  // namespace dirant::sim
