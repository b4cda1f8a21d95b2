#include "sim/churn.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>

#include "antenna/transmission.hpp"
#include "common/assert.hpp"
#include "common/constants.hpp"
#include "mst/emst.hpp"
#include "parallel/thread_pool.hpp"

namespace dirant::sim {

namespace {

/// splitmix64 — the same per-stream mixer the audit layer seeds its trial
/// RNGs with: every (seed, tag) pair gets an independent, reproducible
/// stream regardless of how many draws other streams consumed.
std::uint64_t splitmix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ull;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z;
}

/// Uniform double in [0, 1) from the top 53 bits.
double u01(std::uint64_t z) { return static_cast<double>(z >> 11) * 0x1.0p-53; }

}  // namespace

const char* to_string(ChurnEventKind k) {
  switch (k) {
    case ChurnEventKind::kFail:
      return "fail";
    case ChurnEventKind::kRecover:
      return "recover";
    case ChurnEventKind::kMove:
      return "move";
  }
  return "?";
}

ChurnEngine::ChurnEngine() {
  // The certification temporaries (Tarjan, the digraph build's marks) share
  // the session's workspace like every other cold-path stage here.
  cx_.transmission.ws.share(session_.workspace());
  cx_.scc.ws.share(session_.workspace());
}
ChurnEngine::~ChurnEngine() = default;

void ChurnEngine::set_threads(int threads) {
  threads_ = par::ensure_pool(pool_, threads);
}

const StepReport& ChurnEngine::init(std::span<const geom::Point> pts,
                                    const core::ProblemSpec& spec,
                                    const ChurnOptions& opts) {
  DIRANT_ASSERT_MSG(!pts.empty(), "empty sensor set");
  spec_ = spec;
  opts_ = opts;
  n_orig_ = static_cast<int>(pts.size());
  DIRANT_ASSERT_MSG(opts_.min_alive >= 1, "min_alive must be positive");
  const size_t n = static_cast<size_t>(n_orig_);
  positions_.assign(pts.begin(), pts.end());
  alive_.assign(n, 1);
  alive_count_ = n_orig_;
  moved_.assign(n, 0);
  recovered_.assign(n, 0);
  changed_pos_.assign(n, 0);
  touch_stamp_.assign(n, -1);
  start_alive_.assign(n, 0);
  dirty_stamp_.assign(n, -1);
  rewrite_stamp_.assign(n, -1);
  touched_.clear();
  event_nodes_.clear();
  batch_dead_.clear();
  repair_.invalidate();  // raw EMST unavailable after a full orient
  kept_stamp_.assign(n, -1);
  batch_ = 0;
  compact_valid_ = false;

  tree_in_repair_ = false;
  build_compact();  // identity: every node is alive
  plan_.orientation.reset(n_orig_, std::max(1, spec.k));
  radius_max_.assign(n_orig_, 0.0);
  spread_max_.assign(n_orig_, 0.0);
  count_max_.assign(n_orig_, 0.0);
  session_.orient(compact_pts_, spec_, plan_rows(true));
  for (int u : plan_changed_) refresh_row(u);
  plan_.measured_radius = radius_max_.max();
  reseed_pool();
  full_build();

  // One Tarjan pass covers both the certificate's SCC count and the batch-0
  // coverage report.
  const int best = graph::largest_scc(dg_, cx_.scc, scc_result_, scc_sizes_);
  report_.batch = 0;
  report_.alive = alive_count_;
  report_.events.clear();
  report_.suggested_repair.clear();
  report_.dirty_fraction = 0.0;
  report_.incremental_plan = false;
  report_.incremental_digraph = false;
  report_.localized_mst = false;
  report_.mst_fallback = nullptr;
  report_.mst_region = 0;
  report_.incremental_orient = false;
  report_.orient_planned = 0;
  report_.warm_orient = false;
  report_.cert_reused = false;
  report_.escalation = nullptr;
  report_.certificate = core::make_certificate(
      core::OrientationMaxima{radius_max_.max(), spread_max_.max(),
                              static_cast<int>(count_max_.max())},
      plan_, spec_, scc_result_.count);
  if (scc_result_.count == 1) {
    recert_.rebuild(dg_, dgt_, alive_, alive_count_);
  } else {
    recert_.invalidate();
  }
  auto& deg = report_.degraded;
  deg.stranded.clear();
  deg.largest_scc = best < 0 ? 0 : scc_sizes_[best];
  deg.coverage_fraction =
      alive_count_ > 0
          ? static_cast<double>(deg.largest_scc) / alive_count_
          : 0.0;
  deg.degraded = deg.largest_scc < alive_count_;
  deg.k_level = -1;
  for (int u = 0; u < n_orig_; ++u) {
    if (scc_result_.component[u] != best) deg.stranded.push_back(u);
  }
  inited_ = true;
  return report_;
}

void ChurnEngine::touch(int u) {
  if (touch_stamp_[u] == batch_) return;
  touch_stamp_[u] = batch_;
  touched_.push_back(u);
  start_alive_[u] = alive_[u];
}

const StepReport& ChurnEngine::step(std::span<const ChurnEvent> events) {
  DIRANT_ASSERT_MSG(inited_, "ChurnEngine::init must run before step");
  for (int u : touched_) moved_[u] = recovered_[u] = changed_pos_[u] = 0;
  touched_.clear();
  ++batch_;
  report_.batch = batch_;
  report_.events.clear();
  batch_dead_.clear();

  // ---- 1. Apply the batch sequentially.  Every rejection is a pure
  // function of the state built by the preceding events, so logs replay
  // identically from the same seed + schedule.  Consecutive fails buffer
  // their pool erases and flush in one batched erase (the closure is
  // identical to per-node erases; see DelaunayEdgePool::erase_nodes) —
  // the flush happens before any pool *insert* so the interleaving the
  // event order prescribes is preserved.  The grid follows every event,
  // so position_taken always sees the live occupancy.
  pending_fails_.clear();
  const auto flush_fails = [this] {
    pool_edges_.erase_nodes(pending_fails_);
    pending_fails_.clear();
  };
  for (const ChurnEvent& e : events) {
    bool ok = e.node >= 0 && e.node < n_orig_;
    if (ok) {
      const int u = e.node;
      switch (e.kind) {
        case ChurnEventKind::kFail:
          ok = alive_[u] != 0 && alive_count_ > opts_.min_alive;
          if (ok) {
            touch(u);
            alive_[u] = 0;
            --alive_count_;
            grid_.erase(u, positions_[u]);
            pending_fails_.push_back(u);
            batch_dead_.push_back(u);
          }
          break;
        case ChurnEventKind::kRecover:
          ok = alive_[u] == 0 && !position_taken(u, positions_[u]);
          if (ok) {
            touch(u);
            alive_[u] = 1;
            ++alive_count_;
            grid_.insert(u, positions_[u]);
            flush_fails();
            pool_edges_.insert_node(u, alive_);
            recovered_[u] = 1;
            changed_pos_[u] = 1;
          }
          break;
        case ChurnEventKind::kMove:
          ok = alive_[u] != 0 && !position_taken(u, e.to);
          if (ok) {
            touch(u);
            flush_fails();
            pool_edges_.erase_node(u);
            grid_.erase(u, positions_[u]);
            positions_[u] = e.to;
            grid_.insert(u, e.to);
            pool_edges_.insert_node(u, alive_);
            moved_[u] = 1;
            changed_pos_[u] = 1;
          }
          break;
      }
    }
    report_.events.push_back({e, ok});
  }
  flush_fails();
  if (!touched_.empty()) compact_valid_ = false;
  event_nodes_.clear();
  for (int u : touched_) {
    if (alive_[u] && changed_pos_[u]) event_nodes_.push_back(u);
  }
  std::sort(event_nodes_.begin(), event_nodes_.end());
  // Event order may revisit a node (fail, recover, fail): the dead list is
  // consumed as a sorted set by the MST-event derivation and the suspect
  // merge below.
  std::sort(batch_dead_.begin(), batch_dead_.end());
  batch_dead_.erase(std::unique(batch_dead_.begin(), batch_dead_.end()),
                    batch_dead_.end());

  audit_frozen();  // pre-repair: what does the field look like right now?
  replan();
  build_digraph();

  report_.certificate = core::make_certificate(
      core::OrientationMaxima{radius_max_.max(), spread_max_.max(),
                              static_cast<int>(count_max_.max())},
      plan_, spec_, certify_sccs());
  report_.alive = alive_count_;
  return report_;
}

// True iff an alive node other than `v` sits exactly at `p`: one radius-0
// query of the live grid, which indexes every alive node at its current
// position (every applied event updates it).
bool ChurnEngine::position_taken(int v, const geom::Point& p) const {
  bool hit = false;
  grid_.for_each_within(p, 0.0, v, [&](int w, double, double, double) {
    hit = hit || (positions_[w].x == p.x && positions_[w].y == p.y);
  });
  return hit;
}

const std::vector<int>& ChurnEngine::compact_to_orig() const {
  build_compact();
  return orig_of_;
}

void ChurnEngine::build_compact() const {
  if (compact_valid_) return;
  comp_of_.assign(static_cast<size_t>(n_orig_), -1);
  orig_of_.clear();
  compact_pts_.clear();
  for (int u = 0; u < n_orig_; ++u) {
    if (!alive_[u]) continue;
    comp_of_[u] = static_cast<int>(orig_of_.size());
    orig_of_.push_back(u);
    compact_pts_.push_back(positions_[u]);
  }
  compact_valid_ = true;
}

void ChurnEngine::audit_frozen() {
  // Frozen survivor graph: the previous certified digraph restricted to
  // stable nodes (alive in both batches, not moved).  Moved/recovered
  // nodes are isolated — their old sectors aimed at old neighbourhoods, so
  // their coverage is unknown until the re-plan re-aims them
  // (conservatively stranded).  The certificate's witness trees answer it
  // when they can; the fallback is a Tarjan pass over the certified digraph
  // itself, dead ids left out and moved/recovered ones isolated.
  const int m = alive_count_;
  auto& deg = report_.degraded;
  deg.stranded.clear();
  deg.largest_scc = 0;
  bool answered = false;
  audit_removed_.clear();
  std::merge(batch_dead_.begin(), batch_dead_.end(), event_nodes_.begin(),
             event_nodes_.end(), std::back_inserter(audit_removed_));
  audit_removed_.erase(
      std::unique(audit_removed_.begin(), audit_removed_.end()),
      audit_removed_.end());
  if (recert_.audit_removal(dg_, dgt_, audit_removed_, m, audit_outside_)) {
    const int stable = m - static_cast<int>(event_nodes_.size());
    const int hub_scc = stable - static_cast<int>(audit_outside_.size());
    // A strict majority is the unique largest component; otherwise the
    // tie-break needs the full decomposition.
    if (2 * hub_scc > m) {
      answered = true;
      deg.largest_scc = hub_scc;
      std::merge(audit_outside_.begin(), audit_outside_.end(),
                 event_nodes_.begin(), event_nodes_.end(),
                 std::back_inserter(deg.stranded));
    }
  }
  if (!answered) {
    const int best = graph::largest_scc(dg_, alive_, changed_pos_, cx_.scc,
                                        scc_result_, scc_sizes_);
    deg.largest_scc = best < 0 ? 0 : scc_sizes_[best];
    for (int u = 0; u < n_orig_; ++u) {
      if (alive_[u] && scc_result_.component[u] != best) {
        deg.stranded.push_back(u);
      }
    }
  }
  deg.coverage_fraction =
      m > 0 ? static_cast<double>(deg.largest_scc) / m : 0.0;
  deg.degraded = deg.largest_scc < m;
  deg.k_level = -1;
  if (opts_.probe_k_level) {
    if (deg.largest_scc < m) {
      deg.k_level = 0;
    } else {
      // One component holds every alive node, so none moved or recovered
      // (each would be an isolated singleton; a lone survivor is robust
      // either way): the frozen graph is the certified digraph over the
      // alive ids, and every probe masks the dead ids plus one alive one.
      deg.k_level = 1;
      probe_removed_.resize(static_cast<size_t>(n_orig_));
      for (int u = 0; u < n_orig_; ++u) probe_removed_[u] = !alive_[u];
      bool robust = true;
      for (int u = 0; u < n_orig_ && robust; ++u) {
        if (!alive_[u]) continue;
        probe_removed_[u] = 1;
        robust = graph::is_strongly_connected(dg_, dgt_, reach_,
                                              probe_removed_.data());
        probe_removed_[u] = 0;
      }
      if (robust) deg.k_level = 2;
    }
  }
}

void ChurnEngine::replan() {
  report_.localized_mst = false;
  report_.mst_fallback = nullptr;
  report_.mst_region = 0;
  report_.incremental_orient = false;
  report_.orient_planned = 0;
  report_.warm_orient = false;
  const char* esc = nullptr;
  if (opts_.force_full) {
    esc = "forced";
  } else if (!pool_edges_.valid()) {
    esc = "pool-invalid";
  } else if (alive_count_ < session_.engine().config().prim_cutoff) {
    // A fresh plan at this size would take Prim, whose tree the pool path
    // cannot reproduce under ties — stay bit-identical by escalating.
    esc = "below-prim-cutoff";
  } else if (pool_edges_.oversized(alive_count_)) {
    esc = "pool-oversized";
  }
  bool localized = false;
  if (esc == nullptr) {
    // ---- Rung 1: localized repair of the maintained EMST.  Success skips
    // the pool Kruskal entirely; the maintained tree is exactly the one it
    // would build (mst/repair.hpp), so everything downstream cannot tell
    // the paths apart.  Every fallback reason is a pure function of the
    // event sequence — deterministic across thread counts.
    if (!repair_.valid()) {
      report_.mst_fallback = "mst-unseeded";
    } else {
      derive_mst_events();
      try {
        report_.mst_fallback =
            repair_.apply_batch(positions_, alive_, alive_count_, mst_removed_,
                                mst_inserted_, pool_edges_);
      } catch (const contract_violation&) {
        // A reconnect pushed a maintained-tree node past the adjacency cap
        // mid-repair; the state is torn, so invalidate and reseed below.
        report_.mst_fallback = "mst-degree";
        repair_.invalidate();
      }
      if (report_.mst_fallback == nullptr) {
        localized = true;
        report_.mst_region = repair_.last_region();
      }
    }
    bool warm = false;
    if (localized) {
      // The warm orienter reads the repair layer's own state — net edge
      // delta, degrees, lmax — and patches the original-space plan in
      // place.
      warm = orient_warm(repair_.last_removed(), repair_.last_added());
      if (!warm) {
        build_compact();
        repair_.export_tree(comp_of_, compact_pts_, inc_tree_);
      }
    } else {
      // ---- Rung 2: Kruskal over the maintained candidate pool.
      build_compact();
      try {
        // Kruskal over any candidate superset of the Delaunay edges yields
        // the unique EMST under the (d2, min, max) total order — the exact
        // tree a from-scratch plan builds (mst/repair.hpp).
        Workspace& ws = session_.workspace();
        Workspace::Frame frame(ws);
        const auto pool = pool_edges_.edges();
        const auto cand = ws.take<std::pair<int, int>>(pool.size());
        for (size_t i = 0; i < pool.size(); ++i) {
          // Pool endpoints are always alive; compaction preserves order.
          cand[i] = {comp_of_[pool[i].first], comp_of_[pool[i].second]};
        }
        mst::kruskal_emst(compact_pts_, cand, inc_tree_,
                          session_.emst_scratch().kruskal);
      } catch (const contract_violation&) {
        esc = "pool-disconnected";
      }
      if (esc == nullptr) {
        // Seed the localized layer from the exact tree just built so the
        // next batch can take rung 1, and carry the recorded tree to it
        // through their net edge diff.
        repair_.seed(inc_tree_, orig_of_, positions_, alive_);
        if (orient_mem_.valid) {
          diff_recorded_tree();
          warm = orient_warm(tree_removed_, tree_added_);
        }
      }
    }
    if (esc == nullptr && !warm) {
      // The warm orienter refused (a gate failed or the memory tore): plan
      // fresh and record, so the next batch resumes warm.  Degree repair
      // rewires a degree-6 EMST, and the swept tree then differs from the
      // one the repair layer carries and reports deltas against, so that
      // plan is not recorded.
      const auto deg = repair_.degrees();
      session_.orient_on_emst(
          compact_pts_, inc_tree_, spec_,
          plan_rows(*std::max_element(deg.begin(), deg.end()) <= 5));
      adopt_fresh_plan();
    }
  }
  if (esc != nullptr) {
    build_compact();
    session_.orient(compact_pts_, spec_, plan_rows(true));
    reseed_pool();
    // The raw EMST is not recoverable from the full pipeline, so the next
    // batch takes rung 2, which diffs against whatever tree is recorded.
    repair_.invalidate();
    adopt_fresh_plan();
  }
  report_.escalation = esc;
  report_.incremental_plan = esc == nullptr;
  report_.localized_mst = localized && esc == nullptr;
  if (!report_.localized_mst) report_.mst_region = 0;
}

bool ChurnEngine::orient_warm(std::span<const std::pair<int, int>> removed,
                              std::span<const std::pair<int, int>> added) {
  const core::OrientWarmDelta delta{
      positions_, alive_,  alive_count_,       removed,
      added,      event_nodes_, repair_.degrees(), repair_.lmax()};
  if (!session_.orient_warm(spec_, orient_mem_, delta, plan_)) return false;
  adopt_warm_plan();
  return true;
}

core::PlanRows ChurnEngine::plan_rows(bool record) {
  orient_mem_.invalidate();
  return {orig_of_, &plan_, &plan_changed_, record ? &orient_mem_ : nullptr};
}

// Net edge diff between the tree the plan memory records and the Kruskal
// tree just built (inc_tree_, compact ids), in original ids (u < v): an
// edge of the new tree is kept when one endpoint's recorded parent is the
// other; every recorded parent edge not kept — those of nodes that died
// included — is removed.  One pass over each tree.
void ChurnEngine::diff_recorded_tree() {
  const auto& nodes = orient_mem_.nodes;
  const auto& member = orient_mem_.member;
  tree_removed_.clear();
  tree_added_.clear();
  for (const auto& e : inc_tree_.edges) {
    const int a = orig_of_[e.u], b = orig_of_[e.v];
    if (member[a] && nodes[a].parent == b) {
      kept_stamp_[a] = batch_;
    } else if (member[b] && nodes[b].parent == a) {
      kept_stamp_[b] = batch_;
    } else {
      tree_added_.emplace_back(std::min(a, b), std::max(a, b));
    }
  }
  for (int u = 0; u < n_orig_; ++u) {
    const int p = nodes[u].parent;
    if (member[u] && p >= 0 && kept_stamp_[u] != batch_) {
      tree_removed_.emplace_back(std::min(u, p), std::max(u, p));
    }
  }
}

void ChurnEngine::refresh_row(int u) {
  const auto& ants = plan_.orientation.antennas(u);
  double r = 0.0;
  for (const auto& s : ants) r = std::max(r, s.radius);
  radius_max_.set(u, r);
  spread_max_.set(u, plan_.orientation.spread_sum(u));
  count_max_.set(u, static_cast<double>(ants.size()));
}

void ChurnEngine::adopt_warm_plan() {
  report_.incremental_orient = true;
  report_.warm_orient = true;
  report_.orient_planned = static_cast<int>(orient_mem_.planned.size());
  tree_in_repair_ = true;
  adopt_rows(orient_mem_.changed);
}

void ChurnEngine::adopt_fresh_plan() {
  tree_in_repair_ = false;
  adopt_rows(plan_changed_);
}

// Shared tail of every re-plan, given the rows it rewrote (ascending): rows
// of nodes that died this batch empty out, the certificate maxima follow,
// and the dirty set is the changed rows plus the event nodes, ascending.
void ChurnEngine::adopt_rows(std::span<const int> changed) {
  auto& sr = report_.suggested_repair;
  sr.clear();
  std::set_union(changed.begin(), changed.end(), event_nodes_.begin(),
                 event_nodes_.end(), std::back_inserter(sr));
  for (int u : changed) refresh_row(u);
  for (int u : batch_dead_) {
    if (!alive_[u]) {
      plan_.orientation.clear_node(u);
      refresh_row(u);
    }
  }
  for (int u : sr) dirty_stamp_[u] = batch_;
  plan_.measured_radius = radius_max_.max();
  report_.dirty_fraction =
      alive_count_ > 0 ? static_cast<double>(sr.size()) / alive_count_ : 0.0;
}

void ChurnEngine::derive_mst_events() {
  // Removals = nodes in the previous batch's tree whose vertex left or
  // moved; insertions = alive nodes (re)entering at their current position.
  // A fail+recover node appears in both (drop + re-insert, exact); a
  // recover+move only inserts; a move+fail only removes.  Both lists come
  // out ascending, as LocalMstRepair::apply_batch expects.
  mst_removed_.clear();
  size_t i = 0, j = 0;
  while (i < batch_dead_.size() || j < event_nodes_.size()) {
    int u;
    if (j == event_nodes_.size() ||
        (i < batch_dead_.size() && batch_dead_[i] <= event_nodes_[j])) {
      u = batch_dead_[i];
      if (j < event_nodes_.size() && event_nodes_[j] == u) ++j;
      ++i;
    } else {
      u = event_nodes_[j++];
    }
    if (start_alive_[u]) mst_removed_.push_back(u);
  }
  mst_inserted_.assign(event_nodes_.begin(), event_nodes_.end());
}

int ChurnEngine::certify_sccs() {
  report_.cert_reused = false;
  if (core::can_reuse_scc_certificate(opts_.force_full,
                                      report_.incremental_digraph,
                                      recert_.valid())) {
    // Suspects = this batch's dirty re-plan set ∪ its dead nodes — exactly
    // the rows the patch rebuilt or dropped, which is every place a cached
    // certificate edge can have broken (graph/recert.hpp).
    suspects_.clear();
    const auto& sr = report_.suggested_repair;
    std::set_union(sr.begin(), sr.end(), batch_dead_.begin(),
                   batch_dead_.end(), std::back_inserter(suspects_));
    if (recert_.repair(dg_, dgt_, alive_, alive_count_, suspects_,
                       changed_pos_)) {
      report_.cert_reused = true;
      return 1;
    }
  }
  // Dead ids are isolated empty rows: one singleton component each.
  const int sccs =
      graph::scc_count(dg_, cx_.scc) - (n_orig_ - alive_count_);
  if (sccs == 1) {
    recert_.rebuild(dg_, dgt_, alive_, alive_count_);
  } else {
    recert_.invalidate();
  }
  return sccs;
}

void ChurnEngine::reseed_pool() {
  auto& es = session_.emst_scratch();
  if (es.last_kind == mst::EngineKind::kDelaunayKruskal) {
    pool_edges_.seed(es.candidates, orig_of_, session_.workspace());
  } else {
    // Prim ran (small or degenerate input): the candidate buffer is absent
    // or stale, so the pool stays invalid and the next step escalates too.
    pool_edges_.invalidate();
  }
}

// Adopt a CSR built into (offsets, targets) as `g`; g's previous buffers
// come back through the same pair for the next build.
void ChurnEngine::install(graph::Digraph& g, std::vector<int>& offsets,
                          std::vector<int>& targets) {
  graph::Digraph next(std::move(offsets), std::move(targets));
  std::move(g).release(offsets, targets);
  g = std::move(next);
}

void ChurnEngine::full_build() {
  // The sharded builder runs in original space over the plan and the live
  // grid, re-indexed over the survivors at the builder's own cell: a grid
  // masked to the alive ids enumerates exactly the points, in exactly the
  // order, of a fresh build over the survivors compacted in id order, so
  // every row — and its order — is the compact build's, relabelled, and
  // dead ids are empty rows no row points at.  (No radius means no plan
  // with two sensors: every row is empty, as the compact build has it.)
  // The row patch re-indexes the grid at its own cell on its next run.
  const double rmax = radius_max_.max();
  auto& tx = cx_.transmission;
  grid_.rebuild(positions_, antenna::digraph_grid_cell(rmax), alive_);
  if (rmax > 0.0) {
    graph::Digraph fresh = antenna::induced_digraph_fast(
        positions_, plan_.orientation, grid_, kAngleTol, kRadiusAbsTol, tx,
        threads_, pool_.get());
    std::move(fresh).release(tx.offsets, tx.targets);
  } else {
    tx.offsets.assign(static_cast<size_t>(n_orig_) + 1, 0);
    tx.targets.clear();
  }
  install(dg_, tx.offsets, tx.targets);
  dg_.reversed_into(dgt_);
}

void ChurnEngine::build_digraph() {
  const bool patch = !opts_.force_full &&
                     report_.dirty_fraction <= opts_.dirty_threshold;
  report_.incremental_digraph = patch;
  if (!patch) {
    full_build();
    return;
  }

  // ---- Row patch, in place in original space.  Clean rows (sectors
  // unchanged, node not moved) keep their previous edge set: dead targets
  // drop, moved/recovered targets drop and are retested along with every
  // other event node — their positions are the only inputs to those
  // memberships that changed.  Dirty rows rebuild from a grid query.  Row
  // *order* differs from the full builder's, but the per-row edge sets
  // are identical by induction, and the SCC count and certificate are
  // order-blind.  Only the rows that can change are computed: dirty rows,
  // dead rows, clean rows that held a departed or moved node, and clean
  // rows that accept an event node; the rest is one copy of each CSR span
  // between them.
  const auto& o = plan_.orientation;
  const double qr =
      radius_max_.max() * (1.0 + kRadiusRelTol) + kRadiusAbsTol + 1e-12;
  const double cell = std::max(qr / 2.0, 1e-12);
  // Dirty rows enumerate grid hits in cell order, so the grid must be the
  // one a fresh build over the survivors would make.
  if (!grid_.fresh_geometry() || grid_.cell() != cell) {
    grid_.rebuild(positions_, cell, alive_);
  }
  const auto dirty = [this](int u) { return dirty_stamp_[u] == batch_; };
  const auto mark = [this](int u) {
    if (rewrite_stamp_[u] == batch_) return;
    rewrite_stamp_[u] = batch_;
    rewrite_.push_back(u);
  };
  rewrite_.clear();
  for (int u : report_.suggested_repair) mark(u);
  for (int u : batch_dead_) {
    if (!alive_[u]) mark(u);
  }
  // A clean row that held a node which left or moved: the node's in-list
  // in the transpose names them.
  for (int x : touched_) {
    if (!start_alive_[x] || (alive_[x] && !changed_pos_[x])) continue;
    for (int w : dgt_.out(x)) {
      if (!dirty(w)) mark(w);
    }
  }
  // Event-node retests: one grid query per event node finds the clean
  // rows that can accept it (antenna::accepting_rows).  Each clean row
  // appends its accepted events in event_nodes_ order, and that order is
  // observable: collection-tree next hops take a row's first match.
  auto& hits = cx_.transmission.candidates;
  antenna::accepting_rows(
      positions_, o, grid_, qr, event_nodes_,
      [&](int c) { return !dirty(c); }, hits, event_hits_);
  for (const auto& [row, v] : event_hits_) mark(row);
  std::sort(rewrite_.begin(), rewrite_.end());

  auto& offs = patch_offsets_;
  auto& tgts = patch_targets_;
  offs.resize(static_cast<size_t>(n_orig_) + 1);
  tgts.clear();
  offs[0] = 0;
  size_t next_hit = 0;
  int from = 0;  // first row not yet emitted
  const auto old_offs = dg_.offsets();
  const auto old_tgts = dg_.targets();
  const auto copy_span = [&](int to) {
    // Rows [from, to) are unchanged: one block copy plus an offset shift.
    if (from >= to) return;
    const int first = old_offs[from];
    const int shift = static_cast<int>(tgts.size()) - first;
    for (int u = from; u < to; ++u) offs[u + 1] = old_offs[u + 1] + shift;
    tgts.insert(tgts.end(), old_tgts.begin() + first,
                old_tgts.begin() + old_offs[to]);
  };
  for (int u : rewrite_) {
    copy_span(u);
    if (!alive_[u]) {
      // Dead row: empty.
    } else if (dirty(u)) {
      hits.clear();
      grid_.within(positions_[u], qr, u, hits);
      for (int v : hits) {
        if (antenna::sector_accepts(positions_, o, u, v)) tgts.push_back(v);
      }
    } else {
      for (int t : dg_.out(u)) {
        if (!alive_[t] || changed_pos_[t]) continue;
        tgts.push_back(t);
      }
      while (next_hit < event_hits_.size() && event_hits_[next_hit].first < u) {
        ++next_hit;
      }
      for (; next_hit < event_hits_.size() && event_hits_[next_hit].first == u;
           ++next_hit) {
        tgts.push_back(event_hits_[next_hit].second);
      }
    }
    offs[u + 1] = static_cast<int>(tgts.size());
    from = u + 1;
  }
  copy_span(n_orig_);
  patch_transpose();
  install(dg_, patch_offsets_, patch_targets_);
  install(dgt_, tpatch_offsets_, tpatch_targets_);
}

void ChurnEngine::patch_transpose() {
  // The new rows differ from dg_'s only at rewrite_, so only their old and
  // new targets change in-lists.  Each such in-list keeps its sources
  // outside rewrite_ and gains the rewritten rows that point at it, merged
  // in ascending source order — exactly `reversed_into` of the new CSR;
  // every other in-list is block-copied.
  const auto new_offs = std::span<const int>(patch_offsets_);
  const auto new_tgts = std::span<const int>(patch_targets_);
  const auto rewritten = [this](int u) { return rewrite_stamp_[u] == batch_; };
  tgained_.clear();
  tlists_.clear();
  for (int u : rewrite_) {
    for (int t : dg_.out(u)) tlists_.push_back(t);
    for (int k = new_offs[u]; k < new_offs[u + 1]; ++k) {
      tgained_.emplace_back(new_tgts[k], u);
      tlists_.push_back(new_tgts[k]);
    }
  }
  std::sort(tgained_.begin(), tgained_.end());
  std::sort(tlists_.begin(), tlists_.end());
  tlists_.erase(std::unique(tlists_.begin(), tlists_.end()), tlists_.end());

  auto& offs = tpatch_offsets_;
  auto& srcs = tpatch_targets_;
  offs.resize(static_cast<size_t>(n_orig_) + 1);
  srcs.clear();
  offs[0] = 0;
  const auto old_offs = dgt_.offsets();
  const auto old_srcs = dgt_.targets();
  int from = 0;
  const auto copy_span = [&](int to) {
    if (from >= to) return;
    const int first = old_offs[from];
    const int shift = static_cast<int>(srcs.size()) - first;
    for (int t = from; t < to; ++t) offs[t + 1] = old_offs[t + 1] + shift;
    srcs.insert(srcs.end(), old_srcs.begin() + first,
                old_srcs.begin() + old_offs[to]);
  };
  size_t g = 0;
  for (int t : tlists_) {
    copy_span(t);
    while (g < tgained_.size() && tgained_[g].first < t) ++g;
    for (int k = old_offs[t]; k < old_offs[t + 1]; ++k) {
      const int u = old_srcs[k];
      if (rewritten(u)) continue;
      for (; g < tgained_.size() && tgained_[g].first == t &&
             tgained_[g].second < u;
           ++g) {
        srcs.push_back(tgained_[g].second);
      }
      srcs.push_back(u);
    }
    for (; g < tgained_.size() && tgained_[g].first == t; ++g) {
      srcs.push_back(tgained_[g].second);
    }
    offs[t + 1] = static_cast<int>(srcs.size());
    from = t + 1;
  }
  copy_span(n_orig_);
}

void ChurnEngine::poisson_schedule(std::uint64_t seed, int batch_tag,
                                   double fail_rate, double recover_rate,
                                   double move_rate, double move_radius,
                                   std::vector<ChurnEvent>& out) const {
  const std::uint64_t h = splitmix(
      seed + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(batch_tag + 1));
  for (int u = 0; u < n_orig_; ++u) {
    const std::uint64_t zu =
        splitmix(h + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(u + 1));
    if (!alive_[u]) {
      if (u01(splitmix(zu ^ 1)) < recover_rate) {
        out.push_back({ChurnEventKind::kRecover, u, {}});
      }
      continue;
    }
    if (u01(splitmix(zu ^ 2)) < fail_rate) {
      out.push_back({ChurnEventKind::kFail, u, {}});
      continue;
    }
    if (u01(splitmix(zu ^ 3)) < move_rate) {
      geom::Point p = positions_[u];
      p.x += move_radius * (2.0 * u01(splitmix(zu ^ 4)) - 1.0);
      p.y += move_radius * (2.0 * u01(splitmix(zu ^ 5)) - 1.0);
      out.push_back({ChurnEventKind::kMove, u, p});
    }
  }
}

void ChurnEngine::adversarial_schedule(int count,
                                       std::vector<ChurnEvent>& out) const {
  // Highest spanning-tree degree first: a tree's internal nodes are its
  // articulation points, so this is the "kill the articulation set"
  // schedule.  (-degree, id) sort makes ties deterministic.
  std::vector<int> degree(static_cast<size_t>(n_orig_), 0);
  if (tree_in_repair_) {
    const auto d = repair_.degrees();
    for (int u = 0; u < n_orig_; ++u) degree[u] = d[u];
  } else {
    // The compact ids of the step that planned this tree (the compact
    // paths build the map, and nothing rebuilds it before the next step).
    for (const auto& e : session_.last_tree().edges) {
      ++degree[orig_of_[e.u]];
      ++degree[orig_of_[e.v]];
    }
  }
  std::vector<std::pair<int, int>> order;
  order.reserve(static_cast<size_t>(alive_count_));
  for (int u = 0; u < n_orig_; ++u) {
    if (alive_[u]) order.emplace_back(-degree[u], u);
  }
  std::sort(order.begin(), order.end());
  const int k = std::min(count, static_cast<int>(order.size()));
  for (int i = 0; i < k; ++i) {
    out.push_back({ChurnEventKind::kFail, order[i].second, {}});
  }
}

}  // namespace dirant::sim
