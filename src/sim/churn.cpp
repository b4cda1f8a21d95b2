#include "sim/churn.hpp"

#include <algorithm>
#include <cstdint>

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

ChurnEngine::ChurnEngine() = default;
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
  positions_.assign(pts.begin(), pts.end());
  alive_.assign(static_cast<size_t>(n_orig_), 1);
  alive_count_ = n_orig_;
  moved_.assign(static_cast<size_t>(n_orig_), 0);
  recovered_.assign(static_cast<size_t>(n_orig_), 0);
  changed_pos_.assign(static_cast<size_t>(n_orig_), 0);
  dirty_.assign(static_cast<size_t>(n_orig_), 1);  // everything is new
  event_nodes_.clear();
  batch_dead_.clear();
  tree_degree_.assign(static_cast<size_t>(n_orig_), 0);
  repair_.invalidate();       // raw EMST unavailable after a full orient
  orient_mem_.valid = false;  // no incremental plan to diff against yet
  prev_o_.reset(n_orig_, std::max(1, spec.k));
  batch_ = 0;

  // Batch 0 has no previous batch: the prev maps alias the identity.
  comp_of_.resize(static_cast<size_t>(n_orig_));
  orig_of_.resize(static_cast<size_t>(n_orig_));
  for (int u = 0; u < n_orig_; ++u) comp_of_[u] = orig_of_[u] = u;
  prev_comp_of_ = comp_of_;
  prev_orig_of_ = orig_of_;
  compact_pts_.assign(pts.begin(), pts.end());

  session_.orient(compact_pts_, spec_);
  reseed_pool();

  graph::Digraph fresh = antenna::induced_digraph_fast(
      compact_pts_, session_.last_result().orientation, kAngleTol,
      kRadiusAbsTol, cx_.transmission, threads_, pool_.get());
  std::move(dg_).release(cx_.transmission.offsets, cx_.transmission.targets);
  dg_ = std::move(fresh);

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
  report_.certificate = core::make_certificate(session_.last_result(), spec_,
                                               scc_result_.count);
  if (scc_result_.count == 1) {
    recert_.rebuild(dg_, transpose_, orig_of_, comp_of_, n_orig_);
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
  for (int c = 0; c < alive_count_; ++c) {
    if (scc_result_.component[c] != best) deg.stranded.push_back(orig_of_[c]);
  }

  snapshot_orientation();
  refresh_tree_degrees();
  inited_ = true;
  return report_;
}

const StepReport& ChurnEngine::step(std::span<const ChurnEvent> events) {
  DIRANT_ASSERT_MSG(inited_, "ChurnEngine::init must run before step");
  ++batch_;
  report_.batch = batch_;
  report_.events.clear();
  std::fill(moved_.begin(), moved_.end(), 0);
  std::fill(recovered_.begin(), recovered_.end(), 0);
  std::fill(changed_pos_.begin(), changed_pos_.end(), 0);
  batch_dead_.clear();

  // ---- 1. Apply the batch sequentially.  Every rejection is a pure
  // function of the state built by the preceding events, so logs replay
  // identically from the same seed + schedule.  Consecutive fails buffer
  // their pool erases and flush in one batched erase (the closure is
  // identical to per-node erases; see DelaunayEdgePool::erase_nodes) —
  // the flush happens before any pool *insert* so the interleaving the
  // event order prescribes is preserved.
  pending_fails_.clear();
  const auto flush_fails = [this] {
    pool_edges_.erase_nodes(pending_fails_);
    pending_fails_.clear();
  };
  for (const ChurnEvent& e : events) {
    bool ok = e.node >= 0 && e.node < n_orig_;
    if (ok) {
      switch (e.kind) {
        case ChurnEventKind::kFail:
          ok = alive_[e.node] != 0 && alive_count_ > opts_.min_alive;
          if (ok) {
            alive_[e.node] = 0;
            --alive_count_;
            pending_fails_.push_back(e.node);
            batch_dead_.push_back(e.node);
          }
          break;
        case ChurnEventKind::kRecover:
          ok = alive_[e.node] == 0;
          if (ok) {
            alive_[e.node] = 1;
            ++alive_count_;
            flush_fails();
            pool_edges_.insert_node(e.node, alive_);
            recovered_[e.node] = 1;
            changed_pos_[e.node] = 1;
          }
          break;
        case ChurnEventKind::kMove:
          ok = alive_[e.node] != 0;
          if (ok) {
            flush_fails();
            pool_edges_.erase_node(e.node);
            positions_[e.node] = e.to;
            pool_edges_.insert_node(e.node, alive_);
            moved_[e.node] = 1;
            changed_pos_[e.node] = 1;
          }
          break;
      }
    }
    report_.events.push_back({e, ok});
  }
  flush_fails();
  event_nodes_.clear();
  for (int u = 0; u < n_orig_; ++u) {
    if (alive_[u] && (moved_[u] || recovered_[u])) event_nodes_.push_back(u);
  }
  // Event order may revisit a node (fail, recover, fail): the dead list is
  // consumed as a sorted set by the MST-event derivation and the suspect
  // merge below.
  std::sort(batch_dead_.begin(), batch_dead_.end());
  batch_dead_.erase(std::unique(batch_dead_.begin(), batch_dead_.end()),
                    batch_dead_.end());

  rebuild_compact();
  audit_frozen();  // pre-repair: what does the field look like right now?
  replan();
  compute_dirty();
  build_digraph();

  report_.certificate =
      core::make_certificate(session_.last_result(), spec_, certify_sccs());
  report_.alive = alive_count_;

  snapshot_orientation();
  refresh_tree_degrees();
  return report_;
}

void ChurnEngine::rebuild_compact() {
  prev_comp_of_.swap(comp_of_);
  prev_orig_of_.swap(orig_of_);
  comp_of_.assign(static_cast<size_t>(n_orig_), -1);
  orig_of_.clear();
  compact_pts_.clear();
  for (int u = 0; u < n_orig_; ++u) {
    if (!alive_[u]) continue;
    comp_of_[u] = static_cast<int>(orig_of_.size());
    orig_of_.push_back(u);
    compact_pts_.push_back(positions_[u]);
  }
}

void ChurnEngine::audit_frozen() {
  // Frozen survivor graph: the previous certified digraph restricted to
  // stable nodes (alive in both batches, not moved), remapped into the new
  // compact space.  Moved/recovered nodes are isolated — their old sectors
  // aimed at old neighbourhoods, so their coverage is unknown until the
  // re-plan re-aims them (conservatively stranded).
  const int m = alive_count_;
  auto& offs = frozen_offsets_;
  auto& tgts = frozen_targets_;
  offs.clear();
  offs.push_back(0);
  tgts.clear();
  for (int c = 0; c < m; ++c) {
    const int u = orig_of_[c];
    if (prev_comp_of_[u] >= 0 && !moved_[u] && !recovered_[u]) {
      for (int t : dg_.out(prev_comp_of_[u])) {
        const int v = prev_orig_of_[t];
        if (!alive_[v] || moved_[v] || recovered_[v]) continue;
        tgts.push_back(comp_of_[v]);
      }
    }
    offs.push_back(static_cast<int>(tgts.size()));
  }
  graph::Digraph frozen(std::move(offs), std::move(tgts));

  const int best = graph::largest_scc(frozen, cx_.scc, scc_result_,
                                      scc_sizes_);
  auto& deg = report_.degraded;
  deg.stranded.clear();
  deg.largest_scc = best < 0 ? 0 : scc_sizes_[best];
  deg.coverage_fraction =
      m > 0 ? static_cast<double>(deg.largest_scc) / m : 0.0;
  deg.degraded = deg.largest_scc < m;
  for (int c = 0; c < m; ++c) {
    if (scc_result_.component[c] != best) deg.stranded.push_back(orig_of_[c]);
  }
  deg.k_level = -1;
  if (opts_.probe_k_level) {
    if (deg.largest_scc < m) {
      deg.k_level = 0;
    } else {
      deg.k_level = 1;
      frozen.reversed_into(transpose_);
      probe_removed_.assign(static_cast<size_t>(m), 0);
      bool robust = true;
      for (int c = 0; c < m && robust; ++c) {
        probe_removed_[c] = 1;
        robust = graph::is_strongly_connected(frozen, transpose_, reach_,
                                              probe_removed_.data());
        probe_removed_[c] = 0;
      }
      if (robust) deg.k_level = 2;
    }
  }
  std::move(frozen).release(frozen_offsets_, frozen_targets_);
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
    // the pool Kruskal entirely; the exported tree is byte-identical to it
    // (mst/repair.hpp), so everything downstream cannot tell the paths
    // apart.  Every fallback reason is a pure function of the event
    // sequence — deterministic across thread counts.
    if (!repair_.valid()) {
      report_.mst_fallback = "mst-unseeded";
    } else {
      derive_mst_events();
      try {
        report_.mst_fallback =
            repair_.apply_batch(positions_, alive_, alive_count_, mst_removed_,
                                mst_inserted_, pool_edges_.edges());
      } catch (const contract_violation&) {
        // A reconnect pushed a maintained-tree node past the adjacency cap
        // mid-repair; the state is torn, so invalidate and reseed below.
        report_.mst_fallback = "mst-degree";
        repair_.invalidate();
      }
      if (report_.mst_fallback == nullptr) {
        repair_.export_tree(comp_of_, compact_pts_, inc_tree_);
        localized = true;
        report_.mst_region = repair_.last_region();
      }
    }
    // ---- Rung 2: Kruskal over the maintained candidate pool.
    if (!localized) {
      cand_compact_.clear();
      cand_compact_.reserve(pool_edges_.edges().size());
      for (const auto& [a, b] : pool_edges_.edges()) {
        // Pool endpoints are always alive; compaction preserves order.
        cand_compact_.emplace_back(comp_of_[a], comp_of_[b]);
      }
      try {
        // Kruskal over any candidate superset of the Delaunay edges yields
        // the unique EMST under the (d2, min, max) total order — the exact
        // tree a from-scratch plan builds (mst/repair.hpp).
        mst::kruskal_emst(compact_pts_, cand_compact_, inc_tree_,
                          session_.emst_scratch().kruskal);
      } catch (const contract_violation&) {
        esc = "pool-disconnected";
      }
      if (esc == nullptr) {
        // Seed the localized layer from the exact tree just built so the
        // next batch can take rung 1.
        repair_.seed(inc_tree_, orig_of_, positions_, alive_);
      }
    }
    if (esc == nullptr) {
      // Localized batches carry the repair layer's net tree-edge delta so
      // the warm orienter can re-hang its recorded tree directly; rung-2
      // batches re-derive everything but still run through the recording
      // incremental path, keeping the plan memory warm across pool-Kruskal
      // reseeds instead of forcing an all-dirty rebuild next batch.
      const core::OrientWarmDelta delta{positions_, repair_.last_removed(),
                                        repair_.last_added(), event_nodes_};
      report_.incremental_orient = session_.orient_on_emst_incremental(
          compact_pts_, inc_tree_, spec_, orient_mem_, orig_of_, comp_of_,
          changed_pos_, prev_o_, localized ? &delta : nullptr);
      report_.orient_planned =
          report_.incremental_orient
              ? static_cast<int>(orient_mem_.planned.size())
              : 0;
      report_.warm_orient =
          report_.incremental_orient && orient_mem_.last_warm;
    }
  }
  if (esc != nullptr) {
    session_.orient(compact_pts_, spec_);
    reseed_pool();
    repair_.invalidate();  // raw EMST not recoverable from the full pipeline
    orient_mem_.valid = false;
  }
  report_.escalation = esc;
  report_.incremental_plan = esc == nullptr;
  report_.localized_mst = localized && esc == nullptr;
  if (!report_.localized_mst) report_.mst_region = 0;
}

void ChurnEngine::derive_mst_events() {
  // Removals = nodes in the previous batch's tree whose vertex left or
  // moved; insertions = alive nodes (re)entering at their current position.
  // A fail+recover node appears in both (drop + re-insert, exact); a
  // recover+move only inserts; a move+fail only removes.  Both lists come
  // out ascending, as LocalMstRepair::apply_batch expects.
  mst_removed_.clear();
  size_t i = 0, j = 0;
  const auto was_in_tree = [this](int u) { return prev_comp_of_[u] >= 0; };
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
    if (was_in_tree(u)) mst_removed_.push_back(u);
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
    // certificate edge can have broken (graph/recert.hpp).  Both inputs are
    // ascending; merge without duplicates.
    suspects_.clear();
    const auto& sr = report_.suggested_repair;
    size_t i = 0, j = 0;
    while (i < sr.size() || j < batch_dead_.size()) {
      int u;
      if (j == batch_dead_.size() ||
          (i < sr.size() && sr[i] <= batch_dead_[j])) {
        u = sr[i];
        if (j < batch_dead_.size() && batch_dead_[j] == u) ++j;
        ++i;
      } else {
        u = batch_dead_[j++];
      }
      suspects_.push_back(u);
    }
    if (recert_.repair(dg_, orig_of_, comp_of_, compact_pts_,
                       cx_.transmission.grid, patch_qr_, suspects_,
                       changed_pos_, cx_.transmission.candidates)) {
      report_.cert_reused = true;
      return 1;
    }
  }
  const int sccs = graph::scc_count(dg_, cx_.scc);
  if (sccs == 1) {
    recert_.rebuild(dg_, transpose_, orig_of_, comp_of_, n_orig_);
  } else {
    recert_.invalidate();
  }
  return sccs;
}

void ChurnEngine::reseed_pool() {
  auto& es = session_.emst_scratch();
  if (es.last_kind == mst::EngineKind::kDelaunayKruskal) {
    pool_edges_.seed(es.candidates.edges, orig_of_);
  } else {
    // Prim ran (small or degenerate input): the candidate buffer is absent
    // or stale, so the pool stays invalid and the next step escalates too.
    pool_edges_.invalidate();
  }
}

void ChurnEngine::compute_dirty() {
  const auto& o = session_.last_result().orientation;
  report_.suggested_repair.clear();
  int dirty_count = 0;
  if (report_.incremental_orient) {
    // Only re-planned rows can differ from the snapshot — every other row
    // was *copied* from it, so node_equals holds by construction, and
    // dirty_ is all-zero for alive nodes between batches (established by
    // snapshot_orientation).  mem.planned is ascending in compact space,
    // hence ascending in original space: suggested_repair comes out in the
    // same order the full scan would emit.
    for (int c : orient_mem_.planned) {
      const int u = orig_of_[c];
      const bool d =
          moved_[u] || recovered_[u] || !o.node_equals(c, prev_o_, u);
      dirty_[u] = d;
      if (d) {
        ++dirty_count;
        report_.suggested_repair.push_back(u);
      }
    }
  } else {
    for (int c = 0; c < alive_count_; ++c) {
      const int u = orig_of_[c];
      const bool d =
          moved_[u] || recovered_[u] || !o.node_equals(c, prev_o_, u);
      dirty_[u] = d;
      if (d) {
        ++dirty_count;
        report_.suggested_repair.push_back(u);
      }
    }
  }
  report_.dirty_fraction =
      alive_count_ > 0 ? static_cast<double>(dirty_count) / alive_count_ : 0.0;
}

void ChurnEngine::build_digraph() {
  const auto& o = session_.last_result().orientation;
  const bool patch = !opts_.force_full &&
                     report_.dirty_fraction <= opts_.dirty_threshold;
  report_.incremental_digraph = patch;
  if (!patch) {
    graph::Digraph fresh = antenna::induced_digraph_fast(
        compact_pts_, o, kAngleTol, kRadiusAbsTol, cx_.transmission, threads_,
        pool_.get());
    std::move(dg_).release(cx_.transmission.offsets, cx_.transmission.targets);
    dg_ = std::move(fresh);
    return;
  }

  // ---- Row patch.  Clean rows (sectors unchanged, node not moved) keep
  // their previous edge set: dead targets drop, moved/recovered targets
  // drop and are retested along with every other event node — their
  // positions are the only inputs to those memberships that changed.
  // Dirty rows rebuild from a grid query.  Row *order* differs from the
  // full builder's, but the per-row edge sets are identical by induction,
  // and everything downstream (SCC count, certificate) is order-blind.
  const double qr =
      o.max_radius() * (1.0 + kRadiusRelTol) + kRadiusAbsTol + 1e-12;
  patch_qr_ = qr;  // certify_sccs re-queries the same grid at this radius
  auto& grid = cx_.transmission.grid;
  grid.rebuild(compact_pts_, std::max(qr / 2.0, 1e-12));
  auto& hits = cx_.transmission.candidates;
  // Event-node retests: one grid query per event node finds the clean
  // rows that can accept it (antenna::accepting_rows).  Each clean row
  // appends its accepted events in event_nodes_ order — comp_of_ is
  // monotone — and that order is observable: collection-tree next hops
  // take a row's first match.
  event_comp_.clear();
  for (int vo : event_nodes_) event_comp_.push_back(comp_of_[vo]);
  antenna::accepting_rows(
      compact_pts_, o, grid, qr, event_comp_,
      [this](int c) { return !dirty_[orig_of_[c]]; }, hits, event_hits_);
  auto& offs = patch_offsets_;
  auto& tgts = patch_targets_;
  offs.clear();
  offs.push_back(0);
  tgts.clear();
  size_t next_hit = 0;
  for (int c = 0; c < alive_count_; ++c) {
    const int u = orig_of_[c];
    if (dirty_[u]) {
      hits.clear();
      grid.within(compact_pts_[c], qr, c, hits);
      for (int v : hits) {
        if (antenna::sector_accepts(compact_pts_, o, c, v)) {
          tgts.push_back(v);
        }
      }
    } else {
      for (int t : dg_.out(prev_comp_of_[u])) {
        const int v = prev_orig_of_[t];
        if (!alive_[v] || moved_[v] || recovered_[v]) continue;
        tgts.push_back(comp_of_[v]);
      }
      for (; next_hit < event_hits_.size() && event_hits_[next_hit].first == c;
           ++next_hit) {
        tgts.push_back(event_hits_[next_hit].second);
      }
    }
    offs.push_back(static_cast<int>(tgts.size()));
  }
  graph::Digraph fresh(std::move(offs), std::move(tgts));
  std::move(dg_).release(patch_offsets_, patch_targets_);
  dg_ = std::move(fresh);
}

void ChurnEngine::snapshot_orientation() {
  const auto& o = session_.last_result().orientation;
  for (int c = 0; c < alive_count_; ++c) {
    const int u = orig_of_[c];
    if (dirty_[u]) {
      prev_o_.copy_node(u, o, c);
      // Leave dirty_ all-zero over the alive set: compute_dirty's
      // planned-only path relies on unplanned rows still reading 0.
      dirty_[u] = 0;
    }
  }
}

void ChurnEngine::refresh_tree_degrees() {
  std::fill(tree_degree_.begin(), tree_degree_.end(), 0);
  for (const auto& e : session_.last_tree().edges) {
    ++tree_degree_[orig_of_[e.u]];
    ++tree_degree_[orig_of_[e.v]];
  }
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
  std::vector<std::pair<int, int>> order;
  order.reserve(static_cast<size_t>(alive_count_));
  for (int u = 0; u < n_orig_; ++u) {
    if (alive_[u]) order.emplace_back(-tree_degree_[u], u);
  }
  std::sort(order.begin(), order.end());
  const int k = std::min(count, static_cast<int>(order.size()));
  for (int i = 0; i < k; ++i) {
    out.push_back({ChurnEventKind::kFail, order[i].second, {}});
  }
}

}  // namespace dirant::sim
