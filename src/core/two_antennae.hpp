#pragma once
/// \file two_antennae.hpp
/// Theorem 3 — the paper's main result.  Two antennae per sensor:
///   * part 1: phi >= pi        -> range 2*sin(2*pi/9) * lmax  (~1.2856)
///   * part 2: 2*pi/3 <= phi<pi -> range 2*sin(pi/2 - phi/4) * lmax
///
/// Implementation follows the proof's rooted induction ("Property 1"): each
/// vertex u receives a target point it must cover (its parent's position, or
/// a sibling's position when a sibling delegates); children are ordered ccw
/// from the ray u->target and a per-degree case analysis assigns u's two
/// antennae and each child's obligation.  Every selected local plan is
/// re-verified numerically (spread budget, chord lengths, coverage); if the
/// proof-ordered cases all fail — which theory rules out — an exhaustive
/// local search runs and the event is counted in CaseStats::fallback_plans.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "geometry/point.hpp"
#include "mst/tree.hpp"

namespace dirant::antenna {
class Orientation;
}

namespace dirant::core {

struct OrienterScratch;

/// Radius factor guaranteed by Theorem 3 for a given phi (>= 2*pi/3).
double theorem3_bound_factor(double phi);

/// Orient with two antennae per sensor on a degree-<=5 tree; phi >= 2*pi/3.
Result orient_two_antennae(std::span<const geom::Point> pts,
                           const mst::Tree& tree, double phi);

/// Session variant (allocation-free once warm, exhaustive fallback search
/// included — though it never fires at the paper bound).  With `changed`
/// given, the rows go to a plan the caller keeps in another index space
/// (sim::ChurnEngine keeps one row per original id): vertex v's row is
/// written in place into `out` row `row_of[v]` — a row whose sectors are
/// bitwise unchanged is left alone, other rows are untouched — `changed`
/// receives the rewritten rows, ascending, and `measured_radius` is the
/// caller's.
void orient_two_antennae(std::span<const geom::Point> pts,
                         const mst::Tree& tree, double phi,
                         OrienterScratch& scratch, Result& out,
                         std::span<const int> row_of = {},
                         std::vector<int>* changed = nullptr);

/// Per-node plan memory for the warm frontier orienter, kept in *original*
/// (churn-stable) index space by the caller: the rooted tree the last plan
/// ran over and each vertex's incoming target point — the obligation its
/// parent handed it.  A fresh sweep leaves it behind through
/// `record_two_antennae_memory`; the warm orienter then follows tree and
/// position changes from it, re-planning only vertices whose inputs —
/// parent identity and position, incoming target (bitwise), child set and
/// positions, own position — changed, under unchanged global gates (phi,
/// resolved radius cap, root identity).
struct TwoAntennaeMemory {
  struct Node {
    int parent = -1;        ///< original id of the tree parent at plan time
    geom::Point target{};   ///< incoming cover obligation (bitwise compare)
    int nkids = 0;
    /// Children in no particular order (a re-plan derives the ccw order).
    /// The obligation handed to a child is that child's own `target`:
    /// every write site (record, re-plan, root) sets the two together, so a
    /// parent that keeps its plan hands each child its recorded target.
    int kids[5] = {-1, -1, -1, -1, -1};
  };
  bool valid = false;  ///< records describe the current plan
  double phi = 0.0;
  double radius = 0.0;  ///< resolved cap R (folds in lmax and tolerances)
  int root_orig = -1;   ///< traversal root; a change dirties the whole tree
  /// Original ids the last warm run re-planned, ascending.
  std::vector<int> planned;
  /// The planned original ids whose row actually changed (ascending) —
  /// every other row of the output is as it was.
  std::vector<int> changed;
  std::vector<Node> nodes;   ///< original index space

  // The records above double as a persistent original-space rooted tree
  // that the net MST edge delta is applied to directly.  `member[u]` flags
  // original ids present in the recorded tree; the stamp vectors are
  // epoch-versioned so a warm batch touches only the affected region.
  std::vector<char> member;      ///< original id is in the recorded tree
  std::vector<int> mark_stamp;   ///< == warm_epoch: node must re-plan
  std::vector<int> up_stamp;     ///< == warm_epoch: marked node or ancestor
  std::vector<int> anchor_stamp; ///< == warm_epoch: known root-connected
  /// == weld_epoch: known unanchored since the last Phase B weld.
  std::vector<int> unanchored_stamp;
  std::vector<int> dirty_list;   ///< marked nodes, in mark order
  std::vector<int> pend_edges;   ///< added-edge worklist (re-hang rounds)
  std::vector<int> walk_buf;     ///< parent-chain walk scratch
  std::vector<int> descend_stack;  ///< clean ancestors still to traverse
  int warm_epoch = 0;
  int weld_epoch = 0;
};

/// Inputs for the warm frontier orienter, all in original (churn-stable)
/// index space: the batch's net MST edge delta (u < v), the alive nodes
/// whose positions changed, and the maintained tree's degrees and longest
/// edge — the repair layer's own state (mst::LocalMstRepair), so no tree
/// is exported.
struct OrientWarmDelta {
  std::span<const geom::Point> positions;
  std::span<const char> alive;
  int alive_count = 0;
  std::span<const std::pair<int, int>> removed;
  std::span<const std::pair<int, int>> added;
  std::span<const int> moved;  ///< alive, position changed; ascending
  std::span<const std::uint8_t> degree;  ///< current tree degree per id
  double lmax = 0.0;                     ///< current tree's longest edge
};

/// Record the plan memory of the Theorem 3 sweep (orient_two_antennae)
/// that just ran through `scratch` over a compact tree and wrote `res`'s
/// header: one pass over the sweep's rooted tree and hand-down targets,
/// nothing re-planned.
/// `orig_of` maps the sweep's compact ids to original ids, and `n_orig`
/// sizes the original space.  Leaves `mem` invalid when `res` is not a
/// Theorem 3 plan or spans fewer than two vertices.  The recorded tree is
/// the one the sweep ran over; a caller whose next delta is relative to a
/// different tree (a raw EMST that degree repair rewired) must not keep it.
void record_two_antennae_memory(double phi, const OrienterScratch& scratch,
                                const Result& res,
                                std::span<const int> orig_of, int n_orig,
                                TwoAntennaeMemory& mem);

/// Frontier-driven warm re-orientation: apply the batch's net MST edge
/// delta to the persistent rooted tree the records encode — detach removed
/// edges, re-hang added ones by re-rooting the detached fragment at its
/// joining endpoint — then re-plan only the closure of structurally- or
/// positionally-dirty vertices under bitwise target propagation.  `res` is
/// the caller's plan in original index space (one row per original id,
/// dead rows empty): re-planned rows are patched in place (`mem.planned`,
/// and `mem.changed` for those whose sectors differ) and every other row is
/// left alone, so the cost is O(affected region + its root chain), not
/// O(n).  Rows equal the fresh plan's whenever it runs.  `res.algorithm`,
/// `bound_factor`, `lmax` and `cases` are refreshed (vertices not re-planned
/// count under "reused"); `measured_radius` is the caller's (it tracks the
/// exact maximum over rows).  Returns false — without touching `res` — when
/// a global gate fails (stale memory, phi/R/root change, a degree-6 node),
/// and false with `mem.valid` cleared when the delta contradicts the
/// records mid-surgery; either way the caller re-plans with the fresh
/// sweep and records again.
bool orient_two_antennae_warm(double phi, OrienterScratch& scratch,
                              TwoAntennaeMemory& mem,
                              const OrientWarmDelta& delta, Result& res);

/// Instance-adaptive extension (beyond the paper): binary-search the
/// smallest radius cap R under which the Theorem 3 plan space (the proof's
/// cases plus the exhaustive local plans) still succeeds at every vertex.
/// The result is certified like any other: strongly connected, per-node
/// spread <= phi, measured radius <= the returned cap <= the paper bound.
/// `bound_factor` reports the achieved cap in lmax units.
Result orient_two_antennae_adaptive(std::span<const geom::Point> pts,
                                    const mst::Tree& tree, double phi);

/// Session variant of the adaptive search, built for fleet-tuning probe
/// loops: the binary search runs over a double-buffered Result — each probe
/// writes into `probe`, and a successful probe SWAPS with `out` instead of
/// copying or reallocating — and `cands` recycles the candidate-cap list.
/// With warm buffers (second call of the same size onwards) the whole
/// search, failed probes included, performs zero heap allocations.  The
/// EMST is radius-cap-invariant, so callers reuse one `tree` across every
/// probe and every call.  `out` receives the best certified plan.
void orient_two_antennae_adaptive(std::span<const geom::Point> pts,
                                  const mst::Tree& tree, double phi,
                                  OrienterScratch& scratch,
                                  std::vector<double>& cands, Result& out,
                                  Result& probe);

}  // namespace dirant::core
