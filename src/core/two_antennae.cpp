#include "core/two_antennae.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/assert.hpp"
#include "common/constants.hpp"
#include "common/small_vec.hpp"
#include "core/session.hpp"
#include "geometry/angle.hpp"
#include "mst/rooted.hpp"

namespace dirant::core {
namespace {

using geom::Point;
using geom::Sector;

constexpr double kTol = 1e-9;

using dirant::insertion_sort;  // stable, allocation-free (common/small_vec.hpp)

/// A local plan at one vertex: at most two antennae plus sibling
/// delegations.  Rays are identified by -1 (the target point) and 0..m-1
/// (children in ccw order from the target ray).  All feasibility checks are
/// numeric and geometric — the case analysis proposes, commit() disposes.
class NodePlanner {
 public:
  /// The planner is built once per traversal and re-`init`-ed per vertex so
  /// its scratch vectors keep their capacity across the whole tree.
  NodePlanner(std::span<const Point> pts, double phi, double R)
      : pts_(pts), phi_(phi), R_(R) {}

  /// Plan vertex `u` towards `target`; `kids` are its children in tree
  /// edge order.  The ccw sort caches each ray's angle and offset, so every
  /// later use of a ray reads its single atan2.
  void init(int u, const Point& target, std::span<const int> kids) {
    u_ = u;
    target_ = target;
    ref_ = geom::angle_to(pts_[u_], target_);
    const int m = static_cast<int>(kids.size());
    kids_.resize(m);
    abs_angle_.resize(m);
    order_off_.resize(m);
    mst::sort_ccw(pts_, u_, ref_, kids, kids_.data(), abs_angle_.data(),
                  order_off_.data());
  }

  int child_count() const { return kids_.size(); }
  int kid(int slot) const { return kids_[slot]; }

  /// Ordering offset of a ray (target = 0; children in (0, 2*pi]).
  double off(int ray) const { return ray < 0 ? 0.0 : order_off_[ray]; }

  const Point& point_of(int ray) const {
    return ray < 0 ? target_ : pts_[kids_[ray]];
  }

  double abs_angle(int ray) const { return ray < 0 ? ref_ : abs_angle_[ray]; }

  double chord(int x, int y) const {
    return geom::dist(point_of(x), point_of(y));
  }

  double dist_to(int ray) const { return geom::dist(pts_[u_], point_of(ray)); }

  /// ccw width from ray p to ray q (0 when p == q; wraps through the target
  /// ray when off(q) < off(p)).
  double arc_width(int p, int q) const {
    if (p == q) return 0.0;
    double w = off(q) - off(p);
    if (w < 0.0) w += kTwoPi;
    return w;
  }

  void reset() {
    arcs_.clear();
    beams_.clear();
    delegations_.clear();
  }

  void arc(int p, int q) { arcs_.push_back({p, q}); }
  void beam(int ray) { beams_.push_back(ray); }
  void delegate(int coverer, int covered) {
    delegations_.push_back({coverer, covered});
  }

  /// Verify the staged plan; on success fill antennas/child_targets/label.
  bool commit(const char* label) {
    const int m = child_count();
    if (arcs_.size() + beams_.size() > 2) return false;

    double total_width = 0.0;
    for (const auto& [p, q] : arcs_) total_width += arc_width(p, q);
    if (total_width > phi_ + kTol) return false;

    // Geometric coverage (member scratch: commit runs several times per
    // vertex and must not allocate).
    auto& covered = covered_;
    covered.clear();
    covered.resize(m + 1);  // slot m == target; zero-initialized
    auto mark = [&](int ray) { covered[ray < 0 ? m : ray] = 1; };
    for (const auto& [p, q] : arcs_) {
      const double start = abs_angle(p);
      const double width = arc_width(p, q);
      for (int r = -1; r < m; ++r) {
        if (geom::in_ccw_interval(abs_angle(r), start, width)) mark(r);
      }
    }
    for (int b : beams_) mark(b);
    if (!covered[m]) return false;  // the target must be reached from u

    // Delegations: coverer directly covered, used once, chord within R.
    auto& is_coverer = is_coverer_;
    auto& is_delegated = is_delegated_;
    is_coverer.clear();
    is_coverer.resize(m);
    is_delegated.clear();
    is_delegated.resize(m);
    for (const auto& [coverer, covee] : delegations_) {
      if (coverer < 0 || covee < 0 || coverer == covee) return false;
      if (!covered[coverer] || covered[covee]) return false;
      if (is_coverer[coverer] || is_delegated[covee]) return false;
      if (is_delegated[coverer] || is_coverer[covee]) return false;
      if (chord(coverer, covee) > R_) return false;
      is_coverer[coverer] = 1;
      is_delegated[covee] = 1;
    }
    for (int c = 0; c < m; ++c) {
      if (!covered[c] && !is_delegated[c]) return false;
    }

    // Emit.
    antennas.clear();
    for (const auto& [p, q] : arcs_) {
      const double start = abs_angle(p);
      const double width = arc_width(p, q);
      double radius = 0.0;
      for (int r = -1; r < m; ++r) {
        if (geom::in_ccw_interval(abs_angle(r), start, width)) {
          radius = std::max(radius, dist_to(r));
        }
      }
      antennas.push_back(geom::make_arc(start, width, radius));
    }
    for (int b : beams_) {
      DIRANT_ASSERT_MSG(!(pts_[u_] == point_of(b)), "beam at coincident point");
      antennas.push_back({abs_angle(b), 0.0, dist_to(b)});
    }
    child_targets.clear();
    for (int i = 0; i < m; ++i) child_targets.push_back(pts_[u_]);
    for (const auto& [coverer, covee] : delegations_) {
      child_targets[coverer] = point_of(covee);
    }
    this->label = label;
    return true;
  }

  /// Exhaustive local search over all <=2-antenna plans with one-level
  /// delegations; returns true and commits the minimum-spread plan found.
  /// Allocation-free (inline candidate/coverage buffers, explicit-recursion
  /// matcher): the adaptive probe loop runs it on every failed probe.
  bool fallback();

  /// Backtracking matcher for `fallback`: assign every uncovered child a
  /// distinct coverer within chord range.  Records the successful matching
  /// in `assignment` when non-null.
  bool match_uncovered(const SmallVec<int, 5>& uncovered,
                       const SmallVec<int, 5>& coverers, char* used_cov,
                       int i,
                       SmallVec<std::pair<int, int>, 5>* assignment) const;

  // Degree-bounded: every buffer is stack-inline, so a NodePlanner is
  // allocation-free to construct and run, the exhaustive fallback search
  // included (the adaptive probe loop fires it on every failed probe).
  SmallVec<Sector, 4> antennas;
  SmallVec<Point, 5> child_targets;
  const char* label = nullptr;  // a string literal

 private:
  std::span<const Point> pts_;
  int u_ = -1;
  Point target_;
  SmallVec<int, 5> kids_;
  double phi_, R_, ref_;
  SmallVec<double, 5> order_off_, abs_angle_;
  SmallVec<std::pair<int, int>, 4> arcs_;
  SmallVec<int, 4> beams_;
  SmallVec<std::pair<int, int>, 4> delegations_;
  SmallVec<char, 6> covered_, is_coverer_, is_delegated_;
};

// Tiny degree-bounded sizes (m <= 5), explicit recursion — the
// std::function + std::vector machinery this replaces allocated on every
// call, and the adaptive probe loop runs the fallback on every failed
// probe.
bool NodePlanner::match_uncovered(
    const SmallVec<int, 5>& uncovered, const SmallVec<int, 5>& coverers,
    char* used_cov, int i,
    SmallVec<std::pair<int, int>, 5>* assignment) const {
  if (i == uncovered.size()) return true;
  for (int j = 0; j < coverers.size(); ++j) {
    if (used_cov[j]) continue;
    if (chord(coverers[j], uncovered[i]) > R_) continue;
    used_cov[j] = 1;
    if (assignment) assignment->emplace_back(coverers[j], uncovered[i]);
    if (match_uncovered(uncovered, coverers, used_cov, i + 1, assignment)) {
      return true;
    }
    if (assignment) assignment->pop_back();
    used_cov[j] = 0;
  }
  return false;
}

bool NodePlanner::fallback() {
  const int m = child_count();
  // Candidate single antennas: every ordered ray pair (arc; p==q is a beam),
  // plus "unused".  m <= 5, so at most 1 + 6*6 = 37 candidates — inline.
  struct Cand {
    int p, q;
    bool used;
  };
  SmallVec<Cand, 37> cands;
  cands.push_back({0, 0, false});
  for (int p = -1; p < m; ++p) {
    for (int q = -1; q < m; ++q) cands.push_back({p, q, true});
  }
  double best_width = std::numeric_limits<double>::infinity();
  std::optional<std::pair<Cand, Cand>> best;

  // Coverage of a candidate pair: slots 0..m-1 children, slot m the target.
  const auto cover_with = [&](const Cand& a, const Cand& b, char* covered,
                              double& width) {
    width = 0.0;
    for (int s = 0; s <= m; ++s) covered[s] = 0;
    for (const Cand* c : {&a, &b}) {
      if (!c->used) continue;
      width += arc_width(c->p, c->q);
      const double start = abs_angle(c->p);
      const double w = arc_width(c->p, c->q);
      for (int r = -1; r < m; ++r) {
        // Zero-width beams need no special case: a ray is always inside
        // its own [start, start] interval (ccw_delta == 0 <= tol).
        if (geom::in_ccw_interval(abs_angle(r), start, w)) {
          covered[r < 0 ? m : r] = 1;
        }
      }
    }
  };
  const auto split_covered = [&](const char* covered,
                                 SmallVec<int, 5>& uncovered,
                                 SmallVec<int, 5>& coverers) {
    uncovered.clear();
    coverers.clear();
    for (int c = 0; c < m; ++c) {
      if (!covered[c]) uncovered.push_back(c);
    }
    for (int c = 0; c < m; ++c) {
      if (covered[c]) coverers.push_back(c);
    }
  };

  char covered[6];
  SmallVec<int, 5> uncovered, coverers;
  char used_cov[5];
  const auto coverage_ok = [&](const Cand& a, const Cand& b, double& width) {
    cover_with(a, b, covered, width);
    if (width > phi_ + kTol || !covered[m]) return false;
    // Match uncovered children to distinct covered coverers.
    split_covered(covered, uncovered, coverers);
    if (uncovered.size() > coverers.size()) return false;
    for (int j = 0; j < coverers.size(); ++j) used_cov[j] = 0;
    return match_uncovered(uncovered, coverers, used_cov, 0, nullptr);
  };

  for (const auto& a : cands) {
    for (const auto& b : cands) {
      double width = 0.0;
      if (coverage_ok(a, b, width) && width < best_width) {
        best_width = width;
        best = {a, b};
      }
    }
  }
  if (!best) return false;

  // Rebuild the winning plan through the normal staging path (recomputes the
  // delegation matching deterministically).
  reset();
  for (const Cand* c : {&best->first, &best->second}) {
    if (!c->used) continue;
    if (c->p == c->q) {
      beam(c->p);
    } else {
      arc(c->p, c->q);
    }
  }
  // Delegations: recompute coverage, then greedy-but-backtracking matching.
  double width = 0.0;
  cover_with(best->first, best->second, covered, width);
  split_covered(covered, uncovered, coverers);
  for (int j = 0; j < coverers.size(); ++j) used_cov[j] = 0;
  SmallVec<std::pair<int, int>, 5> assignment;
  if (!match_uncovered(uncovered, coverers, used_cov, 0, &assignment)) {
    return false;
  }
  for (const auto& [cov, cee] : assignment) delegate(cov, cee);
  return commit("fallback");
}

// ---------------------------------------------------------------------------

struct Ctx {
  std::span<const Point> pts;
  std::span<const int> parent_of;  ///< tree parent per vertex (same index
                                   ///< space as `pts`; only read at degree 5)
  double phi;
  double R;
  bool part1;
  CaseStats* stats;
};

/// Try the proof's case order for a vertex with m children; falls back to
/// the exhaustive local search, and returns false only if even that fails
/// (impossible on valid inputs at the paper's radius bound; expected when
/// probing tighter caps in the adaptive mode).
bool plan_vertex(Ctx& ctx, NodePlanner& pl, int u) {
  const int m = pl.child_count();
  const double phi = ctx.phi;

  auto try_plan = [&](auto&& stage, const char* label) {
    pl.reset();
    stage();
    return pl.commit(label);
  };

  if (m == 0) {
    return try_plan([&] { pl.beam(-1); }, "leaf");
  }
  if (m == 1) {
    return try_plan(
        [&] {
          pl.beam(-1);
          pl.beam(0);
        },
        "deg2");
  }

  if (m == 2) {
    // Degree 3: merge the smallest of the three gaps (proof: min <= 2*pi/3).
    struct Opt {
      double width;
      int p, q, beam;
    };
    std::array<Opt, 3> opts = {{
        {pl.arc_width(-1, 0), -1, 0, 1},  // target ray with c1, beam c2
        {pl.arc_width(0, 1), 0, 1, -1},   // c1 with c2, beam target
        {pl.arc_width(1, -1), 1, -1, 0},  // c2 with target, beam c1
    }};
    std::sort(opts.begin(), opts.end(),
              [](const Opt& a, const Opt& b) { return a.width < b.width; });
    for (const auto& o : opts) {
      if (try_plan(
              [&] {
                pl.arc(o.p, o.q);
                pl.beam(o.beam);
              },
              "deg3")) {
        return true;
      }
    }
  } else if (m == 3) {
    // Degree 4.
    struct Arc1 {
      double width;
      int p, q, beam;
      const char* label;
    };
    SmallVec<Arc1, 4> simple;
    if (ctx.part1) {
      simple.push_back({pl.arc_width(-1, 1), -1, 1, 2, "deg4-p-t2"});
      simple.push_back({pl.arc_width(1, -1), 1, -1, 0, "deg4-p-2t"});
    }
    simple.push_back({pl.arc_width(2, 0), 2, 0, 1, "deg4-c3c1"});
    simple.push_back({pl.arc_width(0, 2), 0, 2, -1, "deg4-c1c3"});
    // Proof order: feasible simple covers first (part 2 checks the two
    // three-ray arcs; part 1 one of the two target-anchored arcs always
    // fits within pi <= phi).
    insertion_sort(simple.begin(), simple.end(),
                   [](const Arc1& a, const Arc1& b) {
                     return a.width < b.width;
                   });
    for (const auto& o : simple) {
      if (o.width > phi + kTol) continue;
      if (try_plan(
              [&] {
                pl.arc(o.p, o.q);
                pl.beam(o.beam);
              },
              o.label)) {
        return true;
      }
    }
    // Delegation branch (proof part 2, third case): cover {c3, target} or
    // {target, c1}; beam the far child; the middle child rides a sibling.
    struct Del {
      double width;
      int p, q, beam;
      int cov_a, cov_b;  // candidate coverers for c2 (slot 1)
      const char* label;
    };
    std::array<Del, 2> dels = {{
        {pl.arc_width(2, -1), 2, -1, 0, 0, 2, "deg4-del-3t"},
        {pl.arc_width(-1, 0), -1, 0, 2, 0, 2, "deg4-del-t1"},
    }};
    insertion_sort(dels.begin(), dels.end(),
                   [](const Del& a, const Del& b) { return a.width < b.width; });
    for (const auto& o : dels) {
      if (o.width > phi + kTol) continue;
      // Prefer the nearer coverer.
      const int first =
          pl.chord(o.cov_a, 1) <= pl.chord(o.cov_b, 1) ? o.cov_a : o.cov_b;
      const int second = first == o.cov_a ? o.cov_b : o.cov_a;
      for (int coverer : {first, second}) {
        if (try_plan(
                [&] {
                  pl.arc(o.p, o.q);
                  pl.beam(o.beam);
                  pl.delegate(coverer, 1);
                },
                o.label)) {
          return true;
        }
      }
    }
  } else if (m == 4) {
    // Degree 5.  The proof splits on whether the tree parent's direction
    // falls inside the sector [c4 -> c1] that contains the target ray.
    const int parent = ctx.parent_of[u];
    DIRANT_ASSERT_MSG(parent >= 0, "degree-5 vertex cannot be the leaf root");
    const double th_par = geom::ccw_delta(
        pl.abs_angle(-1), geom::angle_to(ctx.pts[u], ctx.pts[parent]));
    const bool in_a =
        th_par >= pl.off(3) - kTol || th_par <= pl.off(0) + kTol;

    auto try_simple = [&](int p, int q, int beam, const char* label) {
      if (pl.arc_width(p, q) > phi + kTol) return false;
      return try_plan(
          [&] {
            pl.arc(p, q);
            pl.beam(beam);
          },
          label);
    };
    auto try_delegate1 = [&](int p, int q, int beam, int covee, int cov_a,
                             int cov_b, const char* label) {
      if (pl.arc_width(p, q) > phi + kTol) return false;
      const int first =
          pl.chord(cov_a, covee) <= pl.chord(cov_b, covee) ? cov_a : cov_b;
      const int second = first == cov_a ? cov_b : cov_a;
      for (int coverer : {first, second}) {
        if (try_plan(
                [&] {
                  pl.arc(p, q);
                  pl.beam(beam);
                  pl.delegate(coverer, covee);
                },
                label)) {
          return true;
        }
      }
      return false;
    };

    if (!in_a) {
      // Case B: the parent hides in a child gap; one wide arc covers four
      // rays (Fact 2 bounds it by pi).
      const bool b42_first = pl.arc_width(3, 1) <= pl.arc_width(2, 0);
      if (b42_first) {
        if (try_simple(3, 1, 2, "deg5-B-42")) return true;
        if (try_simple(2, 0, 1, "deg5-B-31")) return true;
      } else {
        if (try_simple(2, 0, 1, "deg5-B-31")) return true;
        if (try_simple(3, 1, 2, "deg5-B-42")) return true;
      }
      // Part 2 fallback within case B: cover [c4 -> c1], beam one middle
      // child, delegate the other.
      if (try_delegate1(3, 0, 1, 2, 1, 3, "deg5-B-del")) return true;
      if (try_delegate1(3, 0, 2, 1, 0, 2, "deg5-B-del~")) return true;
    } else {
      if (ctx.part1) {
        // Part 1 case A: arc [c4 -> c1] (<= pi), beam + delegation across
        // the smallest inner gap.
        struct G {
          double chord;
          int coverer, covee, beam;
          const char* label;
        };
        std::array<G, 3> gaps = {{
            {pl.chord(0, 1), 0, 1, 2, "deg5-A-g12"},
            {pl.chord(1, 2), 1, 2, 1, "deg5-A-g23"},
            {pl.chord(3, 2), 3, 2, 1, "deg5-A-g34"},
        }};
        std::sort(gaps.begin(), gaps.end(),
                  [](const G& a, const G& b) { return a.chord < b.chord; });
        for (const auto& g : gaps) {
          if (try_plan(
                  [&] {
                    pl.arc(3, 0);
                    pl.beam(g.beam);
                    pl.delegate(g.coverer, g.covee);
                  },
                  g.label)) {
            return true;
          }
        }
      }
      // Part 2 case A (also a robust secondary path for part 1):
      // three single-delegation options, ordered by arc width.
      struct Opt {
        double width;
        int p, q, beam, covee, cov_a, cov_b;
        const char* label;
      };
      std::array<Opt, 3> opts = {{
          {pl.arc_width(2, -1), 2, -1, 0, 1, 0, 2, "deg5-A-3t"},
          {pl.arc_width(3, 0), 3, 0, 2, 1, 0, 2, "deg5-A-41"},
          {pl.arc_width(-1, 1), -1, 1, 3, 2, 1, 3, "deg5-A-t2"},
      }};
      insertion_sort(opts.begin(), opts.end(),
                     [](const Opt& a, const Opt& b) {
                       return a.width < b.width;
                     });
      for (const auto& o : opts) {
        if (try_delegate1(o.p, o.q, o.beam, o.covee, o.cov_a, o.cov_b,
                          o.label)) {
          return true;
        }
      }
      // Part 2 case A.2: all three anchored arcs exceed phi.  Work in the
      // frame where angle(c4->target) <= angle(target->c1), mirroring if
      // necessary (the proof's "w.l.o.g.").
      for (bool mirrored : {false, true}) {
        // Frame slot f in 0..3 maps to real slot.
        auto real = [&](int f) { return mirrored ? 3 - f : f; };
        const double fb4 =
            mirrored ? pl.off(0) : kTwoPi - pl.off(3);  // angle(f4 -> T)
        const double fb1 = mirrored ? kTwoPi - pl.off(3) : pl.off(0);
        if (fb4 > fb1 + kTol) continue;
        // Frame arc [f4 -> T]: real [c4 -> T] natural, [T -> c1] mirrored.
        auto arc_f4_t = [&] {
          if (mirrored) {
            pl.arc(-1, real(3));
          } else {
            pl.arc(3, -1);
          }
        };
        if (fb4 >= phi / 2.0 - kTol) {  // case 2(a)
          if (try_plan(
                  [&] {
                    arc_f4_t();
                    pl.beam(real(0));
                    pl.delegate(real(0), real(1));
                    pl.delegate(real(3), real(2));
                  },
                  mirrored ? "deg5-A2a~" : "deg5-A2a")) {
            return true;
          }
        }
        // case 2(b)(i): split the budget across two arcs.
        const double g23 =
            pl.arc_width(real(mirrored ? 2 : 1), real(mirrored ? 1 : 2));
        if (g23 <= phi / 2.0 + kTol) {
          if (try_plan(
                  [&] {
                    arc_f4_t();
                    if (mirrored) {
                      pl.arc(real(2), real(1));
                    } else {
                      pl.arc(real(1), real(2));
                    }
                    pl.delegate(real(1), real(0));
                  },
                  mirrored ? "deg5-A2bi~" : "deg5-A2bi")) {
            return true;
          }
        }
        // case 2(b)(ii) — same antennas as 2(a).
        if (try_plan(
                [&] {
                  arc_f4_t();
                  pl.beam(real(0));
                  pl.delegate(real(0), real(1));
                  pl.delegate(real(3), real(2));
                },
                mirrored ? "deg5-A2bii~" : "deg5-A2bii")) {
          return true;
        }
      }
    }
  } else {
    DIRANT_ASSERT_MSG(false, "tree degree exceeds 5");
  }

  // Theory says we never get here at the paper bound; the exhaustive
  // search keeps the construction total, and a false return surfaces only
  // under adaptive radius caps.
  if (pl.fallback()) {
    ctx.stats->fallback_plans += 1;
    return true;
  }
  return false;
}

double bound_factor_impl(double phi);

/// Run the full rooted construction with an explicit radius cap
/// (`radius_cap` < 0 selects the paper bound).  Returns false if some vertex
/// admits no feasible plan under the cap.  Rows land in `res`'s own table,
/// reset first and indexed by sweep id, unless `changed` is given: then
/// vertex v's row is synced in place into row `row_of[v]`, every rewritten
/// row is logged, and `measured_radius` is the caller's.
bool detailed_orient(std::span<const Point> pts, const mst::Tree& tree,
                     double phi, double radius_cap, OrienterScratch& scratch,
                     Result& res, std::span<const int> row_of = {},
                     std::vector<int>* changed = nullptr) {
  tree.degrees_into(scratch.degrees);
  int max_deg = 0;
  for (int d : scratch.degrees) max_deg = std::max(max_deg, d);
  DIRANT_ASSERT_MSG(max_deg <= 5, "theorem 3 needs a degree-5 MST");
  const int n = static_cast<int>(pts.size());
  const Algorithm algo =
      phi >= kPi ? Algorithm::kTwoPart1 : Algorithm::kTwoPart2;
  if (changed == nullptr) {
    reset_result(res, n, /*reserve_per_node=*/2, algo, bound_factor_impl(phi),
                 tree.lmax());
  } else {
    res.algorithm = algo;
    res.bound_factor = bound_factor_impl(phi);
    res.lmax = tree.lmax();
    res.cases.reset();
    changed->clear();
  }
  auto& out = res.orientation;
  const auto row = [&](int v) { return changed == nullptr ? v : row_of[v]; };
  const auto write = [&](int v, const auto& sectors) {
    if (changed == nullptr) {
      for (const geom::Sector& s : sectors) out.add(v, s);
    } else if (out.sync_node(row(v), sectors)) {
      changed->push_back(row(v));
    }
  };
  if (n <= 1) {
    if (n == 1) write(0, std::span<const geom::Sector>{});  // no antenna
    return true;
  }

  const double R =
      radius_cap >= 0.0
          ? radius_cap * (1.0 + kRadiusRelTol) + kRadiusAbsTol
          : res.bound_factor * res.lmax * (1.0 + kRadiusRelTol) +
                kRadiusAbsTol;
  scratch.rooted.rebuild_at_leaf(tree);
  const auto& rt = scratch.rooted;

  // The sweep runs in BFS positions: position i is vertex rt.order[i], its
  // children are one contiguous block of positions, and its parent's plan
  // has already written its target.  Points and parent positions are
  // gathered into that order once, so the sweep streams.
  auto& at = scratch.order_pts;
  auto& parent_pos = scratch.order_parent;
  auto& targets = scratch.targets;
  at.resize(n);
  parent_pos.resize(n);
  targets.resize(n);
  for (int i = 0; i < n; ++i) at[i] = pts[rt.order[i]];
  parent_pos[0] = -1;
  for (int i = 0; i < n; ++i) {
    for (int c = rt.first_child[i]; c < rt.first_child[i + 1]; ++c) {
      parent_pos[c] = i;
    }
  }
  Ctx ctx{at, parent_pos, phi, R, phi >= kPi, &res.cases};

  // Root (a leaf): one beam to its only child; the child covers the root.
  DIRANT_ASSERT(rt.first_child[1] == 2);
  const geom::Sector root_beam = geom::beam_to(at[0], at[1]);
  write(rt.root, std::span(&root_beam, 1));
  res.cases.bump("root");
  targets[1] = at[0];

  // Sectors land at scattered sensor ids, so each one's output row is
  // prefetched a few positions ahead.
  constexpr int kAhead = 16;
  NodePlanner pl(at, phi, R);
  int kids[5];
  for (int i = 1; i < n; ++i) {
    if (i + kAhead < n) out.prefetch(row(rt.order[i + kAhead]));
    const int first = rt.first_child[i];
    const int m = rt.first_child[i + 1] - first;
    for (int j = 0; j < m; ++j) kids[j] = first + j;
    pl.init(i, targets[i], {kids, static_cast<size_t>(m)});
    if (!plan_vertex(ctx, pl, i)) return false;
    res.cases.bump(pl.label);
    write(rt.order[i], pl.antennas);
    for (int slot = 0; slot < m; ++slot) {
      targets[pl.kid(slot)] = pl.child_targets[slot];
    }
  }
  if (changed == nullptr) {
    res.measured_radius = out.max_radius();
  } else {
    std::sort(changed->begin(), changed->end());
  }
  return true;
}

}  // namespace

double theorem3_bound_factor(double phi) {
  DIRANT_ASSERT_MSG(phi >= 2.0 * kPi / 3.0 - 1e-12,
                    "Theorem 3 needs phi >= 2*pi/3");
  if (phi >= kPi) return 2.0 * std::sin(2.0 * kPi / 9.0);
  return 2.0 * std::sin(kPi / 2.0 - phi / 4.0);
}

namespace {
double bound_factor_impl(double phi) { return theorem3_bound_factor(phi); }
}  // namespace

void orient_two_antennae(std::span<const Point> pts, const mst::Tree& tree,
                         double phi, OrienterScratch& scratch, Result& out,
                         std::span<const int> row_of,
                         std::vector<int>* changed) {
  DIRANT_ASSERT(changed == nullptr || row_of.size() == pts.size());
  const bool ok =
      detailed_orient(pts, tree, phi, -1.0, scratch, out, row_of, changed);
  DIRANT_ASSERT_MSG(ok, "Theorem 3 failed at its own radius bound");
}

Result orient_two_antennae(std::span<const Point> pts, const mst::Tree& tree,
                           double phi) {
  Result res;
  OrienterScratch scratch;
  orient_two_antennae(pts, tree, phi, scratch, res);
  return res;
}

void record_two_antennae_memory(double phi, const OrienterScratch& scratch,
                                const Result& res,
                                std::span<const int> orig_of, int n_orig,
                                TwoAntennaeMemory& mem) {
  const int n = static_cast<int>(orig_of.size());
  mem.valid = false;
  mem.planned.clear();
  mem.changed.clear();
  if (n <= 1 || (res.algorithm != Algorithm::kTwoPart1 &&
                 res.algorithm != Algorithm::kTwoPart2)) {
    return;
  }
  const auto& rt = scratch.rooted;
  const auto& targets = scratch.targets;
  DIRANT_ASSERT(static_cast<int>(rt.order.size()) == n);
  mem.nodes.resize(static_cast<size_t>(n_orig));
  mem.member.assign(static_cast<size_t>(n_orig), 0);
  // BFS order visits a parent before its children, so each child appends
  // itself, with the obligation it was handed, to a record already reset.
  // The root covers its own position and hands it to its only child.
  for (int i = 0; i < n; ++i) {
    const int v = rt.order[i];
    TwoAntennaeMemory::Node& nd = mem.nodes[orig_of[v]];
    mem.member[orig_of[v]] = 1;
    nd.nkids = 0;
    nd.target = targets[i == 0 ? 1 : i];
    if (i == 0) {
      nd.parent = -1;
      continue;
    }
    nd.parent = orig_of[rt.parent[v]];
    TwoAntennaeMemory::Node& pn = mem.nodes[nd.parent];
    pn.kids[pn.nkids++] = orig_of[v];
  }
  mem.phi = phi;
  mem.radius =
      res.bound_factor * res.lmax * (1.0 + kRadiusRelTol) + kRadiusAbsTol;
  mem.root_orig = orig_of[rt.root];
  mem.valid = true;
}

bool orient_two_antennae_warm(double phi, OrienterScratch& scratch,
                              TwoAntennaeMemory& mem,
                              const OrientWarmDelta& delta, Result& res) {
  const int n = delta.alive_count;
  const int n_orig = static_cast<int>(delta.positions.size());
  const std::span<const char> alive = delta.alive;
  if (n <= 1 || !mem.valid ||
      static_cast<int>(mem.nodes.size()) != n_orig ||
      static_cast<int>(mem.member.size()) != n_orig ||
      res.orientation.size() != n_orig) {
    return false;
  }
  // Global gates — every plan depends on them: phi, the resolved radius
  // cap R (folds in lmax), and the root identity (rebuild_at_leaf picks
  // the first degree-1 vertex — in original ids, the smallest alive leaf).
  // The recorded tree had every degree ≤ 5 and root_orig as its smallest
  // leaf, and only endpoints of the net delta changed degree, so checking
  // those endpoints checks the whole tree.  All read-only — a failure here
  // leaves the records intact.
  const double bf = bound_factor_impl(phi);
  const double R = bf * delta.lmax * (1.0 + kRadiusRelTol) + kRadiusAbsTol;
  if (mem.phi != phi || mem.radius != R) return false;
  const int root_o = mem.root_orig;
  if (root_o < 0 || root_o >= n_orig || !alive[root_o] ||
      delta.degree[root_o] != 1) {
    return false;
  }
  for (const auto list : {delta.removed, delta.added}) {
    for (const auto& [a, b] : list) {
      for (const int x : {a, b}) {
        if (x < 0 || x >= n_orig || !alive[x]) continue;
        const int d = delta.degree[x];
        if (d > 5 || (d == 1 && x < root_o)) return false;
      }
    }
  }

  auto& nodes = mem.nodes;
  auto& member = mem.member;
  const std::span<const Point> pos = delta.positions;
  if (static_cast<int>(mem.mark_stamp.size()) != n_orig) {
    mem.mark_stamp.assign(static_cast<size_t>(n_orig), 0);
    mem.up_stamp.assign(static_cast<size_t>(n_orig), 0);
    mem.anchor_stamp.assign(static_cast<size_t>(n_orig), 0);
    mem.unanchored_stamp.assign(static_cast<size_t>(n_orig), 0);
    mem.warm_epoch = 0;
    mem.weld_epoch = 0;
  }
  const int epoch = ++mem.warm_epoch;
  mem.dirty_list.clear();
  // Safety net against torn records (parent cycles, runaway fragments):
  // a pure function of the alive count, so escalation stays deterministic.
  int budget = 4 * n + 1024;

  const auto marked = [&](int u) { return mem.mark_stamp[u] == epoch; };
  const auto mark = [&](int u) {
    if (mem.mark_stamp[u] != epoch) {
      mem.mark_stamp[u] = epoch;
      mem.dirty_list.push_back(u);
    }
  };
  const auto tear = [&] {
    mem.valid = false;  // records are mid-surgery: force the full rebuild
    return false;
  };
  using Node = TwoAntennaeMemory::Node;
  const auto kid_remove = [](Node& p, int k) {
    for (int i = 0; i < p.nkids; ++i) {
      if (p.kids[i] == k) {
        for (int j = i + 1; j < p.nkids; ++j) p.kids[j - 1] = p.kids[j];
        --p.nkids;
        return true;
      }
    }
    return false;
  };
  const auto kid_add = [](Node& p, int k) {
    if (p.nkids >= 5) return false;  // transient cap; final degrees are <= 5
    p.kids[p.nkids++] = k;  // p is marked: its re-plan hands k a target
    return true;
  };

  // ---- Phase A: detach removed edges.  One endpoint is the other's
  // recorded parent; both lose their plan.  A node that died this batch has
  // every incident recorded edge in `removed`, so its record is fully
  // detached before it leaves the membership.
  for (const auto& [a, b] : delta.removed) {
    if (a < 0 || b < 0 || a >= n_orig || b >= n_orig || !member[a] ||
        !member[b]) {
      return tear();
    }
    int child, par;
    if (nodes[a].parent == b) {
      child = a;
      par = b;
    } else if (nodes[b].parent == a) {
      child = b;
      par = a;
    } else {
      return tear();
    }
    if (!kid_remove(nodes[par], child)) return tear();
    nodes[child].parent = -1;
    mark(par);
    mark(child);
  }
  for (const auto& [a, b] : delta.removed) {
    if (!alive[a]) member[a] = 0;
    if (!alive[b]) member[b] = 0;
  }

  // ---- Phase B: re-hang added edges.  Recovered nodes enter as isolated
  // singletons; each edge welds an unanchored fragment onto the anchored
  // component by re-rooting the fragment at its joining endpoint (the
  // parent chain above it flips).  Rounds repeat until every edge attaches;
  // a round without progress, or two anchored endpoints, means the delta
  // contradicts the records.
  const auto ensure_member = [&](int u) {
    if (u < 0 || u >= n_orig || !alive[u]) return false;
    if (!member[u]) {
      nodes[u].parent = -1;
      nodes[u].nkids = 0;
      member[u] = 1;
      mark(u);
    }
    return true;
  };
  // Anchorage verdicts stamp the walked chain: a positive one for the
  // whole batch (welds never detach), a negative one until the next weld
  // (only a weld re-parents), so an unanchored fragment's chain is walked
  // once per weld, not once per pending edge.
  int weld = ++mem.weld_epoch;
  const auto anchored = [&](int s) -> int {  // 1 yes / 0 no / -1 budget
    auto& walk = mem.walk_buf;
    walk.clear();
    int x = s;
    while (x != root_o && mem.anchor_stamp[x] != epoch) {
      if (mem.unanchored_stamp[x] == weld) break;
      walk.push_back(x);
      const int p = nodes[x].parent;
      if (p < 0) break;
      if (--budget < 0) return -1;
      x = p;
    }
    if (x != root_o && mem.anchor_stamp[x] != epoch) {
      for (int w : walk) mem.unanchored_stamp[w] = weld;
      return 0;
    }
    for (int w : walk) mem.anchor_stamp[w] = epoch;
    return 1;
  };
  auto& pend = mem.pend_edges;
  pend.clear();
  for (size_t i = 0; i < delta.added.size(); ++i) {
    if (!ensure_member(delta.added[i].first) ||
        !ensure_member(delta.added[i].second)) {
      return tear();
    }
    pend.push_back(static_cast<int>(i));
  }
  while (!pend.empty()) {
    size_t kept = 0;
    bool progress = false;
    for (size_t i = 0; i < pend.size(); ++i) {
      const auto& [a, b] = delta.added[pend[i]];
      const int aa = anchored(a);
      const int ab = aa == 1 ? 0 : anchored(b);
      if (aa < 0 || ab < 0) return tear();
      if (aa == 0 && ab == 0) {
        pend[kept++] = pend[i];
        continue;
      }
      const int c = aa ? a : b;  // anchored side keeps its orientation
      int cur = aa ? b : a;      // fragment re-roots here
      int par_new = c;
      while (cur >= 0) {
        if (--budget < 0) return tear();
        const int old_par = nodes[cur].parent;
        if (old_par >= 0 && !kid_remove(nodes[old_par], cur)) return tear();
        nodes[cur].parent = par_new;
        if (!kid_add(nodes[par_new], cur)) return tear();
        mark(par_new);
        mark(cur);
        par_new = cur;
        cur = old_par;
      }
      weld = ++mem.weld_epoch;
      progress = true;
    }
    pend.resize(kept);
    if (!pend.empty() && !progress) return tear();
  }

  // ---- Phase C: position-dirty closure.  A moved vertex invalidates its
  // own plan, its parent's (child positions are planner inputs) and its
  // children's (the incoming obligation and the degree-5 split read the
  // parent's position).
  for (int u : delta.moved) {
    if (u < 0 || u >= n_orig || !member[u]) return tear();
    mark(u);
    const Node& nd = nodes[u];
    if (nd.parent >= 0) mark(nd.parent);
    for (int i = 0; i < nd.nkids; ++i) mark(nd.kids[i]);
  }

  // Ancestor closure: stamp every marked node's chain to the root so the
  // top-down sweep below knows which clean vertices still shelter dirty
  // descendants.  Memoized — each chain node is stamped once per batch.
  for (int u : mem.dirty_list) {
    int x = u;
    while (x >= 0 && x != root_o && mem.up_stamp[x] != epoch) {
      mem.up_stamp[x] = epoch;
      if (--budget < 0) return tear();
      x = nodes[x].parent;
    }
  }
  const auto in_chain = [&](int u) { return mem.up_stamp[u] == epoch; };

  // ---- Phase D: frontier re-plan, depth-first from the root over the
  // marked closure: a visited vertex either re-plans (marked, or its
  // freshly handed obligation differs bitwise from its record) or merely
  // descends towards marked descendants.  Subtrees outside the closure are
  // never visited and their rows are never touched: `res` already holds
  // them.
  Node& rn = nodes[root_o];
  if (rn.parent != -1 || rn.nkids != 1) return tear();
  res.algorithm = phi >= kPi ? Algorithm::kTwoPart1 : Algorithm::kTwoPart2;
  res.bound_factor = bf;
  res.lmax = delta.lmax;
  res.cases.reset();
  mem.planned.clear();
  mem.changed.clear();
  {
    const geom::Sector beam = geom::beam_to(pos[root_o], pos[rn.kids[0]]);
    if (res.orientation.sync_node(root_o, std::span(&beam, 1))) {
      mem.changed.push_back(root_o);
    }
  }
  res.cases.bump("root");
  rn.target = pos[root_o];
  mem.planned.push_back(root_o);

  auto& work = scratch.work;          // (orig id, obligation) re-plan stack
  auto& down = mem.descend_stack;     // clean chain vertices to walk through
  work.clear();
  down.clear();
  {
    const int k = rn.kids[0];
    const Point t = pos[root_o];
    if (marked(k) || nodes[k].target.x != t.x || nodes[k].target.y != t.y) {
      work.emplace_back(k, t);
    } else if (in_chain(k)) {
      down.push_back(k);
    }
  }

  auto& ph = scratch.parent_hint;
  if (static_cast<int>(ph.size()) < n_orig) ph.resize(n_orig);
  Ctx ctx{pos, ph, phi, R, phi >= kPi, &res.cases};
  NodePlanner pl(pos, phi, R);
  int kid_buf[5];
  while (!work.empty() || !down.empty()) {
    if (!down.empty()) {
      const int u = down.back();
      down.pop_back();
      const Node& nd = nodes[u];
      for (int i = 0; i < nd.nkids; ++i) {
        const int k = nd.kids[i];
        if (marked(k)) {
          // u keeps its plan, so k's recorded obligation is still exact.
          work.emplace_back(k, nodes[k].target);
        } else if (in_chain(k)) {
          down.push_back(k);
        }
      }
      continue;
    }
    const auto [u, target] = work.back();
    work.pop_back();
    Node& nm = nodes[u];
    const int m = nm.nkids;
    // Reproduce the fresh child order: adjacency lists list incident edges
    // in the tree's canonical (d2, min, max) edge order (compact ids are a
    // monotone relabeling of original ids, so the key compares identically
    // in either space), and the planner's stable ccw sort does the rest.
    for (int i = 0; i < m; ++i) {
      const int k = nm.kids[i];
      const double dk = geom::dist2(pos[u], pos[k]);
      int j = i;
      while (j > 0) {
        const int o = kid_buf[j - 1];
        const double od = geom::dist2(pos[u], pos[o]);
        if (od < dk) break;
        if (od == dk) {
          const int oa = std::min(u, o), ob = std::max(u, o);
          const int ka = std::min(u, k), kb = std::max(u, k);
          if (oa < ka || (oa == ka && ob < kb)) break;
        }
        kid_buf[j] = kid_buf[j - 1];
        --j;
      }
      kid_buf[j] = k;
    }
    ph[u] = nm.parent;
    pl.init(u, target, {kid_buf, static_cast<size_t>(m)});
    const bool ok = plan_vertex(ctx, pl, u);
    DIRANT_ASSERT_MSG(ok, "Theorem 3 failed at its own radius bound");
    res.cases.bump(pl.label);
    if (res.orientation.sync_node(u, pl.antennas)) mem.changed.push_back(u);
    mem.planned.push_back(u);
    nm.target = target;
    for (int slot = 0; slot < m; ++slot) {
      const int k = pl.kid(slot);
      const Point t = pl.child_targets[slot];
      const Point old_t = nodes[k].target;
      nm.kids[slot] = k;
      if (marked(k) || old_t.x != t.x || old_t.y != t.y) {
        work.emplace_back(k, t);
      } else if (in_chain(k)) {
        down.push_back(k);
      }
    }
  }

  std::sort(mem.planned.begin(), mem.planned.end());
  std::sort(mem.changed.begin(), mem.changed.end());
  if (const int reused = n - static_cast<int>(mem.planned.size());
      reused > 0) {
    res.cases.counts["reused"] += reused;
  }
  return true;
}

void orient_two_antennae_adaptive(std::span<const Point> pts,
                                  const mst::Tree& tree, double phi,
                                  OrienterScratch& scratch,
                                  std::vector<double>& cands, Result& out,
                                  Result& probe) {
  // Paper-bound run first: it is both the fallback answer and the upper
  // limit of the cap search.
  const bool ok = detailed_orient(pts, tree, phi, -1.0, scratch, out);
  DIRANT_ASSERT_MSG(ok, "Theorem 3 failed at its own radius bound");
  const double lmax = tree.lmax();
  if (pts.size() <= 2 || lmax <= 0.0) return;
  const double upper = out.bound_factor * lmax;

  // Candidate caps: every pairwise distance in [lmax, paper bound).
  // `cands` is caller-owned so repeated tuning calls recycle its capacity;
  // sort/unique are in-place and allocation-free.
  cands.clear();
  for (size_t i = 0; i < pts.size(); ++i) {
    for (size_t j = i + 1; j < pts.size(); ++j) {
      const double d = geom::dist(pts[i], pts[j]);
      if (d >= lmax - 1e-12 && d < upper) cands.push_back(d);
    }
  }
  std::sort(cands.begin(), cands.end());
  cands.erase(std::unique(cands.begin(), cands.end()), cands.end());

  // Binary search over the double-buffered Result: each probe writes into
  // `probe` (its arena recycled by reset_result inside detailed_orient),
  // and a successful probe swaps the buffers — the previous best becomes
  // the next probe arena.  No per-probe Result construction, no copies.
  int lo = 0, hi = static_cast<int>(cands.size()) - 1;
  while (lo <= hi) {
    const int mid = (lo + hi) / 2;
    if (detailed_orient(pts, tree, phi, cands[mid], scratch, probe)) {
      std::swap(out, probe);
      out.bound_factor = cands[mid] / lmax;  // achieved cap, certified
      hi = mid - 1;
    } else {
      lo = mid + 1;
    }
  }
}

Result orient_two_antennae_adaptive(std::span<const Point> pts,
                                    const mst::Tree& tree, double phi) {
  Result best, probe;
  OrienterScratch scratch;
  std::vector<double> cands;
  orient_two_antennae_adaptive(pts, tree, phi, scratch, cands, best, probe);
  return best;
}

}  // namespace dirant::core
