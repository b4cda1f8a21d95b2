// Shared implementation of Theorems 5 and 6 (k = 3 and k = 4, zero-spread
// antennae).  See three_antennae.hpp / four_antennae.hpp for the contract.
//
// Scheme: root the tree (any vertex; default max degree).  At each node u
// with m children (ccw order):
//   * if m <= k-1: beam from u to every child; each child's "return" antenna
//     points back at u.
//   * else: pick c = m-(k-1) chords between cyclically consecutive children
//     (greedy smallest chord first, each must be <= bound*lmax).  Chord
//     (x -> y) replaces x's return antenna: x covers y instead of u and
//     reaches u through the chord chain's tail.  u beams at each chain head
//     and each isolated child: exactly m-c <= k-1 beams.
//
// Theory guarantees feasible chords: at any node the c smallest consecutive
// child gaps span <= 2*pi/3 (k=3) resp. <= pi/2 (k=4), giving chords of at
// most sqrt(3)*lmax resp. sqrt(2)*lmax (law of cosines, edges <= lmax).

#include <algorithm>
#include <cmath>
#include <string>

#include "common/assert.hpp"
#include "common/constants.hpp"
#include "common/small_vec.hpp"
#include "core/four_antennae.hpp"
#include "core/session.hpp"
#include "core/three_antennae.hpp"
#include "geometry/angle.hpp"
#include "mst/rooted.hpp"

namespace dirant::core {
namespace {

using geom::Point;

void orient_chord_tree(std::span<const Point> pts, const mst::Tree& tree,
                       int k, int root, OrienterScratch& scratch,
                       Result& res) {
  DIRANT_ASSERT(k == 3 || k == 4);
  tree.degrees_into(scratch.degrees);
  const auto& deg = scratch.degrees;
  int max_deg = 0;
  for (int d : deg) max_deg = std::max(max_deg, d);
  DIRANT_ASSERT_MSG(max_deg <= 5, "chord construction needs a degree-5 MST");
  const int n = static_cast<int>(pts.size());
  reset_result(res, n, k,
               k == 3 ? Algorithm::kThreeZero : Algorithm::kFourZero,
               k == 3 ? std::sqrt(3.0) : std::sqrt(2.0), tree.lmax());
  if (n <= 1) return;

  const double R =
      res.bound_factor * res.lmax * (1.0 + kRadiusRelTol) + kRadiusAbsTol;
  const int beams_budget = k - 1;

  if (root < 0) {
    root = static_cast<int>(std::max_element(deg.begin(), deg.end()) -
                            deg.begin());
  }
  scratch.rooted.rebuild(tree, root);
  const auto& rt = scratch.rooted;

  for (int u : rt.order) {  // top-down: a parent before its children
    // Children in ccw order by absolute angle (cyclic; reference irrelevant);
    // their angles serve u's beams below.
    const auto children = rt.children(u);
    const int m = static_cast<int>(children.size());
    if (m == 0) continue;
    SmallVec<int, 5> kids;
    SmallVec<double, 5> angle, off;
    kids.resize(m);
    angle.resize(m);
    off.resize(m);
    mst::sort_ccw(pts, u, 0.0, children, kids.data(), angle.data(),
                  off.data());
    res.cases.bump("deg" + std::to_string(m + (rt.parent[u] >= 0 ? 1 : 0)) +
                   (rt.parent[u] >= 0 ? "" : "-root"));

    const int chords_needed = std::max(0, m - beams_budget);
    // is_chord_source[i]: child kids[i] covers kids[(i+1)%m] instead of u.
    // Child counts are bounded by the tree degree, so the per-node staging
    // lives entirely on the stack.
    SmallVec<char, 5> chord_source;
    chord_source.resize(m);
    if (chords_needed > 0) {
      DIRANT_ASSERT_MSG(m >= 2, "chords need at least two children");
      // All cyclic consecutive pairs, by chord length.
      SmallVec<std::pair<double, int>, 5> gaps;
      for (int i = 0; i < m; ++i) {
        const double d = geom::dist(pts[kids[i]], pts[kids[(i + 1) % m]]);
        gaps.emplace_back(d, i);
      }
      // Pairs give a total order (ties break on the index), so the stable
      // sort matches what std::sort produced here.
      dirant::insertion_sort(gaps.begin(), gaps.end(),
                             [](const auto& a, const auto& b) { return a < b; });
      int placed = 0;
      for (const auto& [d, i] : gaps) {
        if (placed == chords_needed) break;
        if (d > R) break;  // no more feasible chords
        if (m >= 2 && placed + 1 == m) break;  // never a full cycle
        chord_source[i] = 1;
        ++placed;
      }
      DIRANT_ASSERT_MSG(placed == chords_needed,
                        k == 3 ? "Theorem 5 chord guarantee violated"
                               : "Theorem 6 chord guarantee violated");
      res.cases.bump("chords" + std::to_string(placed));
    }

    // Beams from u: chain heads (child whose cw predecessor is not a chord
    // source) and isolated children.
    int beams = 0;
    for (int i = 0; i < m; ++i) {
      const int pred = (i + m - 1) % m;
      const bool receives_chord = chord_source[pred] == 1 && m >= 2;
      if (!receives_chord) {
        res.orientation.add(u, {angle[i], 0.0, geom::dist(pts[u], pts[kids[i]])});
        ++beams;
      }
    }
    DIRANT_ASSERT(beams <= beams_budget || m <= beams_budget);

    // Children's return antennae: chord sources point at their ccw
    // successor; everyone else points back at u.
    for (int i = 0; i < m; ++i) {
      const int child = kids[i];
      if (chord_source[i]) {
        const int succ = kids[(i + 1) % m];
        const double d = geom::dist(pts[child], pts[succ]);
        DIRANT_ASSERT_MSG(d <= R, "chord exceeds range bound");
        res.orientation.add(child, geom::beam_to(pts[child], pts[succ]));
      } else {
        res.orientation.add(child, geom::beam_to(pts[child], pts[u]));
      }
    }
  }
  res.measured_radius = res.orientation.max_radius();
}

}  // namespace

void orient_three_antennae(std::span<const Point> pts, const mst::Tree& tree,
                           int root, OrienterScratch& scratch, Result& out) {
  orient_chord_tree(pts, tree, 3, root, scratch, out);
}

void orient_four_antennae(std::span<const Point> pts, const mst::Tree& tree,
                          int root, OrienterScratch& scratch, Result& out) {
  orient_chord_tree(pts, tree, 4, root, scratch, out);
}

Result orient_three_antennae(std::span<const Point> pts,
                             const mst::Tree& tree, int root) {
  Result res;
  OrienterScratch scratch;
  orient_chord_tree(pts, tree, 3, root, scratch, res);
  return res;
}

Result orient_four_antennae(std::span<const Point> pts, const mst::Tree& tree,
                            int root) {
  Result res;
  OrienterScratch scratch;
  orient_chord_tree(pts, tree, 4, root, scratch, res);
  return res;
}

}  // namespace dirant::core
