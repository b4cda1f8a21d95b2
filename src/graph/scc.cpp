#include "graph/scc.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace dirant::graph {

namespace {

/// Vertices reachable from `start` in `g`, skipping removed ones.
int masked_reach_count(const Digraph& g, int start, const char* removed,
                       ReachScratch& scratch) {
  auto& seen = scratch.seen;
  auto& stack = scratch.stack;
  seen.assign(g.size(), 0);
  stack.clear();
  stack.push_back(start);
  seen[start] = 1;
  int cnt = 1;
  while (!stack.empty()) {
    const int u = stack.back();
    stack.pop_back();
    for (int v : g.out(u)) {
      if (!seen[v] && (removed == nullptr || !removed[v])) {
        seen[v] = 1;
        ++cnt;
        stack.push_back(v);
      }
    }
  }
  return cnt;
}

}  // namespace

bool is_strongly_connected(const Digraph& g) {
  const int n = g.size();
  if (n <= 1) return true;
  ReachScratch scratch;
  // Forward pass first: a failed forward sweep answers without ever paying
  // for the O(n + m) transpose.
  if (masked_reach_count(g, 0, nullptr, scratch) != n) return false;
  return masked_reach_count(g.reversed(), 0, nullptr, scratch) == n;
}

bool is_strongly_connected(const Digraph& g, const Digraph& transpose,
                           ReachScratch& scratch, const char* removed) {
  const int n = g.size();
  DIRANT_ASSERT(transpose.size() == n);
  int start = -1, alive = 0;
  if (removed == nullptr) {
    start = 0;
    alive = n;
  } else {
    for (int v = 0; v < n; ++v) {
      if (!removed[v]) {
        if (start == -1) start = v;
        ++alive;
      }
    }
  }
  if (alive <= 1) return true;
  return masked_reach_count(g, start, removed, scratch) == alive &&
         masked_reach_count(transpose, start, removed, scratch) == alive;
}

namespace {

/// High bit marking "on the Tarjan stack" inside the packed state word.
constexpr int kOnStack = 1 << 30;

/// Iterative Tarjan over the DFS roots 0..n_roots-1, following only edges
/// whose head `accept` admits; a root that `accept` rejects follows no
/// edge at all (an isolated vertex).  Expects `state[v] == -1` for every
/// participating vertex — any other value skips the vertex as a root — and
/// takes the rest of its state from `ws` inside the caller's frame.
/// Component ids count up from 0; with kRecord each vertex's id is written
/// to `component[v]`.  Returns the number of components found.  With every
/// vertex admitted the constant arguments fold away at compile time.
template <bool kRecord, typename Accept>
int tarjan_core(const Digraph& g, Workspace& ws, std::span<int> state,
                int* component, int n_roots, Accept&& accept) {
  DIRANT_ASSERT(g.size() < kOnStack);  // index and on-stack bit share an int
  const size_t n = static_cast<size_t>(g.size());
  const auto low = ws.take<int>(n);
  const auto stack = ws.take<int>(n);
  const auto frames = ws.take<SccScratch::Frame>(n);
  size_t stack_top = 0, frame_top = 0;  // every vertex is pushed at most once
  int count = 0;
  int next_index = 0;

  const auto push_vertex = [&](int v) {
    state[v] = next_index | kOnStack;
    low[v] = next_index;
    ++next_index;
    stack[stack_top++] = v;
    const auto outs = g.out(v);
    const int* end = accept(v) ? outs.data() + outs.size() : outs.data();
    frames[frame_top++] = {v, outs.data(), end};
  };

  for (int root = 0; root < n_roots; ++root) {
    if (state[root] != -1) continue;
    push_vertex(root);
    while (frame_top > 0) {
      SccScratch::Frame& f = frames[frame_top - 1];
      const int v = f.v;
      bool descended = false;
      const int* p = f.next;
      const int* const e = f.end;
      while (p != e) {
        const int w = *p++;
        if (!accept(w)) continue;
        const int st = state[w];
        if (st == -1) {
          f.next = p;
          push_vertex(w);
          descended = true;
          break;
        }
        if (st & kOnStack) low[v] = std::min(low[v], st & ~kOnStack);
      }
      if (descended) continue;
      if (low[v] == (state[v] & ~kOnStack)) {
        while (true) {
          const int w = stack[--stack_top];
          state[w] &= ~kOnStack;
          if constexpr (kRecord) component[w] = count;
          if (w == v) break;
        }
        ++count;
      }
      --frame_top;
      if (frame_top > 0) {
        const int parent = frames[frame_top - 1].v;
        low[parent] = std::min(low[parent], low[v]);
      }
    }
  }
  return count;
}

/// Tarjan over the whole graph; `component` is null for count-only runs
/// (the certification hot path skips the per-vertex label writes).
template <bool kRecord>
int tarjan_impl(const Digraph& g, SccScratch& scratch, int* component) {
  Workspace& ws = scratch.ws.get();
  Workspace::Frame frame(ws);
  const auto state = ws.take<int>(static_cast<size_t>(g.size()));
  std::fill(state.begin(), state.end(), -1);
  return tarjan_core<kRecord>(g, ws, state, component, g.size(),
                              [](int) { return true; });
}

/// Id of a largest component given the labels (ties keep the smallest id),
/// -1 when there is none.
int largest_of(const SccResult& out, std::vector<int>& sizes) {
  if (out.count == 0) return -1;
  sizes.assign(static_cast<size_t>(out.count), 0);
  for (int c : out.component) {
    if (c >= 0) ++sizes[c];
  }
  int best = 0;
  for (int c = 1; c < out.count; ++c) {
    if (sizes[c] > sizes[best]) best = c;  // strict: ties keep smallest id
  }
  return best;
}

}  // namespace

void strongly_connected_components(const Digraph& g, SccScratch& scratch,
                                   SccResult& res) {
  res.component.assign(g.size(), -1);
  res.count = tarjan_impl<true>(g, scratch, res.component.data());
}

int scc_count(const Digraph& g, SccScratch& scratch) {
  return tarjan_impl<false>(g, scratch, nullptr);
}

int largest_scc(const Digraph& g, SccScratch& scratch, SccResult& out,
                std::vector<int>& sizes) {
  strongly_connected_components(g, scratch, out);
  return largest_of(out, sizes);
}

int largest_scc(const Digraph& g, std::span<const char> present,
                std::span<const char> isolated, SccScratch& scratch,
                SccResult& out, std::vector<int>& sizes) {
  const int n = g.size();
  DIRANT_ASSERT(static_cast<int>(present.size()) == n &&
                static_cast<int>(isolated.size()) == n);
  // Absent vertices start "visited", so no root loop enters them, and the
  // accept test keeps every edge off them and off the isolated ones.
  Workspace& ws = scratch.ws.get();
  Workspace::Frame frame(ws);
  const auto state = ws.take<int>(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) state[v] = present[v] ? -1 : 0;
  out.component.assign(n, -1);
  out.count = tarjan_core<true>(
      g, ws, state, out.component.data(), n,
      [&](int w) { return present[w] && !isolated[w]; });
  return largest_of(out, sizes);
}

SccResult strongly_connected_components(const Digraph& g) {
  SccScratch scratch;
  SccResult res;
  strongly_connected_components(g, scratch, res);
  return res;
}

}  // namespace dirant::graph
