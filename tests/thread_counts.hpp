#pragma once
// Shared thread-count sweep for the concurrency suites (sharded digraph
// build, audits, batch, churn).  The fixed 1/2/4/8 ladder plus whatever
// DIRANT_TEST_THREADS adds — scripts/check.sh sets 4 so the sanitizer
// variants (asan/tsan) shake the pooled paths with real workers.  One
// definition so the sweep protocol cannot drift between suites.

#include <algorithm>
#include <cstdlib>
#include <vector>

namespace dirant::test {

inline std::vector<int> thread_counts() {
  std::vector<int> counts = {1, 2, 4, 8};
  if (const char* env = std::getenv("DIRANT_TEST_THREADS")) {
    const int t = std::atoi(env);
    if (t > 0 && std::find(counts.begin(), counts.end(), t) == counts.end()) {
      counts.push_back(t);
    }
  }
  return counts;
}

// The sweep protocol as a harness: run `body(t)` once per thread count.
// Suites that rebuild their fixture per count (churn determinism, sharded
// certify) use this so the ladder and the env extension cannot drift from
// thread_counts().
template <typename F>
inline void for_each_thread_count(F&& body) {
  for (int t : thread_counts()) body(t);
}

}  // namespace dirant::test
