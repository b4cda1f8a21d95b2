#pragma once
// The one global operator-new counting hook, shared by the zero-allocation
// tests and the benches that record `warm_allocs`.  alloc_counter.cpp
// replaces every global operator new/delete form; CMake links that object
// into exactly the binaries that count, never into the dirant library (a
// library user must not inherit a replaced operator new).

#include <functional>

namespace dirant::test {

/// Runs `body` with the hook armed and returns how many global operator
/// new calls it made.  Only this call arms the hook, so gtest and the
/// bench harness never pollute the count, and untimed counting passes are
/// the only place the counter moves.
long long count_allocations(const std::function<void()>& body);

}  // namespace dirant::test
