#pragma once
/// \file bench_common.hpp
/// Shared harness for the reproduction benches.  Every bench binary follows
/// the same shape: first print a paper-style report (the table/figure being
/// regenerated), then run google-benchmark timings.  Binaries run standalone
/// with no arguments.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "geometry/generators.hpp"

namespace dirant::bench {

/// Registers a report callback executed before google-benchmark starts.
void register_report(std::function<void()> report);

/// Standard main: runs all registered reports, then google-benchmark.
int run(int argc, char** argv);

/// Monte-Carlo sweep helper: calls `body(instance_points, rng)` for
/// `repeats` seeds on each (distribution, n) combination.
struct SweepSpec {
  std::vector<geom::Distribution> distributions;
  std::vector<int> sizes;
  int repeats = 5;
  std::uint64_t base_seed = 20090525;  // IPDPS 2009 week, for flavour
};

void sweep(const SweepSpec& spec,
           const std::function<void(geom::Distribution, int, std::uint64_t,
                                    const std::vector<geom::Point>&)>& body);

/// Horizontal rule + section header for report output.
void section(const std::string& title);

/// Wall-clock milliseconds of one invocation of `body` (steady clock).
double time_ms(const std::function<void()>& body);

/// What every report block reads first.  `smoke` is DIRANT_BENCH_SMOKE's
/// presence (set by the bench_smoke ctest entries: tiny sizes, no
/// BENCH_scaling.json write); `hw_threads` is the box's hardware
/// concurrency.  `real_cores` is measured once per process: the spin
/// iterations `hw_threads` concurrent ~50 ms spinners complete, divided by
/// what one spinner completes alone — the cores the box actually delivers
/// right now (neighbour load and SMT siblings pull it below hw_threads).
/// Both are recorded next to every parallel row.  The first call prints
/// them in a banner, and a loud warning when there is only one hardware
/// thread.
struct BenchEnv {
  bool smoke = false;
  unsigned hw_threads = 1;
  double real_cores = 1.0;
};
const BenchEnv& environment();

/// Adds the thread count in env var `knob` to `set` when it is > 1 and
/// not already there (the DIRANT_X*_THREADS sweep knobs).
void add_env_threads(const char* knob, std::vector<int>& set);

/// Replaces this bench's `sections` of BENCH_scaling.json in the working
/// directory (see bench_json.hpp), leaving every other section as it was.
/// In smoke mode the file is left untouched: throwaway tiny-n numbers
/// never land in the recorded trajectory.  Exits 1 if the file is corrupt.
void record_sections(const std::vector<JsonSection>& sections);

}  // namespace dirant::bench

/// Define a report block: DIRANT_REPORT(my_report) { ...printf...; }
#define DIRANT_REPORT(name)                                        \
  static void name##_impl();                                       \
  static const bool name##_registered = [] {                       \
    ::dirant::bench::register_report(&name##_impl);                \
    return true;                                                   \
  }();                                                             \
  static void name##_impl()

/// Standard main for bench binaries.
#define DIRANT_BENCH_MAIN()                                        \
  int main(int argc, char** argv) {                                \
    return ::dirant::bench::run(argc, argv);                       \
  }
