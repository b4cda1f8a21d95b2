#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <thread>

namespace dirant::bench {

double time_ms(const std::function<void()>& body) {
  const auto t0 = std::chrono::steady_clock::now();
  body();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

const BenchEnv& environment() {
  static const BenchEnv env = [] {
    BenchEnv e;
    e.smoke = std::getenv("DIRANT_BENCH_SMOKE") != nullptr;
    e.hw_threads = std::max(1u, std::thread::hardware_concurrency());
    if (e.hw_threads == 1) {
      std::printf(
          "*** WARNING: hardware_concurrency() == 1 — every pooled sweep in "
          "this bench oversubscribes a single core.  Parallel speedups will "
          "be ~1x BY CONSTRUCTION and say nothing about multi-core scaling; "
          "read the hw_threads field before quoting any row. ***\n");
    }
    return e;
  }();
  return env;
}

void add_env_threads(const char* knob, std::vector<int>& set) {
  if (const char* env = std::getenv(knob)) {
    const int t = std::atoi(env);
    if (t > 1 && std::find(set.begin(), set.end(), t) == set.end()) {
      set.push_back(t);
    }
  }
}

void record_sections(const std::vector<JsonSection>& sections) {
  if (environment().smoke) {
    std::printf("smoke mode: BENCH_scaling.json left untouched\n");
    return;
  }
  try {
    write_sections("BENCH_scaling.json", sections);
  } catch (const std::exception& e) {
    std::printf("ERROR: BENCH_scaling.json not written: %s\n", e.what());
    std::exit(1);
  }
  std::string names;
  for (const auto& s : sections) names += (names.empty() ? "" : ", ") + s.name;
  std::printf("wrote %s to BENCH_scaling.json\n", names.c_str());
}

namespace {
std::vector<std::function<void()>>& reports() {
  static std::vector<std::function<void()>> r;
  return r;
}
}  // namespace

void register_report(std::function<void()> report) {
  reports().push_back(std::move(report));
}

void section(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

void sweep(const SweepSpec& spec,
           const std::function<void(geom::Distribution, int, std::uint64_t,
                                    const std::vector<geom::Point>&)>& body) {
  for (auto d : spec.distributions) {
    for (int n : spec.sizes) {
      for (int r = 0; r < spec.repeats; ++r) {
        const std::uint64_t seed =
            spec.base_seed + 1000003ull * static_cast<std::uint64_t>(n) +
            17ull * r + static_cast<std::uint64_t>(d);
        geom::Rng rng(seed);
        const auto pts = geom::make_instance(d, n, rng);
        body(d, n, seed, pts);
      }
    }
  }
}

int run(int argc, char** argv) {
  for (const auto& r : reports()) r();
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace dirant::bench
