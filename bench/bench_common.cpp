#include "bench_common.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

namespace dirant::bench {

double time_ms(const std::function<void()>& body) {
  const auto t0 = std::chrono::steady_clock::now();
  body();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

namespace {

/// Runs `threads` xorshift spinners concurrently for ~`ms` each (one shared
/// start and deadline) and returns the total spin iterations completed.
double spin_iterations(unsigned threads, double ms) {
  using Clock = std::chrono::steady_clock;
  std::atomic<bool> go{false};
  std::vector<std::uint64_t> iters(threads, 0);
  Clock::time_point deadline;
  std::vector<std::thread> spinners;
  for (unsigned t = 0; t < threads; ++t) {
    spinners.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      std::uint64_t x = 0x9e3779b97f4a7c15ull + t, done = 0;
      while (Clock::now() < deadline) {
        for (int i = 0; i < 4096; ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
        }
        done += 4096;
      }
      benchmark::DoNotOptimize(x);
      iters[t] = done;
    });
  }
  deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::milli>(ms));
  go.store(true, std::memory_order_release);
  for (auto& s : spinners) s.join();
  double total = 0.0;
  for (const auto i : iters) total += static_cast<double>(i);
  return total;
}

}  // namespace

const BenchEnv& environment() {
  static const BenchEnv env = [] {
    BenchEnv e;
    e.smoke = std::getenv("DIRANT_BENCH_SMOKE") != nullptr;
    e.hw_threads = std::max(1u, std::thread::hardware_concurrency());
    constexpr double kSpinMs = 50.0;
    if (e.hw_threads > 1) {
      const double one = spin_iterations(1, kSpinMs);
      e.real_cores =
          spin_iterations(e.hw_threads, kSpinMs) / std::max(one, 1.0);
    }
    std::printf("box: %u hw threads, %.2f real cores (1 vs %u concurrent "
                "%.0f ms spinners)\n",
                e.hw_threads, e.real_cores, e.hw_threads, kSpinMs);
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
