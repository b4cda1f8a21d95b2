// core::orient_batch — the parallel front door must be a pure fan-out:
// results positionally aligned and identical to the serial orient() loop,
// with certification optional and empty batches harmless.

#include <gtest/gtest.h>

#include <cmath>

#include "common/constants.hpp"
#include "core/batch.hpp"
#include "core/planner.hpp"
#include "core/yao_baseline.hpp"
#include "geometry/generators.hpp"
#include "mst/engine.hpp"

namespace core = dirant::core;
namespace geom = dirant::geom;
namespace mst = dirant::mst;
using dirant::kPi;

namespace {

std::vector<std::vector<geom::Point>> make_batch(int instances, int n) {
  std::vector<std::vector<geom::Point>> batch;
  for (int i = 0; i < instances; ++i) {
    geom::Rng rng(5000 + i);
    batch.push_back(geom::make_instance(
        geom::kAllDistributions[i % geom::kAllDistributions.size()], n, rng));
  }
  return batch;
}

TEST(OrientBatch, MatchesSerialOrient) {
  const auto batch = make_batch(9, 60);
  const core::ProblemSpec spec{2, kPi};
  const auto items = core::orient_batch(batch, spec);
  ASSERT_EQ(items.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const auto solo = core::orient(batch[i], spec);
    EXPECT_DOUBLE_EQ(items[i].result.measured_radius, solo.measured_radius)
        << i;
    EXPECT_DOUBLE_EQ(items[i].result.lmax, solo.lmax) << i;
    EXPECT_EQ(items[i].result.algorithm, solo.algorithm) << i;
    EXPECT_GE(items[i].wall_ms, 0.0);
  }
}

TEST(OrientBatch, SerialAndPooledAgree) {
  const auto batch = make_batch(6, 45);
  const core::ProblemSpec spec{3, 0.0};
  core::BatchOptions serial;
  serial.parallel = false;
  const auto a = core::orient_batch(batch, spec, serial);
  const auto b = core::orient_batch(batch, spec);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].result.measured_radius, b[i].result.measured_radius);
  }
}

TEST(OrientBatch, CertifiesWhenAsked) {
  const auto batch = make_batch(4, 50);
  const core::ProblemSpec spec{4, 0.0};
  core::BatchOptions opts;
  opts.certify = true;
  const auto items = core::orient_batch(batch, spec, opts);
  for (const auto& item : items) {
    EXPECT_TRUE(item.certificate.ok())
        << "scc=" << item.certificate.scc_count;
  }
}

TEST(OrientBatch, EmptyBatch) {
  const std::vector<std::vector<geom::Point>> batch;
  EXPECT_TRUE(core::orient_batch(batch, {2, kPi}).empty());
}

TEST(OrientBatch, SingleInstanceMatchesPooled) {
  const auto batch = make_batch(5, 30);
  const auto items = core::orient_batch(batch, {2, kPi});
  ASSERT_EQ(items.size(), 5u);
  const auto one = core::orient_batch({batch.data(), 1}, {2, kPi});
  EXPECT_DOUBLE_EQ(one[0].result.measured_radius,
                   items[0].result.measured_radius);
}

TEST(OrientYao, PrecomputedLmaxIsTrusted) {
  geom::Rng rng(9);
  const auto pts = geom::uniform_square(70, 8.0, rng);
  const double lmax = mst::EmstEngine::shared().lmax(pts);
  const auto computed = core::orient_yao(pts, 6);
  const auto plumbed = core::orient_yao(pts, 6, 0.0, lmax);
  EXPECT_NEAR(computed.lmax, plumbed.lmax, 1e-12);
  EXPECT_DOUBLE_EQ(computed.measured_radius, plumbed.measured_radius);
  // A sentinel value is reported verbatim — that is the contract.
  const auto sentinel = core::orient_yao(pts, 6, 0.0, 123.5);
  EXPECT_DOUBLE_EQ(sentinel.lmax, 123.5);
}

}  // namespace
