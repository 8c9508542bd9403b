// LatencyHistogram, the quantile math behind obs::Histogram and so behind
// every `metrics` scrape: values recorded through obs::Histogram and read
// from its snapshot are exact below 64, have bounded relative error above
// (the log-bucket mantissa guarantee), and keep the exact min/max.
#include <gtest/gtest.h>

#include <cstdint>

#include "obs/metrics.hpp"
#include "support/latency_histogram.hpp"

namespace spivar {
namespace {

using support::LatencyHistogram;

TEST(LatencyHistogram, EmptyReportsZeros) {
  const LatencyHistogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.min(), 0u);
  EXPECT_EQ(histogram.max(), 0u);
  EXPECT_EQ(histogram.quantile(0.5), 0u);
  EXPECT_EQ(histogram.mean(), 0.0);
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  obs::Histogram recorded;
  for (std::uint64_t v = 0; v < 64; ++v) recorded.record(v);
  const LatencyHistogram histogram = recorded.snapshot();
  EXPECT_EQ(histogram.count(), 64u);
  EXPECT_EQ(histogram.min(), 0u);
  EXPECT_EQ(histogram.max(), 63u);
  // Below 64 every value has its own slot: quantiles are exact.
  EXPECT_EQ(histogram.quantile(0.5), 31u);
  EXPECT_EQ(histogram.quantile(1.0), 63u);
  EXPECT_NEAR(histogram.mean(), 31.5, 1e-9);
}

TEST(LatencyHistogram, QuantileRelativeErrorIsBounded) {
  obs::Histogram recorded;
  for (std::uint64_t v = 1; v <= 100'000; ++v) recorded.record(v);
  const LatencyHistogram histogram = recorded.snapshot();
  // 6 mantissa bits bound the relative bucket width by 1/64 (~1.6%); allow
  // 2% for the rank rounding on top.
  const auto expect_near = [&](double q, double expected) {
    const auto value = static_cast<double>(histogram.quantile(q));
    EXPECT_NEAR(value, expected, expected * 0.02) << "q=" << q;
  };
  expect_near(0.50, 50'000.0);
  expect_near(0.90, 90'000.0);
  expect_near(0.99, 99'000.0);
  expect_near(0.999, 99'900.0);
  EXPECT_EQ(histogram.min(), 1u);
  EXPECT_EQ(histogram.max(), 100'000u);
  EXPECT_NEAR(histogram.mean(), 50'000.5, 50'000.5 * 0.02);
}

TEST(LatencyHistogram, ExtremesClampToObservedMinMax) {
  obs::Histogram recorded;
  recorded.record(1'000'000);
  recorded.record(3);
  const LatencyHistogram histogram = recorded.snapshot();
  // One sample per extreme: p0/p100 must be the recorded values, not the
  // bucket bounds they landed in.
  EXPECT_EQ(histogram.quantile(0.0), 3u);
  EXPECT_EQ(histogram.quantile(1.0), 1'000'000u);
}

}  // namespace
}  // namespace spivar
