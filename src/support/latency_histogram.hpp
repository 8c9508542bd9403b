// Log-bucketed latency histogram (the HDR-histogram idea, fixed-shape):
// values are binned by [power-of-two magnitude][6-bit mantissa], giving a
// constant-size table whose relative quantile error is bounded by the
// mantissa resolution (< 1/64, ~1.6%) at every scale from 1 µs to ~2^69.
// obs::Histogram records into the same buckets as atomics and rehydrates a
// LatencyHistogram for quantile math at each scrape.
//
// No dependencies, header-only, and not thread-safe: a plain value that
// one thread fills and reads.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>

namespace spivar::support {

class LatencyHistogram {
 public:
  static constexpr int kMantissaBits = 6;
  static constexpr std::size_t kBuckets = 64;  ///< magnitude rows
  static constexpr std::size_t kSlots = kBuckets << kMantissaBits;

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t min() const noexcept { return total_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const noexcept { return total_ ? max_ : 0; }

  /// Mean from bucket midpoints (exact for values < 64, < 1.6% off above).
  [[nodiscard]] double mean() const noexcept {
    if (total_ == 0) return 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < kSlots; ++i) {
      if (counts_[i] != 0) sum += static_cast<double>(counts_[i]) * midpoint_of(i);
    }
    return sum / static_cast<double>(total_);
  }

  /// Bulk-loads `n` observations into slot `i` — how an external
  /// atomic-bucket histogram (obs::Histogram) rehydrates a quantile-capable
  /// snapshot from raw bucket counts.
  void add_bucket(std::size_t i, std::uint64_t n) noexcept {
    counts_[i] += n;
    total_ += n;
  }

  /// Merges an externally tracked exact [lo, hi] observation range, so
  /// quantile clamping stays exact for bucket-loaded histograms.
  void note_range(std::uint64_t lo, std::uint64_t hi) noexcept {
    min_ = std::min(min_, lo);
    max_ = std::max(max_, hi);
  }

  /// Magnitude row: values < 64 land in row 0 with exact (1-unit) slots;
  /// above, each doubling gets its own 64-slot row. Public so atomic-bucket
  /// twins (obs::Histogram) share the exact bucket shape.
  static constexpr std::size_t index_of(std::uint64_t value) noexcept {
    const int row = value < 64 ? 0 : std::bit_width(value) - kMantissaBits;
    return (static_cast<std::size_t>(row) << kMantissaBits) +
           static_cast<std::size_t>(value >> row);
  }

  /// Value at quantile q in [0, 1]: the smallest bucket upper bound whose
  /// cumulative count reaches ceil(q * total). Clamped to the exact observed
  /// min/max so p0/p100 are never widened by bucket rounding.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept {
    if (total_ == 0) return 0;
    const double clamped = std::clamp(q, 0.0, 1.0);
    const auto rank =
        static_cast<std::uint64_t>(clamped * static_cast<double>(total_) + 0.999999);
    const std::uint64_t target = std::max<std::uint64_t>(rank, 1);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < kSlots; ++i) {
      cumulative += counts_[i];
      if (cumulative >= target) return std::clamp(upper_bound_of(i), min_, max_);
    }
    return max_;
  }

 private:
  /// Largest value mapping to slot i (inclusive).
  static constexpr std::uint64_t upper_bound_of(std::size_t i) noexcept {
    const auto row = static_cast<int>(i >> kMantissaBits);
    const std::uint64_t slot = i & (kSlots / kBuckets - 1);
    return ((slot + 1) << row) - 1;
  }

  static constexpr double midpoint_of(std::size_t i) noexcept {
    const auto row = static_cast<int>(i >> kMantissaBits);
    const std::uint64_t slot = i & (kSlots / kBuckets - 1);
    const double lo = static_cast<double>(slot << row);
    const double hi = static_cast<double>(((slot + 1) << row) - 1);
    return (lo + hi) / 2.0;
  }

  std::array<std::uint64_t, kSlots> counts_{};
  std::uint64_t total_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

}  // namespace spivar::support
