#pragma once

/// \file instruments.hpp
/// \brief Lock-free observability primitives: Counter, Gauge, Histogram.
///
/// The record path of every instrument is mutex- and allocation-free —
/// plain relaxed atomics — so instrumentation can sit on the hottest
/// serving paths (the socket event loop, the batch worker) without adding
/// contention or jitter. Histograms use a fixed log-spaced bucket layout
/// (no sample retention: observing is one atomic increment plus one
/// atomic add), and quantiles are computed exactly from the cumulative
/// bucket counts — deterministic, never biased by dropping samples, at
/// the cost of bucket-width resolution (consecutive bounds differ by
/// sqrt(2), so any quantile is exact to within ~41% relative error and
/// in practice far less after in-bucket interpolation).

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace mmph::obs {

/// Adds \p delta to an atomic double with a CAS loop (lock-free on every
/// mainstream platform; std::atomic<double>::fetch_add is not guaranteed
/// to exist everywhere C++20 claims it does).
inline void atomic_add(std::atomic<double>& target, double delta) noexcept {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
  }
}

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, open connections).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed bucket layout shared by every histogram: kBucketCount - 1 finite
/// upper bounds growing by a factor of sqrt(2) from kFirstBound, plus one
/// overflow bucket. With kFirstBound = 1 microsecond the finite range
/// tops out around 2147 seconds — wide enough for any latency this
/// service can produce while keeping relative resolution under 2x.
inline constexpr std::size_t kBucketCount = 64;
inline constexpr double kFirstBound = 1e-6;
inline constexpr double kBucketGrowth = 1.4142135623730951;  // sqrt(2)

/// Upper bound of bucket \p i (i < kBucketCount - 1); the last bucket is
/// unbounded (+Inf in the exposition).
[[nodiscard]] constexpr std::array<double, kBucketCount - 1>
bucket_bounds() noexcept {
  std::array<double, kBucketCount - 1> bounds{};
  double bound = kFirstBound;
  for (double& b : bounds) {
    b = bound;
    bound *= kBucketGrowth;
  }
  return bounds;
}

inline constexpr std::array<double, kBucketCount - 1> kBucketBounds =
    bucket_bounds();

/// Bucket index of \p value: the first bucket whose upper bound is
/// >= value, or the overflow bucket. Non-finite values land in overflow.
[[nodiscard]] std::size_t bucket_index(double value) noexcept;

/// Consistent point-in-time copy of a histogram, with the quantile math.
/// Also constructible from parsed exposition text, so a remote scrape can
/// recompute exactly the quantiles the server reports.
struct HistogramSnapshot {
  std::array<std::uint64_t, kBucketCount> buckets{};  ///< per-bucket counts
  double sum = 0.0;
  std::uint64_t count = 0;

  /// Exact quantile from cumulative counts: finds the bucket containing
  /// rank q * count and interpolates linearly inside it. Returns 0 when
  /// empty; the overflow bucket answers with the largest finite bound.
  [[nodiscard]] double quantile(double q) const noexcept;
};

/// Fixed-bucket atomic histogram. observe() is wait-free on x86 (two
/// relaxed atomic RMWs), and never allocates or locks.
class Histogram {
 public:
  void observe(double value) noexcept {
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    // Non-finite observations are counted (the spike is visible) but kept
    // out of the sum so one NaN cannot poison the mean forever.
    if (value == value && value <= 1e308 && value >= -1e308) {
      atomic_add(sum_, value);
    }
  }

  [[nodiscard]] HistogramSnapshot snapshot() const noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Convenience: snapshot().quantile(q).
  [[nodiscard]] double quantile(double q) const noexcept {
    return snapshot().quantile(q);
  }

  void reset() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<double> sum_{0.0};
};

}  // namespace mmph::obs
