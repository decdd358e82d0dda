// mmph::obs: pinned histogram bucket layout, exact quantile math against
// a brute-force sort, the registry's family keying, and the exposition
// format.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "mmph/io/stats.hpp"
#include "mmph/obs/instruments.hpp"
#include "mmph/obs/registry.hpp"
#include "mmph/random/rng.hpp"
#include "mmph/support/error.hpp"

namespace mmph::obs {
namespace {

TEST(ObsHistogram, BucketBoundsArePinned) {
  // The layout is a wire-visible contract (scrapers reconstruct quantiles
  // from it): 63 finite bounds from 1 microsecond growing by sqrt(2).
  ASSERT_EQ(kBucketCount, 64u);
  ASSERT_EQ(kBucketBounds.size(), 63u);
  EXPECT_DOUBLE_EQ(kBucketBounds[0], 1e-6);
  EXPECT_NEAR(kBucketBounds[2], 2e-6, 1e-18);  // two sqrt(2) steps = octave
  for (std::size_t i = 0; i + 1 < kBucketBounds.size(); ++i) {
    EXPECT_NEAR(kBucketBounds[i + 1] / kBucketBounds[i], kBucketGrowth,
                1e-12);
  }
  // 62 steps of sqrt(2) from 1e-6 is 2^31 microseconds ~ 2147 seconds.
  EXPECT_NEAR(kBucketBounds.back(), 2147.483648, 1e-3);
}

TEST(ObsHistogram, BucketIndexUsesLessOrEqualSemantics) {
  EXPECT_EQ(bucket_index(0.0), 0u);
  EXPECT_EQ(bucket_index(1e-7), 0u);
  EXPECT_EQ(bucket_index(kBucketBounds[0]), 0u);  // le: boundary stays low
  EXPECT_EQ(bucket_index(std::nextafter(kBucketBounds[0], 1.0)), 1u);
  EXPECT_EQ(bucket_index(kBucketBounds[10]), 10u);
  EXPECT_EQ(bucket_index(kBucketBounds.back()), kBucketBounds.size() - 1);
  // Past the last finite bound and non-finite values: overflow bucket.
  EXPECT_EQ(bucket_index(1e9), kBucketCount - 1);
  EXPECT_EQ(bucket_index(std::numeric_limits<double>::infinity()),
            kBucketCount - 1);
  EXPECT_EQ(bucket_index(std::numeric_limits<double>::quiet_NaN()),
            kBucketCount - 1);
}

TEST(ObsHistogram, QuantileInterpolationIsExactOnKnownCounts) {
  Histogram hist;
  EXPECT_DOUBLE_EQ(hist.quantile(0.5), 0.0) << "empty histogram";

  // 10 observations, all in bucket 0 ([0, 1e-6]): quantile(q) must
  // interpolate linearly across the bucket, rank = max(1, q*count).
  for (int i = 0; i < 10; ++i) hist.observe(5e-7);
  EXPECT_DOUBLE_EQ(hist.quantile(0.5), 1e-6 * (5.0 / 10.0));
  EXPECT_DOUBLE_EQ(hist.quantile(1.0), 1e-6);
  EXPECT_DOUBLE_EQ(hist.quantile(0.0), 1e-6 * (1.0 / 10.0));
  EXPECT_EQ(hist.count(), 10u);
  EXPECT_NEAR(hist.sum(), 5e-6, 1e-15);

  hist.reset();
  EXPECT_EQ(hist.count(), 0u);
  // All mass in the overflow bucket: answer the largest finite bound
  // instead of inventing a value beyond the layout.
  hist.observe(1e9);
  EXPECT_DOUBLE_EQ(hist.quantile(0.99), kBucketBounds.back());
}

TEST(ObsHistogram, QuantilesMatchBruteForceSortWithinOneBucket) {
  Histogram hist;
  rnd::Rng rng(404);
  std::vector<double> samples;
  samples.reserve(5000);
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform across the interesting latency range, ~1us to ~10s.
    const double v = std::pow(10.0, rng.uniform(-6.0, 1.0));
    samples.push_back(v);
    hist.observe(v);
  }
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, samples.size());
  for (const double q : {0.05, 0.25, 0.50, 0.90, 0.99, 0.999}) {
    const double exact = io::percentile(samples, q);
    const double approx = snap.quantile(q);
    // Both the true order statistic and the interpolated estimate live in
    // the same log-spaced bucket, so they differ by at most one growth
    // factor (sqrt(2)); interpolation error on the rank adds at most one
    // more bucket at the seams.
    EXPECT_GE(approx, exact / (kBucketGrowth * kBucketGrowth))
        << "q=" << q << " exact=" << exact;
    EXPECT_LE(approx, exact * kBucketGrowth * kBucketGrowth)
        << "q=" << q << " exact=" << exact;
  }
}

TEST(ObsHistogram, NonFiniteObservationsAreCountedButExcludedFromSum) {
  Histogram hist;
  hist.observe(1.0);
  hist.observe(std::numeric_limits<double>::quiet_NaN());
  hist.observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_DOUBLE_EQ(hist.sum(), 1.0);
}

TEST(ObsRegistry, ExpositionFormatIsPrometheusShaped) {
  Counter requests;
  requests.add(42);
  Gauge depth;
  depth.set(3.5);
  Histogram hist;
  hist.observe(5e-7);  // bucket 0
  hist.observe(3e-6);  // bucket 4 (bounds 2.83e-6 < 3e-6 <= 4e-6)

  Registry registry;
  registry.add("mmph_requests_total", "requests served", requests);
  registry.add("mmph_depth", "", depth);
  registry.add("mmph_latency_seconds", "", hist);
  const std::string text = registry.exposition_text();
  EXPECT_NE(text.find("# HELP mmph_requests_total requests served\n"
                      "# TYPE mmph_requests_total counter\n"
                      "mmph_requests_total 42\n"),
            std::string::npos);
  EXPECT_EQ(text.find("# HELP mmph_depth"), std::string::npos);
  EXPECT_NE(text.find("# TYPE mmph_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("mmph_depth 3.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE mmph_latency_seconds histogram\n"),
            std::string::npos);
  // Buckets are cumulative: bucket 0 holds 1, every bucket from index 4
  // on holds 2, and +Inf equals _count.
  EXPECT_NE(text.find("mmph_latency_seconds_bucket{le=\"1e-06\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("mmph_latency_seconds_bucket{le=\"4e-06\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("mmph_latency_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("mmph_latency_seconds_count 2\n"), std::string::npos);
  EXPECT_NE(text.find("mmph_latency_seconds_sum 3.5e-06\n"),
            std::string::npos);

  // The registry copies values: a later record shows in the next scrape's
  // registry, not in this one.
  requests.add();
  EXPECT_EQ(registry.exposition_text(), text);
}

// Families interleaved series by series (the way per-loop and per-shard
// series are described) still write one header each, with each family's
// series contiguous under it, in first-add order.
TEST(ObsRegistry, InterleavedLabeledFamiliesWriteOneHeaderEach) {
  Counter a0, a1, b0, b1;
  a0.add(1);
  a1.add(2);
  b0.add(3);
  b1.add(4);
  Histogram h0, h1;
  h0.observe(1e-6);
  h1.observe(3e-6);

  Registry registry;
  for (int s = 0; s < 2; ++s) {
    const Labels labels = {{"shard", std::to_string(s)}};
    registry.add("mmph_a_total", "family a", s == 0 ? a0 : a1, labels);
    registry.add("mmph_b_total", "family b", s == 0 ? b0 : b1, labels);
    registry.add("mmph_h_seconds", "family h", s == 0 ? h0 : h1, labels);
  }
  std::istringstream text(registry.exposition_text());
  std::vector<std::string> lines;
  for (std::string line; std::getline(text, line);) lines.push_back(line);

  // One HELP/TYPE pair per family, and every sample line belongs to the
  // family whose header came last.
  std::vector<std::string> families;
  std::string current;
  for (const std::string& line : lines) {
    if (line.rfind("# HELP ", 0) == 0) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      current = line.substr(7, line.find(' ', 7) - 7);
      families.push_back(current);
      continue;
    }
    ASSERT_FALSE(current.empty()) << line;
    EXPECT_EQ(line.rfind(current, 0), 0u) << "outside its family: " << line;
  }
  EXPECT_EQ(families, (std::vector<std::string>{
                          "mmph_a_total", "mmph_b_total", "mmph_h_seconds"}));
  EXPECT_EQ(std::count_if(lines.begin(), lines.end(),
                          [](const std::string& l) {
                            return l.rfind("# HELP ", 0) == 0;
                          }),
            3);

  const std::string joined = registry.exposition_text();
  EXPECT_NE(joined.find("mmph_a_total{shard=\"0\"} 1\n"
                        "mmph_a_total{shard=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(joined.find("mmph_b_total{shard=\"0\"} 3\n"
                        "mmph_b_total{shard=\"1\"} 4\n"),
            std::string::npos);
  // Series labels come ahead of `le` on bucket lines; _sum and _count
  // carry the series labels alone.
  EXPECT_NE(joined.find("mmph_h_seconds_bucket{shard=\"0\",le=\"1e-06\"} 1\n"),
            std::string::npos);
  EXPECT_NE(joined.find("mmph_h_seconds_bucket{shard=\"1\",le=\"1e-06\"} 0\n"),
            std::string::npos);
  EXPECT_NE(joined.find("mmph_h_seconds_bucket{shard=\"1\",le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(joined.find("mmph_h_seconds_count{shard=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(joined.find("mmph_h_seconds_sum{shard=\"0\"} 1e-06\n"),
            std::string::npos);
}

TEST(ObsRegistry, FamilyKeepsOneKindAndOneSeriesPerLabelSet) {
  Counter counter;
  Gauge gauge;
  Registry registry;
  registry.add("mmph_x_total", "", counter, {{"loop", "0"}});
  // Same family as a different kind, or the same series twice, is a
  // caller bug: either would make the exposition unparseable.
  EXPECT_THROW(registry.add("mmph_x_total", "", gauge), InvalidArgument);
  EXPECT_THROW(registry.add("mmph_x_total", "", counter, {{"loop", "0"}}),
               InvalidArgument);
  EXPECT_NO_THROW(registry.add("mmph_x_total", "", counter, {{"loop", "1"}}));
  // Label values are escaped, so any string stays one well-formed line.
  registry.add("mmph_z", "", gauge, {{"name", "a\"b\\c\nd"}});
  EXPECT_NE(registry.exposition_text().find(
                "mmph_z{name=\"a\\\"b\\\\c\\nd\"} 0\n"),
            std::string::npos);
}

}  // namespace
}  // namespace mmph::obs
