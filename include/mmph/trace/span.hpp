#pragma once

/// \file span.hpp
/// \brief Lightweight in-process timing spans for the serving layer.
///
/// trace.hpp archives *data* (problems, solutions); this header archives
/// *time*: named spans wrapping the stages of a long-running pipeline
/// (batch drain, shard solve, merge, incremental refine). Spans aggregate
/// into per-name statistics rather than an event log, so a service can run
/// for millions of requests with O(#stage-names) memory. Collection is off
/// by default and a disabled collector costs one relaxed atomic load per
/// span, so instrumentation can stay compiled into hot paths.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "mmph/obs/registry.hpp"

namespace mmph::trace {

/// Aggregate statistics of one span name.
struct SpanStats {
  std::string name;
  std::uint64_t count = 0;
  double total_seconds = 0.0;
  double max_seconds = 0.0;

  [[nodiscard]] double mean_seconds() const noexcept {
    return count == 0 ? 0.0 : total_seconds / static_cast<double>(count);
  }
};

/// Thread-safe sink aggregating span durations by name.
class SpanCollector {
 public:
  /// Process-wide collector the serving layer reports into by default.
  static SpanCollector& global();

  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Adds one completed span. No-op while disabled.
  void record(const std::string& name, double seconds);

  /// Snapshot of every span name seen so far, sorted by name.
  [[nodiscard]] std::vector<SpanStats> stats() const;

  /// Forgets all recorded spans (enabled flag is unchanged).
  void reset();

  /// Describes every recorded span name as a `mmph_span_<sanitized>_seconds`
  /// histogram into \p registry, so a kStats scrape shows span latency
  /// distributions, not just count/mean/max.
  void describe(obs::Registry& registry) const;

 private:
  struct Cell {
    std::uint64_t count = 0;
    double total_seconds = 0.0;
    double max_seconds = 0.0;
    obs::Histogram histogram;
  };

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::map<std::string, Cell> cells_;
};

/// RAII span: times its scope and reports to a collector on destruction.
/// The name must outlive the span (string literals in practice).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name,
                      SpanCollector& collector = SpanCollector::global())
      : name_(name),
        collector_(&collector),
        armed_(collector.enabled()),
        start_(std::chrono::steady_clock::now()) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (!armed_) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    collector_->record(name_,
                       std::chrono::duration<double>(elapsed).count());
  }

 private:
  const char* name_;
  SpanCollector* collector_;
  bool armed_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mmph::trace
