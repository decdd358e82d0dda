#pragma once

/// \file metrics.hpp
/// \brief Operational counters of the socket layer (NetServer), on mmph::obs.
///
/// Mirrors serve::ServeMetrics one level down: connection lifecycle
/// (accepted / shed / closed), byte and frame volume in both directions,
/// protocol health (frame_errors, timeouts), and request latency measured
/// from first byte buffered to response encoded. Counters are lock-free
/// atomics and latency quantiles come from a fixed-bucket histogram, so
/// event loops record without taking any lock; describe() writes them
/// into the registry a kStats wire request is answered from.
///
/// Multi-loop: the aggregate series (`mmph_net_*`) keep their pre-refactor
/// names and meanings — every event counts there regardless of which loop
/// produced it — and each event loop additionally gets a labeled channel
/// of `mmph_net_loop_*{loop="i"}` series, so one kStats scrape shows
/// both the totals and the per-loop breakdown. Loop channels are handed
/// out as NetMetrics::Loop; an event counts once, in its loop's channel,
/// and the totals are summed when read.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mmph/obs/registry.hpp"

namespace mmph::net {

/// Point-in-time copy of every aggregate counter (plain data, safe to
/// print/ship).
struct NetMetricsSnapshot {
  std::uint64_t accepted = 0;           ///< connections accepted
  std::uint64_t rejected_overloaded = 0;  ///< shed by max-connections
  std::uint64_t closed_idle = 0;        ///< dropped by the idle deadline
  std::uint64_t closed_error = 0;       ///< dropped after a frame error
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t frames_in = 0;          ///< complete request frames decoded
  std::uint64_t frames_out = 0;         ///< response frames encoded
  std::uint64_t frame_errors = 0;       ///< typed decode failures
  std::uint64_t requests = 0;           ///< requests submitted to the service
  std::uint64_t timeouts = 0;           ///< answered kTimeout
  std::uint64_t ownership_checks = 0;   ///< loop-affinity assertions passed
  std::size_t open_connections = 0;

  double latency_p50_seconds = 0.0;
  double latency_p99_seconds = 0.0;
};

/// Per-loop slice of the counters that make a loop's share of the traffic
/// visible (accept distribution, throughput skew, ownership coverage).
struct NetLoopSnapshot {
  std::uint64_t accepted = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t requests = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t ownership_checks = 0;
  std::size_t open_connections = 0;
};

class NetMetrics {
 public:
  /// \p loops sizes the labeled per-loop channels (clamped to >= 1).
  explicit NetMetrics(std::size_t loops = 1);

  // --- aggregate recording (connection-agnostic events) ---
  void count_rejected_overloaded() { rejected_overloaded_.add(); }
  void count_closed_idle() { closed_idle_.add(); }
  void count_closed_error() { closed_error_.add(); }
  void count_frame_error() { frame_errors_.add(); }
  void count_timeout() { timeouts_.add(); }
  void set_open_connections(std::size_t n) {
    open_connections_.set(static_cast<double>(n));
  }
  void record_latency(double seconds) { latency_seconds_.observe(seconds); }

  /// One event loop's channel, written by that loop's thread alone: the
  /// labeled `mmph_net_loop_*{loop="i"}` series. The aggregate series of
  /// these events (accepted, frames, requests, bytes, ownership checks)
  /// are their sums over the loops.
  struct Loop {
    obs::Counter accepted;
    obs::Counter frames_in;
    obs::Counter frames_out;
    obs::Counter requests;
    obs::Counter bytes_in;
    obs::Counter bytes_out;
    obs::Counter ownership_checks;
    obs::Gauge open_connections;
  };

  [[nodiscard]] Loop& loop(std::size_t index) { return loops_.at(index); }
  [[nodiscard]] std::size_t loop_count() const noexcept {
    return loops_.size();
  }

  [[nodiscard]] NetMetricsSnapshot snapshot() const;
  [[nodiscard]] NetLoopSnapshot loop_snapshot(std::size_t index) const;

  /// Describes the aggregate and the `{loop="i"}` series into \p registry
  /// (the kStats scrape).
  void describe(obs::Registry& registry) const;

 private:
  /// Adds every loop's counters into \p totals (open_connections aside).
  void sum_loops(Loop& totals) const;

  obs::Counter rejected_overloaded_;
  obs::Counter closed_idle_;
  obs::Counter closed_error_;
  obs::Counter frame_errors_;
  obs::Counter timeouts_;
  obs::Gauge open_connections_;
  obs::Histogram latency_seconds_;
  std::vector<Loop> loops_;  ///< sized once; Loop holds atomics
};

}  // namespace mmph::net
