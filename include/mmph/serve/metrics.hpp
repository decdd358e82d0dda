#pragma once

/// \file metrics.hpp
/// \brief Operational counters of the placement service, built on mmph::obs.
///
/// Everything an operator needs to see on a dashboard: queue pressure
/// (submitted / rejected / expired), batching efficiency (batches, mean
/// batch size), error accounting (bad requests, internal errors), and
/// solve behavior (full vs incremental counts, p50/p99 solve latency from
/// a fixed-bucket atomic histogram — no sample retention, no mutex on the
/// record path). describe() writes them into a scrape's obs::Registry,
/// and snapshot() keeps the flat struct shape older callers print.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mmph/obs/registry.hpp"
#include "mmph/spatial/spatial_index.hpp"

namespace mmph::core {
struct LsStats;
}  // namespace mmph::core

namespace mmph::serve {

/// Point-in-time copy of every counter (plain data, safe to print/ship).
struct MetricsSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t rejected_full = 0;
  std::uint64_t timeouts = 0;  ///< deadline passed while queued
  std::uint64_t shutdown = 0;
  std::uint64_t bad_requests = 0;     ///< malformed request payloads
  std::uint64_t internal_errors = 0;  ///< solver threw mid-batch
  std::uint64_t batches = 0;
  std::uint64_t batched_requests = 0;
  std::uint64_t mutations = 0;
  std::uint64_t queries = 0;
  std::uint64_t full_solves = 0;
  std::uint64_t incremental_solves = 0;
  std::size_t queue_depth = 0;
  double repl_lag_ops = 0.0;  ///< replica: ops behind the primary

  // Spatial coverage-index activity (all 0 while no index is carried).
  std::uint64_t spatial_queries = 0;
  std::uint64_t spatial_points_touched = 0;
  std::uint64_t spatial_incremental_updates = 0;
  std::uint64_t spatial_rebuilds = 0;

  // Local-search polish activity (all 0 unless the ls solver tier runs).
  std::uint64_t ls_moves = 0;         ///< committed shift/swap moves
  std::uint64_t ls_improvements = 0;  ///< solves where ls beat its seed
  std::uint64_t ls_evals = 0;         ///< exact delta evaluations
  std::uint64_t ls_far_evals = 0;     ///< of those, far (disjoint-ball) pairs
  std::uint64_t ls_skipped = 0;       ///< pairs decided without a trial
  std::uint64_t ls_gain_sums = 0;     ///< marginal-gain ball sums

  double mean_batch_size = 0.0;
  double solve_p50_seconds = 0.0;
  double solve_p99_seconds = 0.0;
  double total_solve_seconds = 0.0;

  /// incremental / (full + incremental); 0 when no solve happened yet.
  [[nodiscard]] double incremental_ratio() const noexcept {
    const std::uint64_t total = full_solves + incremental_solves;
    return total == 0
               ? 0.0
               : static_cast<double>(incremental_solves) /
                     static_cast<double>(total);
  }
};

class ServeMetrics {
 public:
  /// \p store_shards > 1 adds the per-store-shard families (one labeled
  /// series per shard, the net-loop idiom) and the loop->shard affinity
  /// counters. With one store shard none of the mmph_store_shard_*
  /// families appear in scrapes, keeping the single-store exposition as
  /// it was before sharding.
  explicit ServeMetrics(std::size_t store_shards = 1);

  void count_submitted() { submitted_.add(); }
  void count_rejected() { rejected_full_.add(); }
  void count_timeout() { timeouts_.add(); }
  void count_shutdown() { shutdown_.add(); }
  void count_bad_request() { bad_requests_.add(); }
  void count_internal_error() { internal_errors_.add(); }
  void count_mutations(std::uint64_t n) { mutations_.add(n); }
  void count_queries(std::uint64_t n) { queries_.add(n); }
  void record_batch(std::size_t size);
  void record_solve(double seconds, bool incremental);
  void set_queue_depth(std::size_t depth) {
    queue_depth_.set(static_cast<double>(depth));
  }
  /// Replica-side replication lag (primary epoch minus local epoch);
  /// stays 0 on a primary so the family is always present in scrapes.
  void set_repl_lag(double ops) { repl_lag_ops_.set(ops); }

  /// Folds spatial-index activity (a carried index's stats() delta since
  /// the last publication, or the stats of an index a polish built for
  /// itself) into the mmph_spatial_* counters. The families are always
  /// described, so they scrape as 0 when no index is in use.
  void add_spatial(const spatial::IndexStats& delta);

  /// Folds one polish run's counters into the mmph_ls_* families
  /// (always described: they scrape as 0 on the greedy/lazy tiers).
  void add_ls(const core::LsStats& stats);

  /// Mutations routed to store shard \p shard (no-op with one shard).
  void count_shard_mutations(std::size_t shard, std::uint64_t n);
  /// Live row count of store shard \p shard (no-op with one shard).
  void set_shard_rows(std::size_t shard, std::size_t rows);
  /// Loop->shard affinity of a routed mutation (no-op with one shard).
  void count_affinity(bool hit);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Describes every series into \p registry (the kStats scrape).
  void describe(obs::Registry& registry) const;

 private:
  struct StoreShard {
    obs::Counter mutations;
    obs::Gauge rows;
  };

  obs::Counter submitted_;
  obs::Counter rejected_full_;
  obs::Counter timeouts_;
  obs::Counter shutdown_;
  obs::Counter bad_requests_;
  obs::Counter internal_errors_;
  obs::Counter batches_;
  obs::Counter batched_requests_;
  obs::Counter mutations_;
  obs::Counter queries_;
  obs::Counter full_solves_;
  obs::Counter incremental_solves_;
  obs::Gauge queue_depth_;
  obs::Gauge repl_lag_ops_;
  obs::Counter spatial_queries_;
  obs::Counter spatial_points_touched_;
  obs::Counter spatial_updates_;
  obs::Counter spatial_rebuilds_;
  obs::Counter ls_moves_;
  obs::Counter ls_improvements_;
  obs::Counter ls_evals_;
  obs::Counter ls_far_evals_;
  obs::Counter ls_skipped_;
  obs::Counter ls_gain_sums_;
  obs::Histogram solve_seconds_;
  /// Per-store-shard series; empty with one store shard.
  std::vector<StoreShard> shards_;
  obs::Counter affinity_hits_;
  obs::Counter affinity_misses_;
};

}  // namespace mmph::serve
