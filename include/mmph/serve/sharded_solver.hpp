#pragma once

/// \file sharded_solver.hpp
/// \brief Spatially sharded greedy placement for large populations.
///
/// The point-restricted greedies score every candidate against the
/// population, O(n^2) per round on a full scan. This solver follows the
/// low-complexity geographic-partitioning idea (Avrachenkov et al.): split
/// the population into S spatially coherent shards, run the lazy greedy
/// *inside* each shard concurrently on a ThreadPool, then merge the
/// per-shard winners into one candidate pool and run a final lazy-greedy
/// pass over that pool against the *full* population. When the whole
/// problem would ride a spatial index (kernels::should_index), each shard
/// builds one over its own rows, so its first round is one
/// O(shard · points-in-ball) sweep; otherwise a shard scans, O(shard^2).
/// The merge pass restores the global view the shards lack, so with one
/// shard the result is bit-identical to core::LazyGreedySolver (tests pin
/// this), and with many shards it tracks it closely.
///
/// Shard boundaries are kd-style recursive median splits along the widest
/// axis (balanced regardless of clustering), unless the caller dictates
/// row ranges (set_row_groups). The merge pass is core::LazyGreedySolver's
/// candidate-set overload over the pooled winners, so it evaluates through
/// the same evaluator (the lent spatial index or the blocked scan).

#include <cstddef>
#include <utility>
#include <vector>

#include "mmph/core/solution.hpp"
#include "mmph/core/solver.hpp"
#include "mmph/geometry/point_set.hpp"
#include "mmph/parallel/thread_pool.hpp"
#include "mmph/spatial/spatial_index.hpp"

namespace mmph::serve {

struct ShardedSolverConfig {
  /// Upper bound on shards; 0 selects max(worker count, n / 2048) so
  /// large populations shard even on few workers (a scanning shard costs
  /// O(shard^2), so S shards cut its total work ~S-fold regardless of
  /// cores).
  std::size_t max_shards = 0;
  /// Shards are never split below this many users.
  std::size_t min_shard_size = 64;
};

/// Sizes of the last solve(): shards solved and centers pooled for the
/// merge, and the counters of the shard indexes summed (zero when the
/// shards scanned).
struct ShardStats {
  std::size_t shards = 0;
  std::size_t candidate_pool = 0;
  spatial::IndexStats index;
};

/// Splits [0, points.size()) into spatially coherent, roughly balanced
/// index groups by recursive median splits (exposed for tests).
[[nodiscard]] std::vector<std::vector<std::size_t>> shard_indices(
    const geo::PointSet& points, const ShardedSolverConfig& config,
    std::size_t workers);

class ShardedSolver final : public core::Solver {
 public:
  /// Solves shards on \p pool (which must outlive the solver).
  explicit ShardedSolver(par::ThreadPool& pool,
                         ShardedSolverConfig config = {});

  [[nodiscard]] std::string name() const override { return "sharded-lazy"; }

  [[nodiscard]] core::Solution solve(const core::Problem& problem,
                                     std::size_t k) const override;

  /// Merged candidate pool of the last solve() — the per-shard winners.
  /// The service caches these as swap candidates for incremental re-solve.
  /// Not thread-safe across concurrent solves on the same instance.
  [[nodiscard]] const geo::PointSet& last_candidates() const noexcept {
    return last_candidates_;
  }
  [[nodiscard]] const ShardStats& last_stats() const noexcept {
    return last_stats_;
  }

  /// Lends a caller-maintained spatial index whose rows correspond to the
  /// problem's points (e.g. PlacementService's carried grid); the merge
  /// pass evaluates through it (core::LazyGreedySolver::set_shared_index),
  /// and under kAuto its fit also indexes the shards. Pass nullptr to
  /// revert to per-solve builds. The index must outlive solves; whether it
  /// is consulted follows kernels::should_index().
  void set_shared_index(spatial::SpatialIndex* index) noexcept {
    shared_index_ = index;
  }

  /// Dictates the shard partition as explicit contiguous [begin, end) row
  /// ranges over the next solve's problem rows (the region-sharded store
  /// passes its per-shard ranges so each store shard solves as one unit).
  /// The ranges must be ascending and cover [0, n) exactly; empty ranges
  /// (empty store shards) are skipped. An empty vector reverts to the
  /// computed split. Not thread-safe vs concurrent solves.
  void set_row_groups(
      std::vector<std::pair<std::size_t, std::size_t>> groups) noexcept {
    row_groups_ = std::move(groups);
  }

 private:
  par::ThreadPool& pool_;
  ShardedSolverConfig config_;
  spatial::SpatialIndex* shared_index_ = nullptr;
  std::vector<std::pair<std::size_t, std::size_t>> row_groups_;
  mutable geo::PointSet last_candidates_{1};
  mutable ShardStats last_stats_;
};

}  // namespace mmph::serve
