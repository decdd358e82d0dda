#pragma once

/// \file lazy_greedy.hpp
/// \brief Lazy-evaluation acceleration of Algorithm 2 (library extension).
///
/// Minoux's classic trick: because f is submodular, a candidate's marginal
/// gain only shrinks as rounds pass, so a stale upper bound from an earlier
/// round is still an upper bound. Keeping candidates in a max-heap keyed by
/// their last-evaluated gain and re-evaluating only the top avoids the full
/// O(n) scan per round in the common case. Selects exactly the same centers
/// as GreedyLocalSolver (same tie-breaking) — verified by tests — while
/// evaluating far fewer coverage rewards (see bench/perf_lazy_greedy).
///
/// Lazy evaluation cuts how many reward evaluations run; the evaluator
/// (kernels::ActiveSet) makes each one cheap — a radius-index query or a
/// compacted blocked scan. The first round scores every candidate, the
/// pass laziness cannot avoid: on the index over the problem's own points
/// it is one O(n · points-in-ball) sweep, on the scan an O(n^2) map that
/// can be sharded across a ThreadPool. Every backend and schedule selects
/// identical centers (pinned by tests).
///
/// The candidate domain defaults to the problem's own points (Algorithm 2);
/// the candidate-set overload draws centers from any point set instead,
/// which is how serve::ShardedSolver merges its per-shard winners.

#include <atomic>
#include <cstddef>

#include "mmph/core/solver.hpp"
#include "mmph/geometry/point_set.hpp"
#include "mmph/parallel/thread_pool.hpp"

namespace mmph::spatial {
class SpatialIndex;
}

namespace mmph::core {

class LazyGreedySolver final : public Solver {
 public:
  LazyGreedySolver() = default;

  /// With a pool, a first round that maps its candidates is sharded across
  /// the workers (deterministic per-slot writes; see
  /// kernels::ActiveSet::coverage_rewards).
  /// Do NOT pass a pool when solve() itself may run on one of that pool's
  /// workers (e.g. per-shard solves inside ShardedSolver): blocking on
  /// work queued behind the callers can deadlock.
  explicit LazyGreedySolver(par::ThreadPool* pool) noexcept : pool_(pool) {}

  [[nodiscard]] std::string name() const override { return "greedy2-lazy"; }

  [[nodiscard]] Solution solve(const Problem& problem,
                               std::size_t k) const override;

  /// Same greedy with centers drawn from \p candidates (non-empty, of the
  /// problem's dimension) and evaluated against the full problem. Ties
  /// break toward the lower candidate index; re-picking a candidate is
  /// allowed. solve(problem, k) is this over problem.points().
  [[nodiscard]] Solution solve(const Problem& problem,
                               const geo::PointSet& candidates,
                               std::size_t k) const;

  /// Number of coverage-reward evaluations the last solve() performed (for
  /// the ablation bench). The counter is atomic, so solves running
  /// concurrently on the same instance (e.g. under a sharded/parallel
  /// harness) cannot tear it; each solve resets it, so with concurrent
  /// solves the value reflects the evaluations since the latest reset.
  [[nodiscard]] std::size_t last_evaluation_count() const noexcept {
    return last_evals_.load(std::memory_order_relaxed);
  }

  /// Lends a caller-maintained spatial index (rows must correspond to the
  /// problem's points) so solve() skips the index build. The index outlives
  /// the solver's use of it; solve() re-unmasks it at start. Whether it is
  /// consulted follows kernels::should_index().
  void set_shared_index(spatial::SpatialIndex* index) noexcept {
    index_ = index;
  }

 private:
  par::ThreadPool* pool_ = nullptr;
  spatial::SpatialIndex* index_ = nullptr;
  mutable std::atomic<std::size_t> last_evals_{0};
};

}  // namespace mmph::core
