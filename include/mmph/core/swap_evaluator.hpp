#pragma once

/// \file swap_evaluator.hpp
/// \brief Ball-local incremental evaluation of 1-swap moves — the one
/// evaluator behind every swap search (core::LocalSearchSolver,
/// sim::WarmStartPlanner, ls::polish).
///
/// Replacing center c_j by c' only changes u_i for points inside
/// ball(c_j) ∪ ball(c'); everywhere else both coverages are exactly 0. The
/// evaluator keeps, per slot j, the ascending ids with u_i(c_j) > 0 and
/// their values (O(k·|ball|) memory, not k·n), plus the dense per-point
/// totals, and answers a trial by merging slot j's ids with the ball around
/// c'. With an index, construction is k ball queries plus one O(n) pass over
/// the totals. Deltas accumulate term by term in ascending point-id order,
/// so two runs of the same search are bit-identical.
///
/// Gathering the ball around a point, chosen once at construction:
///   - the index the caller lends (e.g. the service's carried grid);
///   - else an owned index, when a query visits a small slice of the box
///     (kernels::query_box_sparse);
///   - else the full row range [0, n) — on dense boxes, where a coverage
///     ball spans much of the population, a plain scan beats the gather.
/// Terms outside a ball are exact +0.0 and ids merge in ascending order, so
/// all three give bitwise-equal deltas, totals and accounting.

#include <cstddef>
#include <memory>
#include <vector>

#include "mmph/core/problem.hpp"
#include "mmph/core/solution.hpp"
#include "mmph/geometry/point_set.hpp"
#include "mmph/spatial/spatial_index.hpp"

namespace mmph::core {

/// Strict-improvement threshold of every swap search: a move is taken only
/// when its delta exceeds this, which rejects float-noise "improvements".
inline constexpr double kMinSwapGain = 1e-9;

class SwapEvaluator {
 public:
  /// Caches coverage of \p centers (copied) against \p problem, which must
  /// outlive the evaluator. A non-null \p index serves the radius queries
  /// (unmask_all() is called first — a prior indexed solve may have left
  /// masks set); it must index exactly problem.points() at
  /// problem.radius() and outlive the evaluator.
  SwapEvaluator(const Problem& problem, const geo::PointSet& centers,
                spatial::SpatialIndex* index = nullptr);

  [[nodiscard]] const geo::PointSet& centers() const noexcept {
    return centers_;
  }

  /// f(C) for the current center set, maintained by accumulated deltas.
  [[nodiscard]] double current_value() const noexcept { return value_; }

  /// f(C with centers[j] := candidate) − f(C), without changing state.
  /// O(|ball(centers[j])| + |ball(candidate)|), or O(n) when scanning.
  [[nodiscard]] double delta_for_swap(std::size_t j,
                                      geo::ConstVec candidate) const;

  /// Applies the swap and updates the caches. Same cost as a delta.
  void commit_swap(std::size_t j, geo::ConstVec candidate);

  /// Full O(n) recompute of f(C) from the cached totals (test hook for
  /// pinning the accumulated current_value() against drift).
  [[nodiscard]] double exact_value() const;

  /// Exact per-round accounting of centers() from a fresh residual
  /// (total_reward == sum of round_rewards == f(centers)), ball-local when
  /// an index gathers the balls; bitwise equal to core::apply_center
  /// rounds either way. solver_name is left empty.
  [[nodiscard]] Solution account() const;

 private:
  /// Calls fn(i, u_old, u_new) for every id whose coverage can change
  /// under (j, candidate), in ascending id order.
  template <typename Fn>
  void for_each_touched(std::size_t j, geo::ConstVec candidate,
                        Fn&& fn) const;

  /// Slot j's nonzero coverage: ascending ids and their u_i(c_j) > 0.
  struct Slot {
    std::vector<std::size_t> ids;
    std::vector<double> units;
  };

  const Problem& problem_;
  geo::PointSet centers_;
  std::unique_ptr<spatial::SpatialIndex> owned_;
  spatial::SpatialIndex* index_;  ///< lent, owned_.get(), or null = scan
  std::vector<Slot> slots_;
  std::vector<double> totals_;  ///< sum_j u_i(c_j), uncapped
  double value_ = 0.0;

  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  mutable std::vector<std::size_t> ball_;     ///< query scratch
  mutable std::vector<std::size_t> touched_;  ///< merged-ids scratch
  /// Full scan only: slot dense_slot_'s coverage as a dense row.
  mutable std::vector<double> dense_;
  mutable std::size_t dense_slot_ = kNoSlot;
  Slot next_;  ///< commit scratch
};

}  // namespace mmph::core
