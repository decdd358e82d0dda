#pragma once

/// \file bounds.hpp
/// \brief Certified per-instance upper bounds on the discrete optimum.
///
/// The paper's Theorems 1/2 bound solution quality *relatively*; the test
/// suite wants an *absolute* ceiling it can pin every solver under at
/// sizes where ExhaustiveSolver cannot run. Both bounds here certify
///
///     OPT_k(candidates) <= bound
///
/// where OPT_k(candidates) is the best value achievable by k centers drawn
/// from the given candidate set (the domain the discrete solvers — greedy2,
/// lazy, sharded, ls, exhaustive-points — optimize over).
///
///   ratio bound       greedy_value / (1 - (1 - 1/k)^k)
///     Valid because the reference solution is standard greedy over the
///     candidate ground set, and greedy on a monotone submodular objective
///     achieves at least 1 - (1 - 1/k)^k of that ground set's optimum
///     (paper Theorem 1; the k -> inf limit is the familiar 1 - 1/e,
///     reported separately as submodular_bound).
///
///   marginal-sum bound  f(S) + sum of the k largest marginal gains
///     Valid for ANY solution S by submodularity:
///       f(OPT) <= f(S) + sum_{c in OPT} [f(S + c) - f(S)]
///     and each of OPT's k marginals is at most one of the k largest over
///     the whole candidate set. The marginals are exact: with y_S the
///     residual after applying S, coverage_reward(c, y_S) equals
///     f(S + c) - f(S) term for term (the residual identity
///     y_i = 1 - min(total_i, 1) the round solvers maintain).
///
/// The two bounds complement each other: the ratio bound is tight when
/// greedy is near its worst case; the marginal bound collapses to ~f(S)
/// when S is already near-saturating (all remaining marginals small).
/// best() also folds in the trivial ceiling sum_i w_i.

#include <cstddef>

#include "mmph/core/problem.hpp"
#include "mmph/core/solution.hpp"
#include "mmph/geometry/point_set.hpp"
#include "mmph/parallel/thread_pool.hpp"

namespace mmph::ls {

/// The certified ceilings for one instance (all bound OPT_k(candidates)).
struct UpperBounds {
  double reference_value = 0.0;   ///< f(S) of the greedy reference
  double ratio_bound = 0.0;       ///< reference / (1 - (1 - 1/k)^k)
  double submodular_bound = 0.0;  ///< reference / (1 - 1/e), the weaker limit
  double marginal_bound = 0.0;    ///< reference + sum of top-k marginals
  double weight_bound = 0.0;      ///< sum_i w_i, the trivial ceiling

  /// The tightest certified ceiling.
  [[nodiscard]] double best() const noexcept;
};

/// Computes both bounds for \p problem at cardinality \p k.
///
/// \p greedy_reference MUST be the solution of standard greedy (greedy2 /
/// lazy greedy / single-shard sharded — all bitwise-identical here) run for
/// k rounds over the ground set \p candidates; the ratio bound's
/// certificate depends on that, the marginal bound holds for any S.
/// \p pool shards the candidate marginal scan when it maps candidate by
/// candidate (nullptr = serial; see kernels::ActiveSet::coverage_rewards).
[[nodiscard]] UpperBounds certified_upper_bounds(
    const core::Problem& problem, std::size_t k,
    const core::Solution& greedy_reference, const geo::PointSet& candidates,
    par::ThreadPool* pool = nullptr);

}  // namespace mmph::ls
