#pragma once

/// \file reward.hpp
/// \brief Reward kernels: the inner loops every solver shares.
///
/// Terminology follows the paper. For a center c and point i:
///   unit coverage  u_i(c) = [1 - d(c, x_i)/r]_+            (fraction in [0,1])
///   round reward   z_i    = min(u_i(c), y_i)               (Eq. 13/14 constraint)
///   coverage reward g(c)  = sum_i w_i z_i
/// where y is the per-point residual capacity, starting at 1 and decreased
/// by z_i each round, which realizes the per-point cap w_i of Eq. (3).

#include <span>
#include <vector>

#include "mmph/core/problem.hpp"

namespace mmph::core {

/// Residual capacity vector y, all ones (round 1 of every algorithm).
[[nodiscard]] std::vector<double> fresh_residual(const Problem& problem);

/// u_i(c) = [1 - d(c, x_i)/r]_+ for one point.
[[nodiscard]] double unit_coverage(const Problem& problem, geo::ConstVec center,
                                   std::size_t i);

/// Coverage reward g(c) = sum_i w_i min(u_i(c), y_i) against residual \p y
/// (the blocked kernels of kernels.hpp over every point).
[[nodiscard]] double coverage_reward(const Problem& problem,
                                     geo::ConstVec center,
                                     std::span<const double> y);

/// Commits a center: y_i -= z_i for every point; returns the round reward
/// g(c) that was claimed (the blocked kernels of kernels.hpp).
double apply_center(const Problem& problem, geo::ConstVec center,
                    std::span<double> y);

/// The per-point reference loop for g(c): one unit_coverage call per point,
/// in ascending order, no blocking. The oracle that tests and
/// bench/perf_kernels check the blocked kernels and the evaluator against.
[[nodiscard]] double reference_coverage_reward(const Problem& problem,
                                               geo::ConstVec center,
                                               std::span<const double> y);

/// Single-point residual reward w_i * y_i (Algorithm 3's selection key).
[[nodiscard]] double single_point_reward(const Problem& problem, std::size_t i,
                                         std::span<const double> y);

}  // namespace mmph::core
