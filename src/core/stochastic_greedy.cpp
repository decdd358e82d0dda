#include "mmph/core/stochastic_greedy.hpp"

#include <algorithm>
#include <cmath>

#include "mmph/core/kernels.hpp"
#include "mmph/geometry/vec.hpp"
#include "mmph/support/assert.hpp"

namespace mmph::core {

StochasticGreedySolver::StochasticGreedySolver(double epsilon,
                                               std::uint64_t seed)
    : epsilon_(epsilon), seed_(seed) {
  MMPH_REQUIRE(epsilon > 0.0 && epsilon < 1.0,
               "StochasticGreedySolver: epsilon must be in (0, 1)");
}

std::size_t StochasticGreedySolver::sample_size(std::size_t n,
                                                std::size_t k) const {
  const double s = std::ceil(static_cast<double>(n) /
                             static_cast<double>(k) * std::log(1.0 / epsilon_));
  return std::min(n, static_cast<std::size_t>(std::max(1.0, s)));
}

Solution StochasticGreedySolver::solve(const Problem& problem,
                                       std::size_t k) const {
  MMPH_REQUIRE(k >= 1, "solve: k must be >= 1");
  const std::size_t n = problem.size();
  const std::size_t s = sample_size(n, k);
  rnd::Rng rng(seed_);

  Solution sol;
  sol.solver_name = name();
  sol.centers = geo::PointSet(problem.dim());
  sol.centers.reserve(k);

  // Per-candidate evals touch only the points within coverage radius when
  // the evaluator indexes; either backend gives the same sampled picks.
  kernels::ActiveSet active(problem);

  for (std::size_t j = 0; j < k; ++j) {
    // Sample without replacement via a partial Fisher-Yates over a fresh
    // index array (cheap at these sizes; keeps draws independent of k).
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = i;
    for (std::size_t i = 0; i < s; ++i) {
      const std::size_t pick = i + static_cast<std::size_t>(rng.uniform_int(
                                       0, static_cast<std::int64_t>(n - i) - 1));
      std::swap(idx[i], idx[pick]);
    }
    // Deterministic tie-break inside the sample: lowest point index wins,
    // matching the paper's rule on the sampled subset.
    std::sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(s));

    double best = -1.0;
    std::size_t best_i = idx[0];
    for (std::size_t t = 0; t < s; ++t) {
      const double g = active.coverage_reward(problem.point(idx[t]));
      if (g > best) {
        best = g;
        best_i = idx[t];
      }
    }
    const double g = active.apply_center(problem.point(best_i));
    sol.centers.push_back(problem.point(best_i));
    sol.round_rewards.push_back(g);
    sol.total_reward += g;
  }
  sol.residual.assign(active.residual().begin(), active.residual().end());
  return sol;
}

}  // namespace mmph::core
