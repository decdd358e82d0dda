#include "mmph/core/solver.hpp"

#include <vector>

#include "mmph/core/kernels.hpp"
#include "mmph/support/assert.hpp"

namespace mmph::core {

Solution RoundSolverBase::solve(const Problem& problem, std::size_t k) const {
  MMPH_REQUIRE(k >= 1, "solve: k must be >= 1");
  Solution sol;
  sol.solver_name = name();
  sol.centers = geo::PointSet(problem.dim());
  sol.centers.reserve(k);
  sol.round_rewards.reserve(k);

  kernels::ActiveSet active(problem);
  std::vector<double> center(problem.dim());
  for (std::size_t j = 0; j < k; ++j) {
    select_center(problem, active, center);
    const double g = active.apply_center(center);
    sol.centers.push_back(center);
    sol.round_rewards.push_back(g);
    sol.total_reward += g;
  }
  sol.residual.assign(active.residual().begin(), active.residual().end());
  return sol;
}

}  // namespace mmph::core
