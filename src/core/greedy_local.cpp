#include "mmph/core/greedy_local.hpp"

#include "mmph/core/kernels.hpp"
#include "mmph/geometry/vec.hpp"

namespace mmph::core {

void GreedyLocalSolver::select_center(const Problem& problem,
                                      const kernels::ActiveSet& active,
                                      std::span<double> out) const {
  double best = -1.0;
  std::size_t best_i = 0;
  for (std::size_t i = 0; i < problem.size(); ++i) {
    const double g = active.coverage_reward(problem.point(i));
    if (g > best) {  // strict: ties keep the lowest index
      best = g;
      best_i = i;
    }
  }
  geo::assign(out, problem.point(best_i));
}

}  // namespace mmph::core
