#include "mmph/core/greedy_simple.hpp"

#include "mmph/core/kernels.hpp"
#include "mmph/core/reward.hpp"
#include "mmph/geometry/vec.hpp"

namespace mmph::core {

void GreedySimpleSolver::select_center(const Problem& problem,
                                       const kernels::ActiveSet& active,
                                       std::span<double> out) const {
  const std::span<const double> y = active.residual();
  double best = -1.0;
  std::size_t best_i = 0;
  for (std::size_t i = 0; i < problem.size(); ++i) {
    const double s = single_point_reward(problem, i, y);
    if (s > best) {  // strict: ties keep the lowest index
      best = s;
      best_i = i;
    }
  }
  geo::assign(out, problem.point(best_i));
}

}  // namespace mmph::core
