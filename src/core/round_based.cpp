#include "mmph/core/round_based.hpp"

#include "mmph/core/kernels.hpp"
#include "mmph/geometry/vec.hpp"
#include "mmph/support/assert.hpp"

namespace mmph::core {

RoundBasedSolver::RoundBasedSolver(geo::PointSet candidates)
    : candidates_(std::move(candidates)) {
  MMPH_REQUIRE(!candidates_.empty(),
               "RoundBasedSolver needs at least one candidate center");
}

RoundBasedSolver RoundBasedSolver::over_grid(const Problem& problem,
                                             double pitch, double margin) {
  return RoundBasedSolver(candidates_union(
      candidates_grid_over(problem, pitch, margin),
      candidates_from_points(problem)));
}

void RoundBasedSolver::select_center(const Problem& problem,
                                     const kernels::ActiveSet& active,
                                     std::span<double> out) const {
  MMPH_REQUIRE(candidates_.dim() == problem.dim(),
               "RoundBasedSolver: candidate dimension mismatch");
  double best = -1.0;
  std::size_t best_c = 0;
  for (std::size_t c = 0; c < candidates_.size(); ++c) {
    const double g = active.coverage_reward(candidates_[c]);
    if (g > best) {  // strict: ties keep the lowest candidate index
      best = g;
      best_c = c;
    }
  }
  geo::assign(out, candidates_[best_c]);
}

}  // namespace mmph::core
