#include "mmph/core/round_polish.hpp"

#include <vector>

#include "mmph/core/kernels.hpp"
#include "mmph/geometry/vec.hpp"
#include "mmph/support/assert.hpp"

namespace mmph::core {

PolishedRoundSolver::PolishedRoundSolver(geo::PointSet candidates,
                                         double initial_step, double min_step)
    : candidates_(std::move(candidates)),
      initial_step_(initial_step),
      min_step_(min_step) {
  MMPH_REQUIRE(!candidates_.empty(),
               "PolishedRoundSolver needs at least one candidate");
  MMPH_REQUIRE(initial_step_ > 0.0, "polish: initial step must be positive");
  MMPH_REQUIRE(min_step_ > 0.0 && min_step_ <= initial_step_,
               "polish: min step must be in (0, initial step]");
}

PolishedRoundSolver PolishedRoundSolver::over_grid(const Problem& problem,
                                                   double pitch) {
  return PolishedRoundSolver(
      candidates_union(candidates_grid_over(problem, pitch),
                       candidates_from_points(problem)),
      pitch);
}

void PolishedRoundSolver::select_center(const Problem& problem,
                                        const kernels::ActiveSet& active,
                                        std::span<double> out) const {
  MMPH_REQUIRE(candidates_.dim() == problem.dim(),
               "PolishedRoundSolver: candidate dimension mismatch");

  // Stage 1: best grid candidate (as RoundBasedSolver).
  double best = -1.0;
  std::size_t best_c = 0;
  for (std::size_t c = 0; c < candidates_.size(); ++c) {
    const double g = active.coverage_reward(candidates_[c]);
    if (g > best) {
      best = g;
      best_c = c;
    }
  }

  // Stage 2: compass pattern search around the winner. Probe +/- step in
  // each coordinate; move to the first strict improvement (deterministic
  // axis order); halve the step when no axis improves.
  std::vector<double> center = geo::to_vector(candidates_[best_c]);
  std::vector<double> probe(center);
  double step = initial_step_;
  while (step >= min_step_) {
    bool improved = false;
    for (std::size_t d = 0; d < center.size() && !improved; ++d) {
      for (const double delta : {step, -step}) {
        probe = center;
        probe[d] += delta;
        const double g = active.coverage_reward(probe);
        if (g > best + 1e-12) {
          best = g;
          center = probe;
          improved = true;
          break;
        }
      }
    }
    if (!improved) step *= 0.5;
  }
  geo::assign(out, center);
}

}  // namespace mmph::core
