#include "mmph/ls/bounds.hpp"

#include <algorithm>
#include <functional>
#include <vector>

#include "mmph/core/bounds.hpp"
#include "mmph/core/kernels.hpp"
#include "mmph/support/assert.hpp"

namespace mmph::ls {

double UpperBounds::best() const noexcept {
  return std::min(std::min(ratio_bound, submodular_bound),
                  std::min(marginal_bound, weight_bound));
}

UpperBounds certified_upper_bounds(const core::Problem& problem, std::size_t k,
                                   const core::Solution& greedy_reference,
                                   const geo::PointSet& candidates,
                                   par::ThreadPool* pool) {
  MMPH_REQUIRE(k >= 1, "certified_upper_bounds: k must be >= 1");
  MMPH_REQUIRE(!candidates.empty(),
               "certified_upper_bounds: empty candidate set");
  MMPH_REQUIRE(candidates.dim() == problem.dim(),
               "certified_upper_bounds: candidate dimension mismatch");

  UpperBounds bounds;
  bounds.reference_value = greedy_reference.total_reward;
  bounds.weight_bound = problem.total_weight();
  bounds.ratio_bound =
      bounds.reference_value / core::approx_ratio_round_based(k);
  bounds.submodular_bound = bounds.reference_value / core::one_minus_inv_e();

  // The evaluator's residual after the reference solution is
  // y_i = 1 - min(total_i, 1), so its g(c) is the exact marginal gain
  // f(S + c) - f(S).
  core::kernels::ActiveSet active(problem);
  for (std::size_t j = 0; j < greedy_reference.centers.size(); ++j) {
    (void)active.apply_center(greedy_reference.centers[j]);
  }
  std::vector<double> gains = active.coverage_rewards(candidates, pool);

  // Sum the k largest marginals (all gains are >= 0 by construction).
  const std::size_t top = std::min(k, gains.size());
  std::partial_sort(gains.begin(), gains.begin() + static_cast<std::ptrdiff_t>(top),
                    gains.end(), std::greater<double>());
  double topk_sum = 0.0;
  for (std::size_t i = 0; i < top; ++i) topk_sum += gains[i];
  bounds.marginal_bound = bounds.reference_value + topk_sum;
  return bounds;
}

}  // namespace mmph::ls
