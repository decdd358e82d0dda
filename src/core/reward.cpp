#include "mmph/core/reward.hpp"

#include <algorithm>
#include <cmath>

#include "mmph/geometry/vec.hpp"
#include "mmph/support/assert.hpp"

namespace mmph::core {

std::vector<double> fresh_residual(const Problem& problem) {
  return std::vector<double>(problem.size(), 1.0);
}

double unit_coverage(const Problem& problem, geo::ConstVec center,
                     std::size_t i) {
  const double r = problem.radius();
  double d;
  if (problem.metric().norm() == geo::Norm::kL2) {
    // Hot path: points outside the ball (the vast majority at scale) are
    // rejected on the squared distance and never pay the sqrt. The margin
    // keeps boundary handling identical to the plain distance test.
    const double d2 = geo::dist2_sq(center, problem.point(i));
    if (d2 > r * r * geo::kSquaredSkipMargin) return 0.0;
    d = std::sqrt(d2);
  } else {
    d = problem.metric().distance(center, problem.point(i));
  }
  if (problem.reward_shape() == RewardShape::kBinary) {
    return d <= r ? 1.0 : 0.0;
  }
  const double u = 1.0 - d / r;
  return u > 0.0 ? u : 0.0;
}

double reference_coverage_reward(const Problem& problem,
                                 geo::ConstVec center,
                                 std::span<const double> y) {
  MMPH_ASSERT(y.size() == problem.size(),
              "reference_coverage_reward: residual size");
  double g = 0.0;
  for (std::size_t i = 0; i < problem.size(); ++i) {
    const double u = unit_coverage(problem, center, i);
    if (u <= 0.0) continue;
    g += problem.weight(i) * std::min(u, y[i]);
  }
  return g;
}

double single_point_reward(const Problem& problem, std::size_t i,
                           std::span<const double> y) {
  MMPH_ASSERT(i < problem.size(), "single_point_reward: index");
  return problem.weight(i) * y[i];
}

}  // namespace mmph::core
