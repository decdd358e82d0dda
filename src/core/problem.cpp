#include "mmph/core/problem.hpp"

#include <numeric>

#include "mmph/support/assert.hpp"

namespace mmph::core {

const char* reward_shape_name(RewardShape shape) {
  switch (shape) {
    case RewardShape::kLinear:
      return "linear";
    case RewardShape::kBinary:
      return "binary";
  }
  return "?";
}

Problem::Problem(geo::PointSet points, std::vector<double> weights,
                 double radius, geo::Metric metric, RewardShape shape)
    : Problem(Trusted{}, std::move(points), std::move(weights), radius,
              metric, shape) {
  MMPH_REQUIRE(!points_.empty(), "Problem needs at least one point");
  MMPH_REQUIRE(points_.size() == weights_.size(),
               "Problem: one weight per point required");
  MMPH_REQUIRE(radius_ > 0.0, "Problem: radius must be positive");
  for (double w : weights_) {
    MMPH_REQUIRE(w > 0.0, "Problem: weights must be positive");
  }
}

Problem::Problem(Trusted, geo::PointSet points, std::vector<double> weights,
                 double radius, geo::Metric metric, RewardShape shape) noexcept
    : points_(std::move(points)),
      weights_(std::move(weights)),
      radius_(radius),
      metric_(metric),
      shape_(shape) {}

Problem Problem::trusted(geo::PointSet points, std::vector<double> weights,
                         double radius, geo::Metric metric,
                         RewardShape shape) noexcept {
  return Problem(Trusted{}, std::move(points), std::move(weights), radius,
                 metric, shape);
}

double Problem::total_weight() const noexcept {
  return std::accumulate(weights_.begin(), weights_.end(), 0.0);
}

Problem Problem::from_workload(rnd::Workload workload, double radius,
                               geo::Metric metric, RewardShape shape) {
  return Problem(std::move(workload.points), std::move(workload.weights),
                 radius, metric, shape);
}

}  // namespace mmph::core
