#pragma once

/// \file problem.hpp
/// \brief The optimal content distribution problem instance (paper §III-A).
///
/// An instance is: n user-interest points x_i in R^m with maximum rewards
/// w_i, a broadcast radius r, and the p-norm measuring interest distance.
/// Solvers choose k centers c_j maximizing
///   f(C) = sum_i w_i * min( sum_j [1 - d(c_j, x_i)/r]_+ , 1 )        (Eq. 7)

#include <utility>
#include <vector>

#include "mmph/geometry/norms.hpp"
#include "mmph/geometry/point_set.hpp"
#include "mmph/random/workload.hpp"

namespace mmph::core {

/// How a point's reward decays inside a center's coverage range.
enum class RewardShape {
  /// The paper's model: u = [1 - d/r]_+, linear decay with distance.
  kLinear,
  /// Classic weighted max-coverage: u = 1 inside the ball, 0 outside.
  /// Still monotone submodular, so every solver and bound applies; used
  /// by the reward-shape ablation to quantify what distance-weighting
  /// changes.
  kBinary,
};

[[nodiscard]] const char* reward_shape_name(RewardShape shape);

/// Immutable-after-construction problem instance. It owns its rows, but
/// trusted() and release() let an owner such as serve::PlacementService
/// wrap rows it already holds valid for one solve and take them back
/// after it, uncopied.
class Problem {
 public:
  /// Validates and takes ownership of the instance data.
  /// \throws InvalidArgument on empty points, mismatched weight count,
  ///         non-positive weights, or non-positive radius.
  Problem(geo::PointSet points, std::vector<double> weights, double radius,
          geo::Metric metric, RewardShape shape = RewardShape::kLinear);

  /// Wraps rows its caller already holds valid (a serve::InstanceStore
  /// checks every row it takes): \p points non-empty, one positive weight
  /// per point, a positive radius. Nothing is checked, so it is O(1).
  [[nodiscard]] static Problem trusted(geo::PointSet points,
                                       std::vector<double> weights,
                                       double radius, geo::Metric metric,
                                       RewardShape shape) noexcept;

  /// Builds a problem from a generated workload.
  static Problem from_workload(rnd::Workload workload, double radius,
                               geo::Metric metric,
                               RewardShape shape = RewardShape::kLinear);

  [[nodiscard]] const geo::PointSet& points() const noexcept {
    return points_;
  }
  [[nodiscard]] const std::vector<double>& weights() const noexcept {
    return weights_;
  }
  [[nodiscard]] double radius() const noexcept { return radius_; }
  [[nodiscard]] const geo::Metric& metric() const noexcept { return metric_; }
  [[nodiscard]] RewardShape reward_shape() const noexcept { return shape_; }

  [[nodiscard]] std::size_t size() const noexcept { return weights_.size(); }
  [[nodiscard]] std::size_t dim() const noexcept { return points_.dim(); }

  /// sum_i w_i — the ceiling on any objective value. O(n): summed in row
  /// order on each call, which keeps trusted() O(1).
  [[nodiscard]] double total_weight() const noexcept;

  /// Point i's interest vector.
  [[nodiscard]] geo::ConstVec point(std::size_t i) const {
    return points_[i];
  }
  /// Point i's maximum reward w_i.
  [[nodiscard]] double weight(std::size_t i) const { return weights_[i]; }

  /// The rows, moved out of an expiring Problem uncopied (how rows wrapped
  /// by trusted() go back to their owner).
  struct Rows {
    geo::PointSet points;
    std::vector<double> weights;
  };
  [[nodiscard]] Rows release() && noexcept {
    return Rows{std::move(points_), std::move(weights_)};
  }

 private:
  struct Trusted {};
  Problem(Trusted, geo::PointSet points, std::vector<double> weights,
          double radius, geo::Metric metric, RewardShape shape) noexcept;

  geo::PointSet points_;
  std::vector<double> weights_;
  double radius_;
  geo::Metric metric_;
  RewardShape shape_;
};

}  // namespace mmph::core
