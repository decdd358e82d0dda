// Tests for Problem construction and validation.

#include <gtest/gtest.h>

#include <vector>

#include "mmph/core/problem.hpp"
#include "mmph/support/error.hpp"

namespace mmph::core {
namespace {

geo::PointSet two_points() {
  return geo::PointSet::from_rows({{0.0, 0.0}, {1.0, 1.0}});
}

TEST(Problem, BasicAccessors) {
  const Problem p(two_points(), {1.0, 2.0}, 1.5, geo::l2_metric());
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(p.dim(), 2u);
  EXPECT_DOUBLE_EQ(p.radius(), 1.5);
  EXPECT_DOUBLE_EQ(p.total_weight(), 3.0);
  EXPECT_DOUBLE_EQ(p.weight(1), 2.0);
  EXPECT_DOUBLE_EQ(p.point(1)[0], 1.0);
  EXPECT_EQ(p.metric().norm(), geo::Norm::kL2);
}

TEST(Problem, RejectsEmptyPoints) {
  EXPECT_THROW(Problem(geo::PointSet(2), {}, 1.0, geo::l2_metric()),
               InvalidArgument);
}

TEST(Problem, RejectsWeightCountMismatch) {
  EXPECT_THROW(Problem(two_points(), {1.0}, 1.0, geo::l2_metric()),
               InvalidArgument);
}

TEST(Problem, RejectsNonPositiveRadius) {
  EXPECT_THROW(Problem(two_points(), {1.0, 1.0}, 0.0, geo::l2_metric()),
               InvalidArgument);
  EXPECT_THROW(Problem(two_points(), {1.0, 1.0}, -2.0, geo::l2_metric()),
               InvalidArgument);
}

TEST(Problem, RejectsNonPositiveWeights) {
  EXPECT_THROW(Problem(two_points(), {1.0, 0.0}, 1.0, geo::l2_metric()),
               InvalidArgument);
  EXPECT_THROW(Problem(two_points(), {1.0, -1.0}, 1.0, geo::l2_metric()),
               InvalidArgument);
}

TEST(Problem, FromWorkload) {
  rnd::WorkloadSpec spec;
  spec.n = 10;
  rnd::Rng rng(1);
  const Problem p = Problem::from_workload(rnd::generate_workload(spec, rng),
                                           1.0, geo::l1_metric());
  EXPECT_EQ(p.size(), 10u);
  EXPECT_EQ(p.metric().norm(), geo::Norm::kL1);
}

TEST(Problem, TrustedWrapsRowsUncopiedAndReleasesThem) {
  // Weights whose sum depends on the order of addition: total_weight()
  // must sum in row order, as a validated Problem's does.
  const std::vector<double> weights = {0.1, 0.7, 1e16, 0.2};
  const geo::PointSet points = geo::PointSet::from_rows(
      {{0.0, 0.0}, {1.0, 1.0}, {2.0, 0.5}, {3.0, 3.5}});
  const Problem checked(points, weights, 1.5, geo::l1_metric(),
                        RewardShape::kBinary);

  geo::PointSet lent = points;
  std::vector<double> lent_weights = weights;
  const double* const coords = lent.raw().data();
  const double* const weight_data = lent_weights.data();
  Problem trusted =
      Problem::trusted(std::move(lent), std::move(lent_weights), 1.5,
                       geo::l1_metric(), RewardShape::kBinary);
  EXPECT_EQ(trusted.points().raw().data(), coords);
  EXPECT_EQ(trusted.weights().data(), weight_data);
  EXPECT_EQ(trusted.size(), checked.size());
  EXPECT_EQ(trusted.weights(), checked.weights());
  EXPECT_EQ(trusted.total_weight(), checked.total_weight());  // bitwise
  EXPECT_EQ(trusted.radius(), checked.radius());
  EXPECT_EQ(trusted.metric().norm(), checked.metric().norm());
  EXPECT_EQ(trusted.reward_shape(), checked.reward_shape());

  Problem::Rows rows = std::move(trusted).release();
  EXPECT_EQ(rows.points.raw().data(), coords);
  EXPECT_EQ(rows.weights.data(), weight_data);
  EXPECT_EQ(rows.weights, weights);
  EXPECT_EQ(std::vector<double>(rows.points.raw().begin(),
                                rows.points.raw().end()),
            std::vector<double>(points.raw().begin(), points.raw().end()));
}

}  // namespace
}  // namespace mmph::core
