// Tests for the kd-tree: ball queries vs brute force across metrics and
// densities, agreement with the uniform grid index, determinism.

#include <gtest/gtest.h>

#include <tuple>

#include "mmph/geometry/kd_tree.hpp"
#include "mmph/random/rng.hpp"
#include "mmph/random/workload.hpp"
#include "mmph/spatial/uniform_grid.hpp"
#include "mmph/support/error.hpp"

namespace mmph::geo {
namespace {

PointSet uniform_points(std::size_t n, std::size_t dim, std::uint64_t seed) {
  rnd::Rng rng(seed);
  PointSet ps(dim);
  ps.reserve(n);
  std::vector<double> p(dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& v : p) v = rng.uniform(0.0, 4.0);
    ps.push_back(p);
  }
  return ps;
}

PointSet clustered_points(std::size_t n, std::uint64_t seed) {
  rnd::WorkloadSpec spec;
  spec.n = n;
  spec.placement = rnd::Placement::kClustered;
  spec.clusters = 3;
  spec.cluster_stddev = 0.2;
  rnd::Rng rng(seed);
  return rnd::generate_workload(spec, rng).points;
}

std::vector<std::size_t> brute_ball(const PointSet& ps, ConstVec center,
                                    double radius, const Metric& metric) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    if (metric.distance(center, ps[i]) <= radius) out.push_back(i);
  }
  return out;
}

TEST(KdTree, Validation) {
  EXPECT_THROW(KdTree(PointSet(2)), InvalidArgument);
  const PointSet ps = uniform_points(10, 2, 1);
  EXPECT_THROW(KdTree(ps, 0), InvalidArgument);
}

TEST(KdTree, SinglePoint) {
  const PointSet ps = PointSet::from_rows({{1.0, 2.0}});
  const KdTree tree(ps);
  EXPECT_EQ(tree.size(), 1u);
  const std::vector<double> q{1.0, 2.0};
  EXPECT_EQ(tree.query_ball(q, 0.0, l2_metric()).size(), 1u);
}

TEST(KdTree, AllIdenticalPoints) {
  PointSet ps(2);
  const std::vector<double> p{1.0, 1.0};
  for (int i = 0; i < 20; ++i) ps.push_back(p);
  const KdTree tree(ps, 4);
  const std::vector<double> q{1.0, 1.0};
  EXPECT_EQ(tree.query_ball(q, 0.1, l2_metric()).size(), 20u);
}

TEST(KdTree, QueryDimensionMismatchThrows) {
  const PointSet ps = uniform_points(5, 2, 2);
  const KdTree tree(ps);
  const std::vector<double> q3{0.0, 0.0, 0.0};
  EXPECT_THROW((void)tree.query_ball(q3, 1.0, l2_metric()), InvalidArgument);
}

class KdTreeQuerySweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, int, int, bool>> {
};

TEST_P(KdTreeQuerySweep, BallQueriesMatchBruteForce) {
  const auto [dim, norm_id, leaf_size, clustered] = GetParam();
  const Metric metric = norm_id == 1   ? l1_metric()
                        : norm_id == 2 ? l2_metric()
                                       : linf_metric();
  const PointSet ps = clustered && dim == 2
                          ? clustered_points(180, 17)
                          : uniform_points(180, dim, 11 + dim);
  const KdTree tree(ps, static_cast<std::size_t>(leaf_size));
  rnd::Rng rng(13 + dim);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<double> q(ps.dim());
    for (auto& v : q) v = rng.uniform(-1.0, 5.0);
    const double radius = rng.uniform(0.0, 2.5);
    EXPECT_EQ(tree.query_ball(q, radius, metric),
              brute_ball(ps, q, radius, metric))
        << "dim=" << dim << " norm=" << norm_id << " leaf=" << leaf_size;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KdTreeQuerySweep,
    ::testing::Combine(::testing::Values(std::size_t{2}, std::size_t{3},
                                         std::size_t{4}),
                       ::testing::Values(1, 2, 0),
                       ::testing::Values(1, 8),
                       ::testing::Values(false, true)));

// The two engines spatial::make_index picks between answer the same ball:
// the grid's box superset, filtered by distance, is the kd-tree's exact
// ball.
TEST(KdTree, AgreesWithCellGrid) {
  const PointSet ps = clustered_points(200, 29);
  const KdTree tree(ps);
  rnd::Rng rng(31);
  std::vector<std::size_t> box;
  for (int trial = 0; trial < 30; ++trial) {
    const std::vector<double> q{rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)};
    const double r = rng.uniform(0.2, 2.0);
    const spatial::UniformGridIndex grid(ps, r, /*cell_size=*/1.0);
    grid.query(q, box);
    std::vector<std::size_t> ball;
    for (const std::size_t i : box) {
      if (l2_metric().distance(q, ps[i]) <= r) ball.push_back(i);
    }
    EXPECT_EQ(tree.query_ball(q, r, l2_metric()), ball);
  }
}

TEST(KdTree, DeterministicVisitOrder) {
  const PointSet ps = uniform_points(100, 2, 37);
  const KdTree tree(ps, 4);
  const std::vector<double> q{2.0, 2.0};
  std::vector<std::size_t> first, second;
  tree.for_each_in_ball(q, 1.5, l2_metric(),
                        [&](std::size_t i) { first.push_back(i); });
  tree.for_each_in_ball(q, 1.5, l2_metric(),
                        [&](std::size_t i) { second.push_back(i); });
  EXPECT_EQ(first, second);
}

TEST(KdTree, NodeCountIsSane) {
  const PointSet ps = uniform_points(256, 2, 41);
  const KdTree tree(ps, 8);
  // A balanced split to <= 8-point leaves needs at least n/8 leaves and
  // fewer than 2n nodes total.
  EXPECT_GE(tree.node_count(), 256u / 8u);
  EXPECT_LT(tree.node_count(), 2u * 256u);
}

}  // namespace
}  // namespace mmph::geo
