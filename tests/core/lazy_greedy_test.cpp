// Tests for the lazy-evaluation greedy: identical results to Algorithm 2
// with (usually far) fewer coverage-reward evaluations.

#include <gtest/gtest.h>

#include "mmph/core/greedy_local.hpp"
#include "mmph/core/lazy_greedy.hpp"
#include "mmph/core/objective.hpp"
#include "mmph/random/workload.hpp"
#include "mmph/support/error.hpp"

namespace mmph::core {
namespace {

TEST(LazyGreedy, Name) {
  EXPECT_EQ(LazyGreedySolver().name(), "greedy2-lazy");
}

TEST(LazyGreedy, RejectsZeroK) {
  const Problem p(geo::PointSet::from_rows({{0.0, 0.0}}), {1.0}, 1.0,
                  geo::l2_metric());
  EXPECT_THROW((void)LazyGreedySolver().solve(p, 0), InvalidArgument);
}

TEST(LazyGreedy, CandidateSetMustBeNonEmptyAndMatchTheDimension) {
  const Problem p(geo::PointSet::from_rows({{0.0, 0.0}}), {1.0}, 1.0,
                  geo::l2_metric());
  EXPECT_THROW((void)LazyGreedySolver().solve(p, geo::PointSet(2), 1),
               InvalidArgument);
  EXPECT_THROW((void)LazyGreedySolver().solve(
                   p, geo::PointSet::from_rows({{0.0, 0.0, 0.0}}), 1),
               InvalidArgument);
}

TEST(LazyGreedy, CentersComeFromTheCandidateSet) {
  const Problem p(geo::PointSet::from_rows({{0.0, 0.0}, {1.0, 0.0}}),
                  {1.0, 2.0}, 1.0, geo::l2_metric());
  // Neither user is a candidate; the midpoint covers both.
  const geo::PointSet candidates =
      geo::PointSet::from_rows({{5.0, 5.0}, {0.5, 0.0}});
  const Solution sol = LazyGreedySolver().solve(p, candidates, 1);
  ASSERT_EQ(sol.centers.size(), 1u);
  EXPECT_EQ(sol.centers[0][0], 0.5);
  EXPECT_EQ(sol.centers[0][1], 0.0);
  EXPECT_GT(sol.total_reward, 0.0);
  EXPECT_NEAR(sol.total_reward, objective_value(p, sol.centers), 1e-12);
}

class LazyVsEager : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LazyVsEager, SameCentersAndReward) {
  const auto [n, k] = GetParam();
  rnd::WorkloadSpec spec;
  spec.n = static_cast<std::size_t>(n);
  rnd::Rng rng(41 + n + k);
  for (int trial = 0; trial < 10; ++trial) {
    const Problem p = Problem::from_workload(
        rnd::generate_workload(spec, rng), 1.0, geo::l2_metric());
    const Solution eager = GreedyLocalSolver().solve(p, k);
    const Solution lazy = LazyGreedySolver().solve(p, k);
    ASSERT_EQ(lazy.centers.size(), eager.centers.size());
    EXPECT_NEAR(lazy.total_reward, eager.total_reward, 1e-9)
        << "n=" << n << " k=" << k << " trial=" << trial;
    for (std::size_t j = 0; j < eager.centers.size(); ++j) {
      EXPECT_TRUE(geo::approx_equal(lazy.centers[j], eager.centers[j], 1e-12))
          << "round " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LazyVsEager,
                         ::testing::Combine(::testing::Values(10, 25, 60),
                                            ::testing::Values(1, 2, 4, 8)));

TEST(LazyGreedy, EvaluationCountIsTracked) {
  rnd::WorkloadSpec spec;
  spec.n = 50;
  rnd::Rng rng(43);
  const Problem p = Problem::from_workload(rnd::generate_workload(spec, rng),
                                           1.0, geo::l2_metric());
  const LazyGreedySolver solver;
  (void)solver.solve(p, 4);
  // At least the initial n evaluations, at most what eager would do.
  EXPECT_GE(solver.last_evaluation_count(), 50u);
  EXPECT_LE(solver.last_evaluation_count(), 4u * 50u + 50u);
}

TEST(LazyGreedy, SavesWorkOnSpreadOutInstances) {
  // Widely spread points barely interact, so marginal gains rarely change:
  // lazy evaluation should do far fewer than k*n evaluations.
  geo::PointSet ps(2);
  std::vector<double> weights;
  rnd::Rng rng(44);
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> pt{static_cast<double>(i) * 10.0,
                                 rng.uniform(0.0, 1.0)};
    ps.push_back(pt);
    weights.push_back(rng.uniform(1.0, 5.0));
  }
  const Problem p(std::move(ps), std::move(weights), 1.0, geo::l2_metric());
  const LazyGreedySolver solver;
  (void)solver.solve(p, 10);
  // Eager would use 10 * 100 = 1000 evaluations; lazy needs the initial
  // 100 plus ~1 refresh per round.
  EXPECT_LT(solver.last_evaluation_count(), 250u);
}

TEST(LazyGreedy, MatchesObjective) {
  rnd::WorkloadSpec spec;
  spec.n = 30;
  rnd::Rng rng(45);
  const Problem p = Problem::from_workload(rnd::generate_workload(spec, rng),
                                           1.5, geo::l1_metric());
  const Solution s = LazyGreedySolver().solve(p, 4);
  EXPECT_NEAR(s.total_reward, objective_value(p, s.centers), 1e-9);
}

}  // namespace
}  // namespace mmph::core
