// Tests for core::LocalSearchSolver over caller-given swap candidates, in
// the classic neighborhood the "greedy2+ls" registry name runs: pure swap
// sweeps, at most 16.

#include <gtest/gtest.h>

#include <memory>

#include "mmph/core/candidate_set.hpp"
#include "mmph/core/exhaustive.hpp"
#include "mmph/core/greedy_local.hpp"
#include "mmph/core/greedy_simple.hpp"
#include "mmph/core/local_search.hpp"
#include "mmph/core/objective.hpp"
#include "mmph/core/registry.hpp"
#include "mmph/random/workload.hpp"
#include "mmph/support/error.hpp"

namespace mmph::core {
namespace {

Problem random_problem(std::size_t n, std::uint64_t seed, double radius = 1.0) {
  rnd::WorkloadSpec spec;
  spec.n = n;
  rnd::Rng rng(seed);
  return Problem::from_workload(rnd::generate_workload(spec, rng), radius,
                                geo::l2_metric());
}

/// The greedy2+ls neighborhood: pure swap sweeps, at most 16.
LsConfig swap_sweeps() {
  LsConfig config;
  config.max_sweeps = 16;
  config.shift_moves = false;
  return config;
}

TEST(LocalSearch, Validation) {
  EXPECT_THROW(LocalSearchSolver(nullptr, geo::PointSet::from_rows({{0.0}})),
               InvalidArgument);
  LsConfig no_sweeps = swap_sweeps();
  no_sweeps.max_sweeps = 0;
  EXPECT_THROW(LocalSearchSolver(std::make_shared<GreedyLocalSolver>(),
                                 geo::PointSet::from_rows({{0.0, 0.0}}),
                                 no_sweeps),
               InvalidArgument);
  // An empty candidate set is not an error: it selects the instance
  // points, resolved per solve.
  const Problem p = random_problem(20, 46);
  const auto base = std::make_shared<GreedySimpleSolver>();
  const LocalSearchSolver implicit(base, geo::PointSet(2), swap_sweeps());
  const LocalSearchSolver explicit_points(base, candidates_from_points(p),
                                          swap_sweeps());
  EXPECT_EQ(implicit.solve(p, 3).total_reward,
            explicit_points.solve(p, 3).total_reward);
}

TEST(LocalSearch, NameAppendsSuffix) {
  const auto ls = LocalSearchSolver(std::make_shared<GreedySimpleSolver>(),
                                    geo::PointSet::from_rows({{0.0, 0.0}}));
  EXPECT_EQ(ls.name(), "ls(greedy3)");
}

TEST(LocalSearch, NeverWorseThanBase) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Problem p = random_problem(25, seed);
    const double base = GreedyLocalSolver().solve(p, 3).total_reward;
    const double refined =
        make_solver("greedy2+ls", p)->solve(p, 3).total_reward;
    EXPECT_GE(refined + 1e-9, base) << "seed " << seed;
  }
}

TEST(LocalSearch, ImprovesAWeakBase) {
  // greedy3 leaves coverage on the table; local search should close part
  // of the gap to greedy2 on average.
  double base_total = 0.0;
  double refined_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Problem p = random_problem(30, seed);
    const LocalSearchSolver ls(std::make_shared<GreedySimpleSolver>(),
                               candidates_from_points(p), swap_sweeps());
    base_total += GreedySimpleSolver().solve(p, 3).total_reward;
    refined_total += ls.solve(p, 3).total_reward;
  }
  EXPECT_GT(refined_total, base_total * 1.01);
}

TEST(LocalSearch, ReachesPointOptimumOnSmallInstances) {
  // With candidates = the points and k small, 1-swap local search from
  // greedy2 should usually land on the exhaustive point optimum; require
  // it on strictly most seeds and never above it.
  int optimal = 0;
  constexpr int kSeeds = 10;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Problem p = random_problem(12, seed);
    const LocalSearchSolver ls(std::make_shared<GreedyLocalSolver>(),
                               candidates_from_points(p), swap_sweeps());
    const double refined = ls.solve(p, 2).total_reward;
    const double opt =
        ExhaustiveSolver::over_points(p).solve(p, 2).total_reward;
    EXPECT_LE(refined, opt + 1e-9);
    if (refined >= opt - 1e-9) ++optimal;
  }
  EXPECT_GE(optimal, 7);
}

TEST(LocalSearch, AccountingConsistentAfterSwaps) {
  const Problem p = random_problem(30, 42);
  const Solution s = make_solver("greedy2+ls", p)->solve(p, 4);
  EXPECT_EQ(s.centers.size(), 4u);
  EXPECT_EQ(s.round_rewards.size(), 4u);
  EXPECT_NEAR(s.total_reward, objective_value(p, s.centers), 1e-9);
  EXPECT_EQ(s.solver_name, "ls(greedy2)");
}

TEST(LocalSearch, SwapCountReported) {
  const Problem p = random_problem(30, 43);
  const LocalSearchSolver weak(std::make_shared<GreedySimpleSolver>(),
                               candidates_from_points(p), swap_sweeps());
  const double base = GreedySimpleSolver().solve(p, 3).total_reward;
  const Solution s = weak.solve(p, 3);
  if (s.total_reward > base + 1e-9) {
    EXPECT_GT(weak.last_stats().moves, 0u);
  } else {
    EXPECT_EQ(weak.last_stats().moves, 0u);
  }
}

TEST(LocalSearch, DeterministicAcrossRuns) {
  const Problem p = random_problem(25, 44);
  const auto ls = make_solver("greedy2+ls", p);
  const Solution a = ls->solve(p, 3);
  const Solution b = ls->solve(p, 3);
  EXPECT_DOUBLE_EQ(a.total_reward, b.total_reward);
  for (std::size_t j = 0; j < a.centers.size(); ++j) {
    EXPECT_TRUE(geo::approx_equal(a.centers[j], b.centers[j], 0.0));
  }
}

TEST(LocalSearch, DimensionMismatchThrows) {
  const Problem p = random_problem(10, 45);
  const LocalSearchSolver ls(std::make_shared<GreedyLocalSolver>(),
                             geo::PointSet::from_rows({{0.0, 0.0, 0.0}}));
  EXPECT_THROW((void)ls.solve(p, 2), InvalidArgument);
}

}  // namespace
}  // namespace mmph::core
