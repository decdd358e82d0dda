// ShardedSolver: sharding geometry, single-shard exactness against
// core::LazyGreedySolver, and multi-shard quality on realistic workloads.

#include "mmph/serve/sharded_solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "mmph/core/lazy_greedy.hpp"
#include "mmph/core/objective.hpp"
#include "mmph/core/problem.hpp"
#include "mmph/random/rng.hpp"
#include "mmph/random/workload.hpp"

namespace mmph::serve {
namespace {

core::Problem uniform_problem(std::size_t n, std::uint64_t seed,
                              double radius = 1.0) {
  rnd::WorkloadSpec spec;
  spec.n = n;
  rnd::Rng rng(seed);
  return core::Problem::from_workload(rnd::generate_workload(spec, rng),
                                      radius, geo::l2_metric());
}

TEST(ShardIndices, CoversEveryPointExactlyOnce) {
  const core::Problem problem = uniform_problem(500, 11);
  ShardedSolverConfig config;
  config.max_shards = 7;
  config.min_shard_size = 16;
  const auto shards = shard_indices(problem.points(), config, 4);
  EXPECT_GE(shards.size(), 1u);
  std::vector<std::size_t> seen;
  for (const auto& shard : shards) {
    EXPECT_FALSE(shard.empty());
    seen.insert(seen.end(), shard.begin(), shard.end());
  }
  std::sort(seen.begin(), seen.end());
  std::vector<std::size_t> expected(problem.size());
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(seen, expected);
}

TEST(ShardIndices, MedianSplitBalancesShardSizes) {
  const core::Problem problem = uniform_problem(1024, 5);
  ShardedSolverConfig config;
  config.max_shards = 8;
  config.min_shard_size = 1;
  const auto shards = shard_indices(problem.points(), config, 8);
  ASSERT_EQ(shards.size(), 8u);
  for (const auto& shard : shards) {
    EXPECT_EQ(shard.size(), 128u);  // power-of-two median splits are exact
  }
}

TEST(ShardIndices, RespectsMinShardSize) {
  const core::Problem problem = uniform_problem(100, 3);
  ShardedSolverConfig config;
  config.max_shards = 64;
  config.min_shard_size = 50;
  const auto shards = shard_indices(problem.points(), config, 64);
  EXPECT_LE(shards.size(), 2u);
}

TEST(LazyGreedyOverPool, PoolOfOwnPointsMatchesLazyGreedy) {
  const core::Problem problem = uniform_problem(60, 17);
  const core::Solution direct = core::LazyGreedySolver().solve(problem, 4);
  const core::Solution pooled =
      core::LazyGreedySolver().solve(problem, problem.points(), 4);
  ASSERT_EQ(pooled.centers.size(), direct.centers.size());
  EXPECT_NEAR(pooled.total_reward, direct.total_reward, 1e-9);
  for (std::size_t j = 0; j < direct.centers.size(); ++j) {
    for (std::size_t d = 0; d < problem.dim(); ++d) {
      EXPECT_DOUBLE_EQ(pooled.centers[j][d], direct.centers[j][d]);
    }
  }
}

TEST(ShardedSolver, SingleShardIsExactlyLazyGreedy) {
  const core::Problem problem = uniform_problem(120, 23);
  ShardedSolverConfig config;
  config.max_shards = 1;
  ShardedSolver solver(par::ThreadPool::global(), config);
  const core::Solution sharded = solver.solve(problem, 4);
  const core::Solution direct = core::LazyGreedySolver().solve(problem, 4);
  ASSERT_EQ(sharded.centers.size(), direct.centers.size());
  EXPECT_NEAR(sharded.total_reward, direct.total_reward, 1e-9);
  for (std::size_t j = 0; j < direct.centers.size(); ++j) {
    for (std::size_t d = 0; d < problem.dim(); ++d) {
      EXPECT_DOUBLE_EQ(sharded.centers[j][d], direct.centers[j][d]);
    }
  }
  EXPECT_EQ(solver.last_stats().shards, 1u);
}

TEST(ShardedSolver, MultiShardTracksLazyGreedyQuality) {
  const core::Problem problem = uniform_problem(800, 31);
  ShardedSolverConfig config;
  config.max_shards = 8;
  config.min_shard_size = 16;
  ShardedSolver solver(par::ThreadPool::global(), config);
  const std::size_t k = 6;
  const core::Solution sharded = solver.solve(problem, k);
  const core::Solution direct = core::LazyGreedySolver().solve(problem, k);

  EXPECT_EQ(sharded.centers.size(), k);
  // The merge pass restores the global view; quality stays within a few
  // percent of the monolithic greedy.
  EXPECT_GE(sharded.total_reward, 0.95 * direct.total_reward);
  EXPECT_LE(sharded.total_reward, problem.total_weight() + 1e-9);

  // Solution invariant: stored total equals re-evaluated f(C).
  EXPECT_NEAR(core::objective_value(problem, sharded.centers),
              sharded.total_reward, 1e-6);

  const ShardStats& stats = solver.last_stats();
  EXPECT_GT(stats.shards, 1u);
  EXPECT_EQ(stats.candidate_pool, solver.last_candidates().size());
  EXPECT_GE(stats.candidate_pool, k);
}

TEST(ShardedSolver, TinyPopulationAndLargeK) {
  const core::Problem problem = uniform_problem(3, 7);
  ShardedSolver solver(par::ThreadPool::global());
  const core::Solution sol = solver.solve(problem, 5);
  EXPECT_EQ(sol.centers.size(), 5u);  // re-picking exhausted centers is legal
  EXPECT_LE(sol.total_reward, problem.total_weight() + 1e-9);
}

}  // namespace
}  // namespace mmph::serve
