// Tests for the local-search engine (core::polish): the swap evaluator's
// deltas against a from-scratch objective, the polish-never-hurts
// guarantee, bitwise determinism (plain and tabu modes), the fault-abort
// path, the borrowed-vs-owned spatial index equivalence, and the ls names
// of the solver registry.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "mmph/core/lazy_greedy.hpp"
#include "mmph/core/local_search.hpp"
#include "mmph/core/objective.hpp"
#include "mmph/core/registry.hpp"
#include "mmph/core/reward.hpp"
#include "mmph/core/swap_evaluator.hpp"
#include "mmph/geometry/vec.hpp"
#include "mmph/random/workload.hpp"
#include "mmph/spatial/spatial_index.hpp"
#include "mmph/support/error.hpp"

namespace mmph::core {
namespace {

core::Problem random_problem(std::size_t n, std::uint64_t seed,
                             geo::Metric metric = geo::l2_metric(),
                             core::RewardShape shape =
                                 core::RewardShape::kLinear) {
  rnd::WorkloadSpec spec;
  spec.n = n;
  spec.weights = rnd::WeightScheme::kUniformInt;
  rnd::Rng rng(seed);
  return core::Problem::from_workload(rnd::generate_workload(spec, rng), 1.0,
                                      metric, shape);
}

geo::PointSet first_points(const core::Problem& problem, std::size_t k) {
  geo::PointSet centers(problem.dim());
  for (std::size_t j = 0; j < k; ++j) centers.push_back(problem.points()[j]);
  return centers;
}

/// A syntactically valid (but typically poor) seed solution over the first
/// k instance points, with exact accounting.
core::Solution poor_seed(const core::Problem& problem, std::size_t k) {
  core::Solution seed;
  seed.solver_name = "seed";
  seed.centers = first_points(problem, k);
  std::vector<double> residual = core::fresh_residual(problem);
  for (std::size_t j = 0; j < seed.centers.size(); ++j) {
    const double g = core::apply_center(problem, seed.centers[j], residual);
    seed.round_rewards.push_back(g);
    seed.total_reward += g;
  }
  return seed;
}

void expect_identical(const core::Solution& got, const core::Solution& want,
                      const std::string& context) {
  ASSERT_EQ(got.centers.size(), want.centers.size()) << context;
  EXPECT_EQ(got.total_reward, want.total_reward) << context;  // bitwise
  for (std::size_t c = 0; c < got.centers.size(); ++c) {
    for (std::size_t d = 0; d < got.centers.dim(); ++d) {
      EXPECT_EQ(got.centers[c][d], want.centers[c][d])
          << context << " center " << c << " coord " << d;
    }
  }
}

TEST(DeltaEvaluator, Validation) {
  const core::Problem p = random_problem(20, 1);
  EXPECT_THROW(core::SwapEvaluator(p, geo::PointSet(2)), InvalidArgument);
  EXPECT_THROW(
      core::SwapEvaluator(p, geo::PointSet::from_rows({{0.0, 0.0, 0.0}})),
      InvalidArgument);
  // A lent index must describe exactly this problem.
  const core::Problem other = random_problem(21, 2);
  auto wrong =
      spatial::make_index(other.points(), other.radius(), other.metric());
  EXPECT_THROW(core::SwapEvaluator(p, first_points(p, 3), wrong.get()),
               InvalidArgument);
}

/// f(centers with slot j replaced by \p candidate), from scratch.
double swapped_value(const core::Problem& problem, geo::PointSet centers,
                     std::size_t j, geo::ConstVec candidate) {
  geo::assign(centers.mutable_point(j), candidate);
  return core::objective_value(problem, centers);
}

TEST(DeltaEvaluator, AgreesWithSwapEvaluatorAcrossSwapSequence) {
  const core::Problem problem = random_problem(160, 7);
  const std::size_t k = 5;
  core::SwapEvaluator delta(problem, first_points(problem, k));

  EXPECT_NEAR(delta.current_value(),
              core::objective_value(problem, delta.centers()), 1e-9);
  EXPECT_NEAR(delta.exact_value(),
              core::objective_value(problem, delta.centers()), 1e-9);

  rnd::Rng rng(11);
  for (int step = 0; step < 120; ++step) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(k) - 1));
    const auto c = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(problem.size()) - 1));
    const geo::ConstVec candidate = problem.points()[c];
    const double got = delta.delta_for_swap(j, candidate);
    const double want =
        swapped_value(problem, delta.centers(), j, candidate) -
        core::objective_value(problem, delta.centers());
    EXPECT_NEAR(got, want, 1e-9) << "step " << step;
    if (step % 3 == 0) {
      delta.commit_swap(j, candidate);
      EXPECT_NEAR(delta.current_value(),
                  core::objective_value(problem, delta.centers()), 1e-9);
      // The accumulated value never drifts from the cached totals.
      EXPECT_NEAR(delta.current_value(), delta.exact_value(), 1e-9);
    }
  }
}

TEST(DeltaEvaluator, BinaryRewardShapeAgreesToo) {
  const core::Problem problem = random_problem(
      90, 3, geo::l2_metric(), core::RewardShape::kBinary);
  const core::SwapEvaluator delta(problem, first_points(problem, 4));
  const double base = core::objective_value(problem, delta.centers());
  for (std::size_t c = 0; c < problem.size(); c += 7) {
    const double got = delta.delta_for_swap(1, problem.points()[c]);
    const double want =
        swapped_value(problem, delta.centers(), 1, problem.points()[c]) - base;
    EXPECT_NEAR(got, want, 1e-9) << "candidate " << c;
  }
}

TEST(Polish, NeverHurtsAndImprovesAPoorSeed) {
  const core::Problem problem = random_problem(220, 17);
  const core::Solution seed = poor_seed(problem, 4);
  LsStats stats;
  const core::Solution out =
      polish(problem, seed, problem.points(), {}, &stats);
  EXPECT_GE(out.total_reward, seed.total_reward);
  // The first k points of the workload are a poor placement; local search
  // must find strictly better centers here.
  EXPECT_TRUE(stats.improved);
  EXPECT_GT(out.total_reward, seed.total_reward);
  EXPECT_GT(stats.moves, 0u);
  EXPECT_GT(stats.evals, 0u);
  EXPECT_EQ(out.solver_name, "seed+ls");
  // Accounting is exact: rounds re-derived from the final centers.
  ASSERT_EQ(out.round_rewards.size(), out.centers.size());
  EXPECT_NEAR(out.total_reward, core::objective_value(problem, out.centers),
              1e-9);
}

TEST(Polish, DeterministicBitwise) {
  const core::Problem problem = random_problem(180, 23);
  const core::Solution seed = poor_seed(problem, 5);
  const core::Solution a = polish(problem, seed, problem.points());
  const core::Solution b = polish(problem, seed, problem.points());
  expect_identical(a, b, "same seed, same polish");
}

TEST(Polish, BorrowedIndexMatchesOwnedBitwise) {
  const core::Problem problem = random_problem(200, 31);
  const core::Solution seed = poor_seed(problem, 4);
  auto index = spatial::make_index(problem.points(), problem.radius(),
                                   problem.metric());
  // Leave masks set, as an indexed solve would: polish must unmask.
  index->mask(3);
  index->mask(17);
  const core::Solution borrowed =
      polish(problem, seed, problem.points(), {}, nullptr, index.get());
  const core::Solution owned = polish(problem, seed, problem.points());
  expect_identical(borrowed, owned, "borrowed vs owned index");
}

TEST(Polish, PureSwapModeStillNeverHurts) {
  const core::Problem problem = random_problem(150, 41);
  const core::Solution seed = poor_seed(problem, 4);
  LsConfig config;
  config.shift_moves = false;
  LsStats stats;
  const core::Solution out =
      polish(problem, seed, problem.points(), config, &stats);
  EXPECT_GE(out.total_reward, seed.total_reward);
  EXPECT_EQ(stats.shift_moves, 0u);
}

TEST(Polish, TabuModeDeterministicAndMonotone) {
  const core::Problem problem = random_problem(170, 53);
  const core::Solution seed = poor_seed(problem, 5);
  LsConfig config;
  config.tabu_tenure = 4;
  config.seed = 99;
  const core::Solution a = polish(problem, seed, problem.points(), config);
  const core::Solution b = polish(problem, seed, problem.points(), config);
  expect_identical(a, b, "tabu same seed");
  EXPECT_GE(a.total_reward, seed.total_reward);
  // A different tie-break stream may walk a different path but must obey
  // the same monotone contract.
  config.seed = 100;
  const core::Solution c = polish(problem, seed, problem.points(), config);
  EXPECT_GE(c.total_reward, seed.total_reward);
}

TEST(Polish, FaultAbortReturnsSeedVerbatim) {
  const core::Problem problem = random_problem(140, 61);
  const core::Solution seed = poor_seed(problem, 4);
  LsConfig config;
  std::uint64_t consults = 0;
  config.fault_hook = [&](std::string_view site) {
    ++consults;
    return site == kFaultLsEvalThrow;
  };
  LsStats stats;
  const core::Solution out =
      polish(problem, seed, problem.points(), config, &stats);
  EXPECT_TRUE(stats.aborted);
  EXPECT_FALSE(stats.improved);
  EXPECT_GT(consults, 0u);
  expect_identical(out, seed, "aborted polish");
  EXPECT_EQ(out.solver_name, seed.solver_name);
}

TEST(Polish, ValidatesArguments) {
  const core::Problem problem = random_problem(30, 71);
  const core::Solution seed = poor_seed(problem, 2);
  EXPECT_THROW((void)polish(problem, seed, geo::PointSet(2)),
               InvalidArgument);
  EXPECT_THROW((void)polish(problem, seed,
                            geo::PointSet::from_rows({{0.0, 0.0, 0.0}})),
               InvalidArgument);
}

TEST(LocalSearchSolver, PolishesItsBaseAndReportsStats) {
  const core::Problem problem = random_problem(240, 83);
  const auto base = std::make_shared<core::LazyGreedySolver>();
  const LocalSearchSolver solver(base);
  EXPECT_EQ(solver.name(), "ls(greedy2-lazy)");
  const core::Solution lazy = base->solve(problem, 6);
  const core::Solution polished = solver.solve(problem, 6);
  EXPECT_GE(polished.total_reward, lazy.total_reward);
  EXPECT_EQ(polished.solver_name, "ls(greedy2-lazy)");
  EXPECT_GT(solver.last_stats().evals, 0u);
}

TEST(Registry, LsNamesResolveAndDelegate) {
  const core::Problem problem = random_problem(120, 91);
  const auto names = solver_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "ls"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "ls-tabu"), names.end());

  const auto ls_solver = make_solver("ls", problem);
  const auto tabu_solver = make_solver("ls-tabu", problem);
  const auto lazy = make_solver("greedy2-lazy", problem);
  const double lazy_value = lazy->solve(problem, 4).total_reward;
  EXPECT_GE(ls_solver->solve(problem, 4).total_reward, lazy_value);
  EXPECT_GE(tabu_solver->solve(problem, 4).total_reward, lazy_value);
  EXPECT_THROW((void)make_solver("no-such-solver", problem),
               InvalidArgument);
}

}  // namespace
}  // namespace mmph::core
