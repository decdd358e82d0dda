// Metamorphic properties of the production solvers (greedy2, lazy,
// sharded, ls): transformations of the instance with a known effect on
// the answer.
//
//   - user permutation: reordering the points (with their weights) must
//     not change solution quality (1e-9 — summation order legitimately
//     reshuffles float accumulation);
//   - duplicate points at half weight: splitting every user into two
//     co-located half-weight users leaves every center set's objective
//     exactly unchanged (w/2 is exact, rounding commutes with *0.5), so
//     solution quality must match to accumulation noise;
//   - power-of-2 uniform scaling: doubling every coordinate and the
//     radius leaves every d/r ratio bit-identical (IEEE scaling and sqrt
//     are exact under powers of two), so the solve must be *bitwise*
//     identical — same total, same centers (scaled).

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "mmph/core/greedy_local.hpp"
#include "mmph/core/lazy_greedy.hpp"
#include "mmph/core/local_search.hpp"
#include "mmph/core/objective.hpp"
#include "mmph/parallel/thread_pool.hpp"
#include "mmph/random/workload.hpp"
#include "mmph/serve/sharded_solver.hpp"

namespace mmph::core {
namespace {

Problem make_problem(std::size_t n, std::uint64_t seed, std::size_t dim,
                     geo::Metric metric) {
  rnd::WorkloadSpec spec;
  spec.n = n;
  spec.dim = dim;
  spec.weights = rnd::WeightScheme::kUniformInt;
  rnd::Rng rng(seed);
  return Problem::from_workload(rnd::generate_workload(spec, rng), 1.0,
                                metric);
}

/// The four production solvers under test, value-only interface.
struct SolverSet {
  par::ThreadPool pool{2};
  serve::ShardedSolver sharded{pool, {}};
  GreedyLocalSolver greedy2;
  LazyGreedySolver lazy;

  [[nodiscard]] std::vector<std::pair<std::string, Solution>> solve_all(
      const Problem& problem, std::size_t k) const {
    std::vector<std::pair<std::string, Solution>> out;
    out.emplace_back("greedy2", greedy2.solve(problem, k));
    out.emplace_back("lazy", lazy.solve(problem, k));
    out.emplace_back("sharded", sharded.solve(problem, k));
    const LocalSearchSolver ls_solver(
        std::make_shared<LazyGreedySolver>());
    out.emplace_back("ls", ls_solver.solve(problem, k));
    return out;
  }
};

/// Deterministic permutation of [0, n).
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  rnd::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

TEST(Metamorphic, UserPermutationPreservesSolutionQuality) {
  const SolverSet solvers;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Problem problem = make_problem(80, seed, 2 + seed % 2,
                                         seed % 2 == 0 ? geo::l2_metric()
                                                       : geo::l1_metric());
    const auto perm = permutation(problem.size(), seed * 1000 + 1);
    geo::PointSet shuffled(problem.dim());
    std::vector<double> weights;
    for (const std::size_t i : perm) {
      shuffled.push_back(problem.points()[i]);
      weights.push_back(problem.weights()[i]);
    }
    const Problem permuted(std::move(shuffled), std::move(weights),
                           problem.radius(), problem.metric());

    for (const std::size_t k : {std::size_t{2}, std::size_t{5}}) {
      const auto base = solvers.solve_all(problem, k);
      const auto perm_solutions = solvers.solve_all(permuted, k);
      for (std::size_t s = 0; s < base.size(); ++s) {
        const std::string context = "seed=" + std::to_string(seed) + " k=" +
                                    std::to_string(k) + " " + base[s].first;
        const double tolerance =
            1e-9 * std::max(1.0, base[s].second.total_reward);
        EXPECT_NEAR(base[s].second.total_reward,
                    perm_solutions[s].second.total_reward, tolerance)
            << context;
      }
    }
  }
}

TEST(Metamorphic, DuplicatePointsAtHalfWeightPreserveSolutionQuality) {
  const SolverSet solvers;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Problem problem = make_problem(60, seed, 2, geo::l2_metric());
    geo::PointSet doubled(problem.dim());
    std::vector<double> weights;
    for (std::size_t i = 0; i < problem.size(); ++i) {
      doubled.push_back(problem.points()[i]);
      weights.push_back(problem.weights()[i] * 0.5);
      doubled.push_back(problem.points()[i]);
      weights.push_back(problem.weights()[i] * 0.5);
    }
    const Problem split(std::move(doubled), std::move(weights),
                        problem.radius(), problem.metric());

    // The transformation fixes every center set's value exactly...
    const auto probe = solvers.solve_all(problem, 4);
    for (const auto& [name, solution] : probe) {
      EXPECT_NEAR(objective_value(problem, solution.centers),
                  objective_value(split, solution.centers),
                  1e-9 * std::max(1.0, solution.total_reward))
          << "seed=" << seed << " " << name << " (fixed center set)";
    }
    // ...so each solver's achieved quality must be preserved too (the
    // duplicated copy of a chosen center is an exact zero-gain candidate,
    // never a distraction).
    const auto on_split = solvers.solve_all(split, 4);
    for (std::size_t s = 0; s < probe.size(); ++s) {
      EXPECT_NEAR(probe[s].second.total_reward,
                  on_split[s].second.total_reward,
                  1e-9 * std::max(1.0, probe[s].second.total_reward))
          << "seed=" << seed << " " << probe[s].first;
    }
  }
}

TEST(Metamorphic, PowerOfTwoScalingIsBitwiseInvariant) {
  const SolverSet solvers;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const geo::Metric metric =
        seed % 2 == 0 ? geo::l2_metric() : geo::l1_metric();
    const Problem problem = make_problem(90, seed, 2, metric);
    geo::PointSet scaled(problem.dim());
    std::vector<double> row(problem.dim());
    for (std::size_t i = 0; i < problem.size(); ++i) {
      for (std::size_t d = 0; d < problem.dim(); ++d) {
        row[d] = problem.points()[i][d] * 4.0;
      }
      scaled.push_back(row);
    }
    const Problem big(std::move(scaled), problem.weights(),
                      problem.radius() * 4.0, problem.metric());

    for (const std::size_t k : {std::size_t{3}, std::size_t{6}}) {
      const auto base = solvers.solve_all(problem, k);
      const auto big_solutions = solvers.solve_all(big, k);
      for (std::size_t s = 0; s < base.size(); ++s) {
        const std::string context = "seed=" + std::to_string(seed) + " k=" +
                                    std::to_string(k) + " " + base[s].first;
        const Solution& a = base[s].second;
        const Solution& b = big_solutions[s].second;
        EXPECT_EQ(a.total_reward, b.total_reward) << context;  // bitwise
        ASSERT_EQ(a.centers.size(), b.centers.size()) << context;
        for (std::size_t c = 0; c < a.centers.size(); ++c) {
          for (std::size_t d = 0; d < a.centers.dim(); ++d) {
            EXPECT_EQ(a.centers[c][d] * 4.0, b.centers[c][d])
                << context << " center " << c << " coord " << d;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace mmph::core
