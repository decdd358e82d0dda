// Cross-solver determinism: every registered solver must produce
// bit-identical center sequences across repeated solves of the same
// Problem object, and identical *values* regardless of thread schedule
// (the exhaustive solver parallelizes internally).

#include <gtest/gtest.h>

#include <string>

#include "mmph/core/exhaustive.hpp"
#include "mmph/core/registry.hpp"
#include "mmph/random/workload.hpp"

namespace mmph::core {
namespace {

Problem instance(std::uint64_t seed) {
  rnd::WorkloadSpec spec;
  spec.n = 20;
  rnd::Rng rng(seed);
  return Problem::from_workload(rnd::generate_workload(spec, rng), 1.0,
                                geo::l2_metric());
}

class SolverDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(SolverDeterminism, RepeatedSolvesIdentical) {
  const std::string name = GetParam();
  const Problem p = instance(3);
  const auto solver = make_solver(name, p);
  const Solution a = solver->solve(p, 3);
  const Solution b = solver->solve(p, 3);
  EXPECT_EQ(a.total_reward, b.total_reward) << name;
  ASSERT_EQ(a.centers.size(), b.centers.size()) << name;
  for (std::size_t j = 0; j < a.centers.size(); ++j) {
    for (std::size_t d = 0; d < a.centers.dim(); ++d) {
      EXPECT_EQ(a.centers[j][d], b.centers[j][d])
          << name << " round " << j;
    }
  }
}

TEST_P(SolverDeterminism, FreshSolverObjectIdentical) {
  const std::string name = GetParam();
  const Problem p = instance(4);
  const double a = make_solver(name, p)->solve(p, 3).total_reward;
  const double b = make_solver(name, p)->solve(p, 3).total_reward;
  EXPECT_EQ(a, b) << name;
}

INSTANTIATE_TEST_SUITE_P(
    AllSolvers, SolverDeterminism,
    ::testing::Values("greedy1", "greedy2", "greedy2-lazy",
                      "greedy2-stoch", "greedy2+ls", "greedy3", "greedy4",
                      "exhaustive", "exhaustive-points", "random", "kmeans",
                      "sieve", "greedy1+polish"),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      for (char& ch : name) {
        if (ch == '-' || ch == '+') ch = '_';
      }
      return name;
    });

TEST(SolverDeterminism, ExhaustiveValueStableAcrossParallelism) {
  const Problem p = instance(5);
  ExhaustiveOptions par_opts;   // parallel
  ExhaustiveOptions ser_opts;
  ser_opts.parallel = false;
  for (int repeat = 0; repeat < 5; ++repeat) {
    const double a = ExhaustiveSolver::over_grid_and_points(p, 0.5, par_opts)
                         .solve(p, 2)
                         .total_reward;
    const double b = ExhaustiveSolver::over_grid_and_points(p, 0.5, ser_opts)
                         .solve(p, 2)
                         .total_reward;
    EXPECT_EQ(a, b) << "repeat " << repeat;
  }
}

}  // namespace
}  // namespace mmph::core
