// Tests for name-based solver construction.

#include <gtest/gtest.h>

#include "mmph/core/registry.hpp"
#include "mmph/random/workload.hpp"
#include "mmph/support/error.hpp"

namespace mmph::core {
namespace {

Problem small_problem() {
  rnd::WorkloadSpec spec;
  spec.n = 10;
  rnd::Rng rng(61);
  return Problem::from_workload(rnd::generate_workload(spec, rng), 1.0,
                                geo::l2_metric());
}

TEST(Registry, ListsAllNames) {
  const auto names = solver_names();
  EXPECT_EQ(names.size(), 13u);
}

TEST(Registry, EveryListedNameConstructsAndSolves) {
  const Problem p = small_problem();
  for (const std::string& name : solver_names()) {
    const auto solver = make_solver(name, p);
    ASSERT_NE(solver, nullptr) << name;
    const Solution s = solver->solve(p, 2);
    if (name == "sieve") {
      // Sieve-streaming may answer with fewer than k centers.
      EXPECT_LE(s.centers.size(), 2u) << name;
      EXPECT_GE(s.centers.size(), 1u) << name;
    } else {
      EXPECT_EQ(s.centers.size(), 2u) << name;
    }
    EXPECT_GT(s.total_reward, 0.0) << name;
  }
}

TEST(Registry, NamesRoundTrip) {
  const Problem p = small_problem();
  for (const std::string& name : solver_names()) {
    if (name == "exhaustive-points") continue;  // reports as "exhaustive"
    EXPECT_EQ(make_solver(name, p)->name(), name);
  }
}

TEST(Registry, UnknownNameThrows) {
  const Problem p = small_problem();
  EXPECT_THROW((void)make_solver("greedy9", p), InvalidArgument);
  EXPECT_THROW((void)make_solver("", p), InvalidArgument);
}

TEST(Registry, GridPitchReachesRoundBased) {
  const Problem p = small_problem();
  SolverConfig coarse;
  coarse.grid_pitch = 2.0;
  SolverConfig fine;
  fine.grid_pitch = 0.25;
  const double g_coarse = make_solver("greedy1", p, coarse)->solve(p, 1).total_reward;
  const double g_fine = make_solver("greedy1", p, fine)->solve(p, 1).total_reward;
  EXPECT_GE(g_fine + 1e-9, g_coarse);
}

TEST(Registry, LazyMatchesEager) {
  const Problem p = small_problem();
  const double eager = make_solver("greedy2", p)->solve(p, 3).total_reward;
  const double lazy = make_solver("greedy2-lazy", p)->solve(p, 3).total_reward;
  EXPECT_NEAR(eager, lazy, 1e-9);
}

}  // namespace
}  // namespace mmph::core
