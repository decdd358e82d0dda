// Verifies the umbrella header compiles standalone and exposes the API.

#include "mmph/mmph.hpp"

#include <gtest/gtest.h>

namespace mmph {
namespace {

TEST(Umbrella, EndToEndThroughSingleInclude) {
  rnd::WorkloadSpec spec;
  spec.n = 12;
  rnd::Rng rng(1);
  const core::Problem p = core::Problem::from_workload(
      rnd::generate_workload(spec, rng), 1.0, geo::l2_metric());
  const core::Solution s = core::make_solver("greedy2", p)->solve(p, 2);
  EXPECT_GT(s.total_reward, 0.0);
  EXPECT_NEAR(s.total_reward, core::objective_value(p, s.centers), 1e-9);

  // The ls tier is reachable through the umbrella too: polish the greedy
  // solution and certify it against the upper bound.
  const core::Solution polished = core::polish(p, s, p.points());
  const ls::UpperBounds bounds =
      ls::certified_upper_bounds(p, 2, s, p.points());
  EXPECT_GE(polished.total_reward, s.total_reward);
  EXPECT_LE(polished.total_reward, bounds.best() + 1e-9);
}

}  // namespace
}  // namespace mmph
