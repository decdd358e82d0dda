// Tests for the RoundSolverBase shared loop, via a minimal mock solver:
// every round-based algorithm inherits these invariants, so they are
// pinned once here against a solver with fully predictable choices.

#include <gtest/gtest.h>

#include "mmph/core/kernels.hpp"
#include "mmph/core/reward.hpp"
#include "mmph/core/solver.hpp"
#include "mmph/geometry/vec.hpp"
#include "mmph/random/workload.hpp"
#include "mmph/support/error.hpp"

namespace mmph::core {
namespace {

/// Always selects the given fixed center.
class FixedCenterSolver final : public RoundSolverBase {
 public:
  explicit FixedCenterSolver(std::vector<double> center)
      : center_(std::move(center)) {}

  [[nodiscard]] std::string name() const override { return "fixed"; }

  mutable int select_calls = 0;

 protected:
  void select_center(const Problem&, const kernels::ActiveSet&,
                     std::span<double> out) const override {
    ++select_calls;
    geo::assign(out, center_);
  }

 private:
  std::vector<double> center_;
};

/// Throws on the configured round (tests exception propagation).
class ThrowingSolver final : public RoundSolverBase {
 public:
  explicit ThrowingSolver(int throw_on_round) : round_(throw_on_round) {}

  [[nodiscard]] std::string name() const override { return "throwing"; }

 protected:
  void select_center(const Problem& problem, const kernels::ActiveSet&,
                     std::span<double> out) const override {
    if (++calls_ == round_) throw StateError("synthetic failure");
    geo::assign(out, problem.point(0));
  }

 private:
  int round_;
  mutable int calls_ = 0;
};

Problem line_problem() {
  return Problem(geo::PointSet::from_rows({{0.0, 0.0}, {1.0, 0.0}}),
                 {1.0, 2.0}, 2.0, geo::l2_metric());
}

TEST(RoundSolverBase, CallsSelectOncePerRound) {
  const FixedCenterSolver solver({0.0, 0.0});
  (void)solver.solve(line_problem(), 5);
  EXPECT_EQ(solver.select_calls, 5);
}

TEST(RoundSolverBase, NamePropagatesToSolution) {
  const FixedCenterSolver solver({0.0, 0.0});
  EXPECT_EQ(solver.solve(line_problem(), 1).solver_name, "fixed");
}

TEST(RoundSolverBase, AccountingShapesMatchK) {
  const FixedCenterSolver solver({0.5, 0.0});
  const Solution s = solver.solve(line_problem(), 3);
  EXPECT_EQ(s.centers.size(), 3u);
  EXPECT_EQ(s.round_rewards.size(), 3u);
  EXPECT_EQ(s.residual.size(), 2u);
}

TEST(RoundSolverBase, RepeatedCenterExhaustsResiduals) {
  // Center at (0,0), r=2: u = (1, 0.5). Round rewards: 1*1 + 2*0.5 = 2;
  // then point 1's remaining 0.5 -> 1.0; then 0.
  const FixedCenterSolver solver({0.0, 0.0});
  const Solution s = solver.solve(line_problem(), 3);
  EXPECT_DOUBLE_EQ(s.round_rewards[0], 2.0);
  EXPECT_DOUBLE_EQ(s.round_rewards[1], 1.0);
  EXPECT_DOUBLE_EQ(s.round_rewards[2], 0.0);
  EXPECT_DOUBLE_EQ(s.total_reward, 3.0);
}

TEST(RoundSolverBase, ResidualsStayInUnitInterval) {
  rnd::WorkloadSpec spec;
  spec.n = 20;
  rnd::Rng rng(1);
  const Problem p = Problem::from_workload(rnd::generate_workload(spec, rng),
                                           1.5, geo::l2_metric());
  const FixedCenterSolver solver({2.0, 2.0});
  const Solution s = solver.solve(p, 10);
  for (double y : s.residual) {
    EXPECT_GE(y, -1e-12);
    EXPECT_LE(y, 1.0 + 1e-12);
  }
}

TEST(RoundSolverBase, ZeroKRejected) {
  const FixedCenterSolver solver({0.0, 0.0});
  EXPECT_THROW((void)solver.solve(line_problem(), 0), InvalidArgument);
}

TEST(RoundSolverBase, SelectExceptionPropagates) {
  const ThrowingSolver solver(2);
  EXPECT_THROW((void)solver.solve(line_problem(), 3), StateError);
}

TEST(RoundSolverBase, TotalEqualsRoundSum) {
  const FixedCenterSolver solver({1.0, 0.0});
  const Solution s = solver.solve(line_problem(), 4);
  double sum = 0.0;
  for (double g : s.round_rewards) sum += g;
  EXPECT_DOUBLE_EQ(sum, s.total_reward);
}

}  // namespace
}  // namespace mmph::core
