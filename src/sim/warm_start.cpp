#include "mmph/sim/warm_start.hpp"

#include <utility>

#include "mmph/core/local_search.hpp"
#include "mmph/support/assert.hpp"

namespace mmph::sim {
namespace {

/// Adapter exposing one plan() call as a core::Solver so the planner can
/// slot into the simulator's SolverFactory without the simulator knowing
/// about warm starts.
class PlannerSolver final : public core::Solver {
 public:
  explicit PlannerSolver(WarmStartPlanner* planner) : planner_(planner) {}

  [[nodiscard]] std::string name() const override { return "warm-start"; }

  [[nodiscard]] core::Solution solve(const core::Problem& problem,
                                     std::size_t k) const override {
    return planner_->plan(problem, k);
  }

 private:
  WarmStartPlanner* planner_;
};

}  // namespace

WarmStartPlanner::WarmStartPlanner(SolverFactory cold, std::size_t max_sweeps)
    : cold_(std::move(cold)), max_sweeps_(max_sweeps) {
  MMPH_REQUIRE(static_cast<bool>(cold_),
               "WarmStartPlanner needs a cold solver factory");
  MMPH_REQUIRE(max_sweeps_ >= 1, "WarmStartPlanner needs max_sweeps >= 1");
}

core::Solution WarmStartPlanner::plan(const core::Problem& problem,
                                      std::size_t k) {
  const bool history_usable = previous_.has_value() &&
                              previous_->dim() == problem.dim() &&
                              previous_->size() == k;
  if (!history_usable) {
    ++cold_solves_;
    core::Solution sol = cold_(problem)->solve(problem, k);
    previous_ = sol.centers;
    return sol;
  }
  ++warm_solves_;

  // Pure swap sweeps from the previous centers over the current points.
  core::LsConfig refine;
  refine.max_sweeps = max_sweeps_;
  refine.shift_moves = false;
  core::Solution sol =
      core::polish(problem, *previous_, problem.points(), refine);
  sol.solver_name = "warm-start";
  previous_ = sol.centers;
  return sol;
}

SolverFactory WarmStartPlanner::factory() {
  return [this](const core::Problem&) {
    return std::make_unique<PlannerSolver>(this);
  };
}

}  // namespace mmph::sim
