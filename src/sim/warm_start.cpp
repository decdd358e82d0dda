#include "mmph/sim/warm_start.hpp"

#include <utility>

#include "mmph/core/candidate_set.hpp"
#include "mmph/core/swap_evaluator.hpp"
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

WarmStartPlanner::WarmStartPlanner(SolverFactory cold, std::size_t max_sweeps,
                                   CandidateProvider candidates)
    : cold_(std::move(cold)),
      max_sweeps_(max_sweeps),
      candidates_(std::move(candidates)) {
  MMPH_REQUIRE(static_cast<bool>(cold_),
               "WarmStartPlanner needs a cold solver factory");
  MMPH_REQUIRE(max_sweeps_ >= 1, "WarmStartPlanner needs max_sweeps >= 1");
}

core::Solution WarmStartPlanner::plan(const core::Problem& problem,
                                      std::size_t k,
                                      spatial::SpatialIndex* index) {
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

  // 1-swap refinement of the previous centers over the current points,
  // via the ball-local evaluator. A custom provider can shrink the swap
  // pool from "every point" to a curated few.
  geo::PointSet candidates =
      candidates_ ? candidates_(problem) : core::candidates_from_points(problem);
  if (candidates.empty() || candidates.dim() != problem.dim()) {
    candidates = core::candidates_from_points(problem);
  }
  core::SwapEvaluator evaluator(problem, *previous_, index);
  for (std::size_t sweep = 0; sweep < max_sweeps_; ++sweep) {
    bool improved = false;
    for (std::size_t j = 0; j < evaluator.centers().size(); ++j) {
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        if (evaluator.delta_for_swap(j, candidates[c]) > core::kMinSwapGain) {
          evaluator.commit_swap(j, candidates[c]);
          improved = true;
        }
      }
    }
    if (!improved) break;
  }

  core::Solution sol = evaluator.account();
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
