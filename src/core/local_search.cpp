#include "mmph/core/local_search.hpp"

#include "mmph/core/greedy_local.hpp"
#include "mmph/core/swap_evaluator.hpp"
#include "mmph/support/assert.hpp"

namespace mmph::core {

LocalSearchSolver::LocalSearchSolver(std::shared_ptr<const Solver> base,
                                     geo::PointSet candidates,
                                     std::size_t max_sweeps)
    : base_(std::move(base)),
      candidates_(std::move(candidates)),
      max_sweeps_(max_sweeps) {
  MMPH_REQUIRE(base_ != nullptr, "LocalSearchSolver needs a base solver");
  MMPH_REQUIRE(!candidates_.empty(),
               "LocalSearchSolver needs swap candidates");
  MMPH_REQUIRE(max_sweeps_ >= 1, "LocalSearchSolver needs max_sweeps >= 1");
}

LocalSearchSolver LocalSearchSolver::greedy2_over_grid(const Problem& problem,
                                                       double pitch) {
  return LocalSearchSolver(
      std::make_shared<GreedyLocalSolver>(),
      candidates_union(candidates_grid_over(problem, pitch),
                       candidates_from_points(problem)));
}

std::string LocalSearchSolver::name() const {
  return base_->name() + "+ls";
}

Solution LocalSearchSolver::solve(const Problem& problem,
                                  std::size_t k) const {
  MMPH_REQUIRE(candidates_.dim() == problem.dim(),
               "LocalSearchSolver: candidate dimension mismatch");
  Solution sol = base_->solve(problem, k);
  last_swaps_ = 0;

  // First-improvement sweeps over (center j, candidate c) pairs, using the
  // ball-local evaluator so each trial costs two coverage balls.
  SwapEvaluator evaluator(problem, sol.centers);
  for (std::size_t sweep = 0; sweep < max_sweeps_; ++sweep) {
    bool improved = false;
    for (std::size_t j = 0; j < evaluator.centers().size(); ++j) {
      for (std::size_t c = 0; c < candidates_.size(); ++c) {
        if (evaluator.delta_for_swap(j, candidates_[c]) > kMinSwapGain) {
          evaluator.commit_swap(j, candidates_[c]);
          improved = true;
          ++last_swaps_;
        }
      }
    }
    if (!improved) break;
  }

  // Rebuild the per-round accounting for the final center sequence.
  sol = evaluator.account();
  sol.solver_name = name();
  return sol;
}

}  // namespace mmph::core
