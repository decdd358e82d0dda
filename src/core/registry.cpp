#include "mmph/core/registry.hpp"

#include "mmph/core/baselines.hpp"
#include "mmph/core/candidate_set.hpp"
#include "mmph/core/exhaustive.hpp"
#include "mmph/core/greedy_complex.hpp"
#include "mmph/core/greedy_local.hpp"
#include "mmph/core/greedy_simple.hpp"
#include "mmph/core/lazy_greedy.hpp"
#include "mmph/core/local_search.hpp"
#include "mmph/core/round_based.hpp"
#include "mmph/core/round_polish.hpp"
#include "mmph/core/sieve_streaming.hpp"
#include "mmph/core/stochastic_greedy.hpp"
#include "mmph/support/error.hpp"

namespace mmph::core {

std::vector<std::string> solver_names() {
  return {"greedy1",        "greedy2",    "greedy2-lazy",
          "greedy2-stoch",  "greedy2+ls", "greedy3",
          "greedy4",        "exhaustive", "exhaustive-points",
          "random",         "kmeans",     "sieve",
          "greedy1+polish", "ls",         "ls-tabu"};
}

std::unique_ptr<Solver> make_solver(const std::string& name,
                                    const Problem& problem,
                                    const SolverConfig& config) {
  if (name == "greedy1") {
    return std::make_unique<RoundBasedSolver>(
        RoundBasedSolver::over_grid(problem, config.grid_pitch));
  }
  if (name == "greedy1+polish") {
    return std::make_unique<PolishedRoundSolver>(
        PolishedRoundSolver::over_grid(problem, config.grid_pitch));
  }
  if (name == "greedy2") {
    return std::make_unique<GreedyLocalSolver>();
  }
  if (name == "greedy2-lazy") {
    return std::make_unique<LazyGreedySolver>();
  }
  if (name == "greedy2-stoch") {
    return std::make_unique<StochasticGreedySolver>();
  }
  if (name == "greedy2+ls") {
    // The classic neighborhood: pure swap sweeps over grid ∪ points.
    LsConfig swaps;
    swaps.max_sweeps = 16;
    swaps.shift_moves = false;
    return std::make_unique<LocalSearchSolver>(
        std::make_shared<GreedyLocalSolver>(),
        candidates_union(candidates_grid_over(problem, config.grid_pitch),
                         candidates_from_points(problem)),
        swaps);
  }
  if (name == "ls" || name == "ls-tabu") {
    LsConfig polish;
    if (name == "ls-tabu") polish.tabu_tenure = 4;
    return std::make_unique<LocalSearchSolver>(
        std::make_shared<LazyGreedySolver>(), polish);
  }
  if (name == "greedy3") {
    return std::make_unique<GreedySimpleSolver>();
  }
  if (name == "greedy4") {
    return std::make_unique<GreedyComplexSolver>(
        config.l1_exact_center ? geo::L1CenterRule::kExactIfPossible
                               : geo::L1CenterRule::kPaperProjection);
  }
  if (name == "sieve") {
    return std::make_unique<SieveStreamingSolver>();
  }
  if (name == "random") {
    return std::make_unique<RandomSolver>();
  }
  if (name == "kmeans") {
    return std::make_unique<KMeansSolver>();
  }
  if (name == "exhaustive") {
    return std::make_unique<ExhaustiveSolver>(
        ExhaustiveSolver::over_grid_and_points(problem, config.grid_pitch));
  }
  if (name == "exhaustive-points") {
    return std::make_unique<ExhaustiveSolver>(
        ExhaustiveSolver::over_points(problem));
  }
  throw InvalidArgument("unknown solver name: '" + name + "'");
}

}  // namespace mmph::core
