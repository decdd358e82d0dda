#pragma once

/// \file registry.hpp
/// \brief Name-based solver construction for CLIs, examples and the
/// simulator's pluggable scheduler.

#include <memory>
#include <string>
#include <vector>

#include "mmph/core/problem.hpp"
#include "mmph/core/solver.hpp"

namespace mmph::core {

/// Tunables for solvers that need more than the problem itself.
struct SolverConfig {
  /// Grid pitch for "greedy1" (round-based oracle) and "exhaustive".
  double grid_pitch = 0.5;
  /// Use the exact 2-D L1 enclosing-ball for "greedy4" instead of the
  /// paper's projection rule.
  bool l1_exact_center = false;
};

/// Every name make_solver accepts: the paper's algorithms ("greedy1",
/// "greedy2", "greedy3", "greedy4"), their variants ("greedy1+polish",
/// "greedy2-lazy", "greedy2-stoch"), the exact baseline ("exhaustive",
/// "exhaustive-points"), the reference baselines ("random", "kmeans",
/// "sieve") and the local-search tier (core::LocalSearchSolver):
///   "ls"          lazy greedy seed polished over the instance points
///   "ls-tabu"     same seed, tabu best-improvement move selection
///   "greedy2+ls"  greedy2 seed, pure swap sweeps over grid ∪ points
/// All three report as "ls(<base>)". Spatial indexing is not a name: every
/// greedy evaluates through kernels::ActiveSet, which follows
/// kernels::index_mode() (--index).
[[nodiscard]] std::vector<std::string> solver_names();

/// Builds the named solver for \p problem.
/// \throws InvalidArgument for unknown names.
[[nodiscard]] std::unique_ptr<Solver> make_solver(
    const std::string& name, const Problem& problem,
    const SolverConfig& config = {});

}  // namespace mmph::core
