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
/// "greedy2-lazy", "greedy2-stoch", "greedy2+ls"), the exact baseline
/// ("exhaustive", "exhaustive-points") and the reference baselines
/// ("random", "kmeans", "sieve"). Spatial indexing is not a name: every
/// solver that supports it follows kernels::index_mode() (--index).
[[nodiscard]] std::vector<std::string> solver_names();

/// Builds the named solver for \p problem.
/// \throws InvalidArgument for unknown names.
[[nodiscard]] std::unique_ptr<Solver> make_solver(
    const std::string& name, const Problem& problem,
    const SolverConfig& config = {});

}  // namespace mmph::core
