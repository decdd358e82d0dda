#pragma once

/// \file round_polish.hpp
/// \brief Continuous polish for the round-based oracle (Algorithm 1).
///
/// The paper's Algorithm 1 assumes each round's center is chosen optimally
/// over all of R^m — an NP-hard subproblem our RoundBasedSolver
/// approximates with a finite grid. This solver closes more of the gap:
/// after the grid pick, it runs deterministic pattern search (compass /
/// coordinate descent with halving steps) on the smooth-enough coverage
/// reward around the best grid candidate. The result is a strictly better
/// round oracle at the cost of O(dim · iterations) extra reward
/// evaluations per round, still fully deterministic.

#include "mmph/core/candidate_set.hpp"
#include "mmph/core/solver.hpp"

namespace mmph::core {

class PolishedRoundSolver final : public RoundSolverBase {
 public:
  /// \p candidates seeds each round's search (best candidate wins, ties
  /// toward the lowest index). \p initial_step is the pattern search's
  /// starting step (a good default is the grid pitch); \p min_step the
  /// termination threshold.
  PolishedRoundSolver(geo::PointSet candidates, double initial_step,
                      double min_step = 1e-4);

  /// Convenience: grid(pitch) ∪ points seed, pattern step = pitch.
  static PolishedRoundSolver over_grid(const Problem& problem, double pitch);

  [[nodiscard]] std::string name() const override { return "greedy1+polish"; }

 protected:
  void select_center(const Problem& problem, const kernels::ActiveSet& active,
                     std::span<double> out) const override;

 private:
  geo::PointSet candidates_;
  double initial_step_;
  double min_step_;
};

}  // namespace mmph::core
