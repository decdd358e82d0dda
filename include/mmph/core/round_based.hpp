#pragma once

/// \file round_based.hpp
/// \brief Algorithm 1 — round-based heuristic with a candidate oracle
/// ("greedy 1" in the paper's evaluation prose).
///
/// The paper's Algorithm 1 assumes each round's continuous subproblem
/// (Eq. 10) is solved optimally; that subproblem is itself NP-hard
/// (Section IV-B). Following the evaluation, we realize the round oracle
/// by maximizing over a finite candidate set — by default a fine uniform
/// grid over the instance box unioned with the input points — which makes
/// each round optimal-up-to-grid-pitch. With the oracle exact, Theorem 1
/// gives the 1 - (1 - 1/k)^k ratio.

#include "mmph/core/candidate_set.hpp"
#include "mmph/core/solver.hpp"

namespace mmph::core {

class RoundBasedSolver final : public RoundSolverBase {
 public:
  /// Round oracle over an explicit candidate set (rows of \p candidates).
  explicit RoundBasedSolver(geo::PointSet candidates);

  /// Convenience: oracle over grid(pitch) ∪ input points of \p problem.
  static RoundBasedSolver over_grid(const Problem& problem, double pitch,
                                    double margin = 0.0);

  [[nodiscard]] std::string name() const override { return "greedy1"; }

  [[nodiscard]] const geo::PointSet& candidates() const noexcept {
    return candidates_;
  }

 protected:
  void select_center(const Problem& problem, const kernels::ActiveSet& active,
                     std::span<double> out) const override;

 private:
  geo::PointSet candidates_;
};

}  // namespace mmph::core
