#pragma once

/// \file greedy_simple.hpp
/// \brief Algorithm 3 — the simple local greedy algorithm ("greedy 3").
///
/// Each round picks the point with the largest *single-point* residual
/// reward w_i * y_i as the center (ties toward the lowest index), then
/// claims the full coverage reward of that center. Complexity O(k n)
/// (paper Theorem 3); the Theorem-2 ratio 1 - (1 - 1/n)^k still holds.

#include "mmph/core/solver.hpp"

namespace mmph::core {

class GreedySimpleSolver final : public RoundSolverBase {
 public:
  [[nodiscard]] std::string name() const override { return "greedy3"; }

 protected:
  void select_center(const Problem& problem, const kernels::ActiveSet& active,
                     std::span<double> out) const override;
};

}  // namespace mmph::core
