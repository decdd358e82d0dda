#pragma once

/// \file greedy_local.hpp
/// \brief Algorithm 2 — the local greedy algorithm ("greedy 2").
///
/// Each round, every input point is a candidate center; the one with the
/// largest coverage reward g(c) = sum_i w_i min(u_i(c), y_i) wins. Ties
/// break toward the lowest point index (paper §V-A). Complexity O(k n^2).
/// Approximation ratio 1 - (1 - 1/n)^k (paper Theorem 2).

#include "mmph/core/solver.hpp"

namespace mmph::core {

class GreedyLocalSolver final : public RoundSolverBase {
 public:
  [[nodiscard]] std::string name() const override { return "greedy2"; }

 protected:
  void select_center(const Problem& problem, const kernels::ActiveSet& active,
                     std::span<double> out) const override;
};

}  // namespace mmph::core
