#pragma once

/// \file solver.hpp
/// \brief Abstract solver interface and the shared round-loop helper.
///
/// Every algorithm in the paper is round-based: k rounds, each choosing one
/// center and decreasing the residual vector y. Concrete solvers implement
/// select_center(); the base class owns the loop and the bookkeeping, so
/// per-round accounting is identical across algorithms.

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "mmph/core/problem.hpp"
#include "mmph/core/solution.hpp"

namespace mmph::core {

namespace kernels {
class ActiveSet;
}

/// Interface implemented by all content-placement algorithms.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Stable identifier used in tables ("greedy2", "greedy3", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Chooses k centers for \p problem.
  /// \throws InvalidArgument when k == 0.
  [[nodiscard]] virtual Solution solve(const Problem& problem,
                                       std::size_t k) const = 0;
};

/// Base for the round-based algorithms (1, 2, 3, 4): runs the k-round loop,
/// delegating only the per-round center choice. Every round scores and
/// commits through one kernels::ActiveSet, which owns the residual and
/// picks the radius index or the compacted scan (kernels::should_index()).
class RoundSolverBase : public Solver {
 public:
  [[nodiscard]] Solution solve(const Problem& problem,
                               std::size_t k) const final;

 protected:
  /// Chooses the round's center, scoring candidates through \p active
  /// (its residual() is the round's y). Writes the chosen center
  /// coordinates (problem.dim() values) to \p out.
  virtual void select_center(const Problem& problem,
                             const kernels::ActiveSet& active,
                             std::span<double> out) const = 0;
};

}  // namespace mmph::core
