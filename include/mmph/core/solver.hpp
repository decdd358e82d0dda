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
class IndexedActiveSet;
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
/// delegating only the per-round center choice.
class RoundSolverBase : public Solver {
 public:
  [[nodiscard]] Solution solve(const Problem& problem,
                               std::size_t k) const final;

 protected:
  /// Chooses the round's center given the residual \p y.
  /// Writes the chosen center coordinates (problem.dim() values) to \p out.
  virtual void select_center(const Problem& problem,
                             std::span<const double> y,
                             std::span<double> out) const = 0;

  /// Solvers whose select_center only reads points within the coverage
  /// radius of the centers it scores (greedy2's candidate scan, greedy4's
  /// new-center walk) can opt into the spatial-index evaluation path by
  /// returning true here and implementing indexed_select. The base loop
  /// then builds an IndexedActiveSet (subject to kernels::index_mode())
  /// and calls indexed_select instead; selections must match select_center
  /// bit for bit (the indexed evaluator guarantees identical rewards).
  [[nodiscard]] virtual bool supports_indexed_scan() const { return false; }

  /// Indexed counterpart of select_center, evaluating candidates through
  /// \p active. Returns false to decline (e.g. an unsupported instance
  /// shape), in which case the loop falls back to select_center for the
  /// remaining rounds.
  virtual bool indexed_select(const Problem& problem,
                              const kernels::IndexedActiveSet& active,
                              std::span<double> out) const {
    (void)problem;
    (void)active;
    (void)out;
    return false;
  }
};

}  // namespace mmph::core
