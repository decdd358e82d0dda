#pragma once

/// \file greedy_complex.hpp
/// \brief Algorithm 4 — the complex local greedy algorithm ("greedy 4").
///
/// The only algorithm whose centers may lie anywhere in R^m. Each round,
/// every input point seeds a walk that grows an accumulated point set D
/// (initially the seed alone) by up to n-1 "new-center" steps (paper §V-B):
///
///   1. Start with the disk of radius r centered on the seed.
///   2. Take the heaviest remaining point j by the reward the current disk
///      would give it (the paper's "max w_j z_j"), among points not yet
///      in D.
///   3. If no remaining point earns anything — the heaviest j "is outside
///      D" — stop.
///   4. Otherwise add j to D and recenter the disk at the center of the
///      smallest ball covering D.
///   5. Keep the move only if the coverage reward improved; else stop.
///
/// The best final disk across all seeds is the round's center (ties toward
/// the lowest seed index). Complexity O(k n^3) for the 2-norm in 2-D and
/// O(k m n^3) for the 1-norm in m-D (paper Theorem 4). The smallest
/// enclosing ball is Welzl's algorithm for the 2-norm, the bounding-box
/// midpoint for the infinity-norm, and the paper's per-dimension projection
/// rule for the 1-norm (an exact 2-D variant is available, see
/// geo::L1CenterRule).

#include "mmph/core/solver.hpp"
#include "mmph/geometry/enclosing.hpp"

namespace mmph::core {

class GreedyComplexSolver final : public RoundSolverBase {
 public:
  explicit GreedyComplexSolver(
      geo::L1CenterRule l1_rule = geo::L1CenterRule::kPaperProjection)
      : l1_rule_(l1_rule) {}

  [[nodiscard]] std::string name() const override { return "greedy4"; }

 protected:
  void select_center(const Problem& problem, std::span<const double> y,
                     std::span<double> out) const override;

  /// Both inner steps of a walk — the heaviest point the disk rewards and
  /// the coverage reward of a trial center — only involve points within r
  /// of the center, so the indexed path takes each step's ball from the
  /// spatial index instead of scanning all n points. Candidates are still
  /// visited in ascending index order with the same strict-> tie-breaks,
  /// so the indexed path picks identical centers.
  [[nodiscard]] bool supports_indexed_scan() const override { return true; }
  bool indexed_select(const Problem& problem,
                      const kernels::IndexedActiveSet& active,
                      std::span<double> out) const override;

 private:
  geo::L1CenterRule l1_rule_;
};

}  // namespace mmph::core
