#pragma once

/// \file local_search.hpp
/// \brief Shift/swap local search with spatial-index delta evaluation.
///
/// The polish tier of the solver stack: take any seed solution (greedy,
/// lazy greedy, sharded merge, the previous epoch's placement) and improve
/// it by 1-swap moves until a local optimum. Two move kinds per sweep:
///
///   shift  — replace center c_j by a candidate inside c_j's coverage ball
///            (a radius query on a candidate index: the cheap, usually
///            sufficient repair move);
///   swap   — replace c_j by any candidate (the full neighborhood,
///            scanned when no shift improves).
///
/// Acceptance is strict improvement (delta > min_gain) in a deterministic
/// first-improvement order (centers ascending, candidates ascending), so
/// the same seed solution always polishes to the same centers. An optional
/// tabu list switches move selection to best-improvement among non-tabu
/// candidates, with exact ties broken by a seeded PCG64 stream — still
/// monotone (worsening moves are never taken), still deterministic for a
/// fixed seed.
///
/// The cost model is the point: a swap's objective delta only involves
/// points inside ball(old center) ∪ ball(new candidate) — everywhere else
/// u_i is exactly 0 for both — so core::SwapEvaluator answers it with one
/// spatial radius query and an O(|ball|) merge instead of the O(n·k)
/// rescan of a from-scratch objective_value. Deltas accumulate term by
/// term in ascending point-id order, so two runs of the same polish are
/// bit-identical.
///
/// Guarantee the test oracles lean on: polish() re-derives the final
/// per-round accounting exactly (SwapEvaluator::account) and returns the
/// seed verbatim whenever the polished total is not >= the seed's total,
/// so `f(ls) >= f(seed)` holds machine-checkably, never just up to drift.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mmph/core/problem.hpp"
#include "mmph/core/solver.hpp"
#include "mmph/core/swap_evaluator.hpp"
#include "mmph/geometry/point_set.hpp"
#include "mmph/spatial/spatial_index.hpp"

namespace mmph::ls {

/// Test-only fault seam, structurally identical to serve::FaultHook (ls
/// sits below serve, so the alias is re-declared rather than included).
using FaultHook = std::function<bool(std::string_view site)>;

/// A delta evaluation throws mid-polish -> polish() returns the seed
/// solution verbatim and marks LsStats::aborted. Registered here (not in
/// serve/fault.hpp) because the ls layer itself consults the hook; the
/// serve catalog cross-references this name.
inline constexpr std::string_view kFaultLsEvalThrow = "ls.eval_throw";

/// Tunables of one polish run.
struct LsConfig {
  /// Full improvement passes before giving up on convergence.
  std::size_t max_sweeps = 8;
  /// Strict-improvement threshold; rejects float-noise "improvements".
  double min_gain = core::kMinSwapGain;
  /// 0 = plain first-improvement. > 0 = best-improvement with a tabu list:
  /// a candidate swapped out of the solution may not re-enter for this
  /// many committed moves (diversifies the improvement path; worsening
  /// moves are still never accepted).
  std::size_t tabu_tenure = 0;
  /// PCG64 stream seed for tabu-mode tie-breaking (exact delta ties).
  std::uint64_t seed = 2011;
  /// Enable the shift pass (radius-local candidates first). Off = pure
  /// swap sweeps, the classic neighborhood.
  bool shift_moves = true;
  /// Test-only fault seam; empty in production (one cheap bool check).
  FaultHook fault_hook{};
};

/// Counters of one polish run (feeds the mmph_ls_* obs counters).
struct LsStats {
  std::uint64_t evals = 0;        ///< delta evaluations performed
  std::uint64_t moves = 0;        ///< committed moves (shift + swap)
  std::uint64_t shift_moves = 0;  ///< committed moves found by the shift pass
  std::uint64_t swap_moves = 0;   ///< committed moves found by the swap pass
  std::size_t sweeps = 0;         ///< improvement passes executed
  bool improved = false;   ///< polished total strictly beat the seed total
  bool converged = false;  ///< local optimum reached before max_sweeps
  bool aborted = false;    ///< an eval threw -> seed returned verbatim
};

/// Polishes \p seed by shift/swap local search over \p candidates (the
/// center domain; must be nonempty and match the problem's dimension).
/// Returns a solution with exact per-round accounting whose total_reward
/// is >= seed.total_reward — the seed itself when no improving move
/// survives, or when an evaluation throws (LsStats::aborted). \p stats,
/// when non-null, receives the run's counters. \p population_index is the
/// optional lent index of core::SwapEvaluator.
[[nodiscard]] core::Solution polish(
    const core::Problem& problem, const core::Solution& seed,
    const geo::PointSet& candidates, const LsConfig& config = {},
    LsStats* stats = nullptr,
    spatial::SpatialIndex* population_index = nullptr);

/// A core::Solver that runs \p base and polishes its output. With an empty
/// \p candidates set the center domain defaults to the instance's own
/// points (the Algorithm 2/3 domain), resolved per solve.
class LocalSearchSolver final : public core::Solver {
 public:
  LocalSearchSolver(std::shared_ptr<const core::Solver> base,
                    geo::PointSet candidates, LsConfig config = {});

  /// Convenience: candidates default to the instance points.
  explicit LocalSearchSolver(std::shared_ptr<const core::Solver> base,
                             LsConfig config = {});

  /// "ls(<base>)" — distinct from core's legacy "greedy2+ls".
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] core::Solution solve(const core::Problem& problem,
                                     std::size_t k) const override;

  /// Counters of the last solve()'s polish phase.
  [[nodiscard]] const LsStats& last_stats() const noexcept { return stats_; }

 private:
  std::shared_ptr<const core::Solver> base_;
  geo::PointSet candidates_;
  LsConfig config_;
  mutable LsStats stats_;
};

}  // namespace mmph::ls
