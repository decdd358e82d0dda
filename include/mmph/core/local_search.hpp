#pragma once

/// \file local_search.hpp
/// \brief The local-search engine: shift/swap polish of a seed placement,
/// and the solver that polishes any base solver's output (library
/// extension; the paper stops each local greedy after one pass).
///
/// polish() is the one swap search of the library. It takes a seed (a
/// solver's output, the previous epoch's placement, a sharded merge) and
/// improves it by 1-swap moves until a local optimum. Two move kinds per
/// sweep:
///
///   shift  — replace center c_j by a candidate inside c_j's coverage ball
///            (a radius query on a candidate index — the evaluator's own
///            grid when the candidates are the problem's points: the
///            cheap, usually sufficient repair move);
///   swap   — replace c_j by any candidate (the full neighborhood).
///
/// Acceptance is strict improvement (delta > kMinSwapGain) in a
/// deterministic first-improvement order (centers ascending, candidates
/// ascending), so the same seed always polishes to the same centers. An
/// optional tabu list switches move selection to best-improvement among
/// non-tabu candidates, with exact ties broken by a seeded PCG64 stream —
/// still monotone (worsening moves are never taken), still deterministic
/// for a fixed seed.
///
/// The cost model is the point: a swap's objective delta only involves
/// points inside ball(old center) ∪ ball(new candidate) — everywhere else
/// u_i is exactly 0 for both — so core::SwapEvaluator answers it with one
/// spatial radius query and an O(|ball|) merge instead of the O(n·k)
/// rescan of a from-scratch objective_value. Deltas accumulate term by
/// term in ascending point-id order, so two runs of the same polish are
/// bit-identical.
///
/// Most pairs need no delta at all. When the evaluator gathers balls
/// through an index, polish() caches every candidate's marginal gain g(c)
/// and every slot's removal loss L_j. A pair with d(c, c_j) > 2r has
/// disjoint balls, so delta = g(c) − L_j up to summation order; it is
/// skipped when g(c) − L_j <= floor − 4·n·DBL_EPSILON·(g + L), which
/// proves the delta cannot be taken (floor is kMinSwapGain, or the tabu
/// sweep's running best). Every other pair is evaluated exactly in the
/// usual order, so each decision, and the trajectory, is the unpruned
/// search's. A sweep then costs O(|near pairs|·|ball|) plus the O(n) far
/// tests; a commit re-sums only the gains within 2r of the old or new
/// center and the k losses. On dense boxes the evaluator scans and every
/// pair counts as near.
///
/// Building g is one ball sum per candidate, unless a core::GainCache
/// carries it from the previous polish: then only the rows near what
/// changed since are re-summed (a warm re-solve pays for its churn, not
/// for n). And no pair is tried twice at one evaluator state: in a
/// first-improvement sweep the swap pass skips the candidates the shift
/// pass (or the previous sweep) already rejected with no move committed
/// since, whose verdict would be bitwise the same.
///
/// Guarantee the test oracles lean on: polish() re-derives the final
/// per-round accounting exactly (SwapEvaluator::account) and returns the
/// seed whenever the polished total does not strictly beat the seed's, so
/// `f(ls) >= f(seed)` holds machine-checkably, never just up to drift.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "mmph/core/gain_cache.hpp"
#include "mmph/core/problem.hpp"
#include "mmph/core/solution.hpp"
#include "mmph/core/solver.hpp"
#include "mmph/geometry/point_set.hpp"
#include "mmph/spatial/spatial_index.hpp"

namespace mmph::core {

/// Test-only fault seam, structurally identical to serve::FaultHook (core
/// sits below serve, so the alias is re-declared rather than included).
using LsFaultHook = std::function<bool(std::string_view site)>;

/// A delta evaluation throws mid-polish -> polish() returns the seed and
/// marks LsStats::aborted. Registered here (not in serve/fault.hpp)
/// because the engine itself consults the hook; the serve catalog
/// cross-references this name.
inline constexpr std::string_view kFaultLsEvalThrow = "ls.eval_throw";

/// Tunables of one polish run.
struct LsConfig {
  /// Full improvement passes before giving up on convergence.
  std::size_t max_sweeps = 8;
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
  LsFaultHook fault_hook{};
};

/// Counters of one polish run (feeds the mmph_ls_* obs counters).
struct LsStats {
  std::uint64_t evals = 0;        ///< exact delta evaluations performed
  std::uint64_t far_evals = 0;    ///< of those, far pairs (disjoint balls)
  /// Pairs decided without a trial: far pairs decided by cached gains,
  /// and pairs already tried at the same evaluator state (evals + skipped
  /// is the unpruned search's evaluation count).
  std::uint64_t skipped = 0;
  /// add_gain sums: the stale rows at polish start plus the re-sums after
  /// commits (every candidate when no GainCache is carried).
  std::uint64_t gain_sums = 0;
  std::uint64_t moves = 0;        ///< committed moves (shift + swap)
  std::uint64_t shift_moves = 0;  ///< committed moves found by the shift pass
  std::uint64_t swap_moves = 0;   ///< committed moves found by the swap pass
  std::size_t sweeps = 0;         ///< improvement passes executed
  bool improved = false;   ///< polished total strictly beat the seed total
  bool converged = false;  ///< local optimum reached before max_sweeps
  bool aborted = false;    ///< an eval threw -> seed returned
};

/// Polishes \p seed by shift/swap local search over \p candidates (the
/// center domain; must be nonempty and match the problem's dimension).
/// \p seed must carry its exact accounting on \p problem. Returns a
/// solution with exact per-round accounting whose total_reward is >=
/// seed.total_reward — the seed itself when no improving move survives,
/// or when an evaluation throws (LsStats::aborted). \p stats, when
/// non-null, receives the run's counters. \p population_index is the
/// optional lent index of core::SwapEvaluator.
///
/// \p gains, when non-null, carries g from the previous polish of the
/// same population (\p candidates must then be problem.points()); it is
/// used only when \p seed's centers are the ones that polish returned,
/// and left holding the returned centers' gains, or empty when the
/// returned solution is not the search's final state (an abort, or moves
/// that did not beat the seed). Outputs and counters other than
/// LsStats::gain_sums are the same with or without it.
[[nodiscard]] Solution polish(const Problem& problem, const Solution& seed,
                              const geo::PointSet& candidates,
                              const LsConfig& config = {},
                              LsStats* stats = nullptr,
                              spatial::SpatialIndex* population_index = nullptr,
                              GainCache* gains = nullptr);

/// Same search from bare \p seed_centers — a placement carried over from
/// another population (the previous epoch, the previous slot), whose old
/// accounting means nothing here. The seed's accounting is only built when
/// the seed is the answer, so a warm re-solve that moves pays no extra
/// O(n) pass. The result's solver_name is left empty for the caller.
[[nodiscard]] Solution polish(const Problem& problem,
                              const geo::PointSet& seed_centers,
                              const geo::PointSet& candidates,
                              const LsConfig& config = {},
                              LsStats* stats = nullptr,
                              spatial::SpatialIndex* population_index = nullptr,
                              GainCache* gains = nullptr);

/// A Solver that runs \p base and polishes its output. With an empty
/// \p candidates set the center domain is the instance's own points (the
/// Algorithm 2/3 domain), resolved per solve.
class LocalSearchSolver final : public Solver {
 public:
  LocalSearchSolver(std::shared_ptr<const Solver> base,
                    geo::PointSet candidates, LsConfig config = {});

  /// Convenience: candidates default to the instance points.
  explicit LocalSearchSolver(std::shared_ptr<const Solver> base,
                             LsConfig config = {});

  /// "ls(<base>)".
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] Solution solve(const Problem& problem,
                               std::size_t k) const override;

  /// Counters of the last solve()'s polish phase.
  [[nodiscard]] const LsStats& last_stats() const noexcept { return stats_; }

 private:
  std::shared_ptr<const Solver> base_;
  geo::PointSet candidates_;
  LsConfig config_;
  mutable LsStats stats_;
};

}  // namespace mmph::core
