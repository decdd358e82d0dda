#include "mmph/ls/local_search.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

#include "mmph/random/pcg64.hpp"
#include "mmph/support/assert.hpp"

namespace mmph::ls {

namespace {

constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();

struct PolishRun {
  const geo::PointSet& candidates;
  const LsConfig& config;
  core::SwapEvaluator& eval;
  LsStats& stats;

  [[nodiscard]] double try_eval(std::size_t j, geo::ConstVec cand) {
    if (config.fault_hook && config.fault_hook(kFaultLsEvalThrow)) {
      throw std::runtime_error("ls: injected delta-evaluation fault");
    }
    ++stats.evals;
    return eval.delta_for_swap(j, cand);
  }

  /// One first-improvement sweep: shift pass (radius-local candidates via
  /// \p cand_index, a superset of each center's ball), then the full swap
  /// pass. Returns whether any move was committed.
  bool first_improvement_sweep(const spatial::SpatialIndex* cand_index) {
    bool improved = false;
    std::vector<std::size_t> shift_ids;
    const std::size_t k = eval.centers().size();
    if (cand_index != nullptr) {
      for (std::size_t j = 0; j < k; ++j) {
        cand_index->query(eval.centers()[j], shift_ids);
        for (const std::size_t c : shift_ids) {
          const double delta = try_eval(j, candidates[c]);
          if (delta > config.min_gain) {
            eval.commit_swap(j, candidates[c]);
            ++stats.moves;
            ++stats.shift_moves;
            improved = true;
            break;  // slot j moved; its candidate ball is stale
          }
        }
      }
    }
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        const double delta = try_eval(j, candidates[c]);
        if (delta > config.min_gain) {
          eval.commit_swap(j, candidates[c]);
          ++stats.moves;
          ++stats.swap_moves;
          improved = true;
        }
      }
    }
    return improved;
  }

  /// One tabu sweep: full scan, commit the single best non-tabu improving
  /// move (exact delta ties broken by \p rng). Worsening moves are never
  /// taken, so the polish stays monotone.
  bool tabu_sweep(rnd::Pcg64& rng, std::vector<std::uint64_t>& tabu_until,
                  std::vector<std::size_t>& slot_origin,
                  std::uint64_t& move_clock) {
    double best_delta = 0.0;
    std::vector<std::pair<std::size_t, std::size_t>> ties;
    const std::size_t k = eval.centers().size();
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        if (tabu_until[c] > move_clock) continue;
        const double delta = try_eval(j, candidates[c]);
        if (delta > best_delta) {
          best_delta = delta;
          ties.assign(1, {j, c});
        } else if (delta == best_delta && best_delta > 0.0) {
          ties.emplace_back(j, c);
        }
      }
    }
    if (best_delta <= config.min_gain || ties.empty()) return false;
    const auto [j, c] = ties[static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(ties.size())))];
    eval.commit_swap(j, candidates[c]);
    ++stats.moves;
    ++stats.swap_moves;
    ++move_clock;
    if (slot_origin[j] != kNoSlot) {
      tabu_until[slot_origin[j]] = move_clock + config.tabu_tenure;
    }
    slot_origin[j] = c;
    return true;
  }
};

}  // namespace

core::Solution polish(const core::Problem& problem, const core::Solution& seed,
                      const geo::PointSet& candidates, const LsConfig& config,
                      LsStats* stats, spatial::SpatialIndex* population_index) {
  MMPH_REQUIRE(!candidates.empty(), "ls::polish: empty candidate set");
  MMPH_REQUIRE(candidates.dim() == problem.dim(),
               "ls::polish: candidate dimension mismatch");
  LsStats local;
  LsStats& st = stats != nullptr ? *stats : local;
  st = LsStats{};
  if (seed.centers.empty()) return seed;
  MMPH_REQUIRE(seed.centers.dim() == problem.dim(),
               "ls::polish: seed dimension mismatch");

  core::SwapEvaluator eval(problem, seed.centers, population_index);
  std::unique_ptr<spatial::SpatialIndex> cand_index;
  if (config.shift_moves) {
    cand_index =
        spatial::make_index(candidates, problem.radius(), problem.metric());
  }

  PolishRun run{candidates, config, eval, st};
  try {
    if (config.tabu_tenure == 0) {
      for (std::size_t sweep = 0; sweep < config.max_sweeps; ++sweep) {
        ++st.sweeps;
        if (!run.first_improvement_sweep(cand_index.get())) {
          st.converged = true;
          break;
        }
      }
    } else {
      rnd::Pcg64 rng(config.seed);
      std::vector<std::uint64_t> tabu_until(candidates.size(), 0);
      std::vector<std::size_t> slot_origin(seed.centers.size(), kNoSlot);
      std::uint64_t move_clock = 0;
      for (std::size_t sweep = 0; sweep < config.max_sweeps; ++sweep) {
        ++st.sweeps;
        if (!run.tabu_sweep(rng, tabu_until, slot_origin, move_clock)) {
          st.converged = true;
          break;
        }
      }
    }
  } catch (const std::exception&) {
    // A delta evaluation failed (injected fault or organic). The seed is a
    // complete, valid solution — return it verbatim rather than a state
    // mid-move; the caller's f(ls) >= f(seed) contract still holds.
    st.aborted = true;
    return seed;
  }

  // Exact final accounting. Deltas accumulate with different float
  // association than a from-scratch pass; re-derive the per-round rewards
  // and keep the seed whenever polishing did not strictly beat it, so
  // f(result) >= f(seed) is structural, not "up to drift".
  core::Solution out = eval.account();
  if (!(out.total_reward > seed.total_reward)) return seed;
  st.improved = true;
  out.solver_name = seed.solver_name + "+ls";
  return out;
}

LocalSearchSolver::LocalSearchSolver(std::shared_ptr<const core::Solver> base,
                                     geo::PointSet candidates, LsConfig config)
    : base_(std::move(base)),
      candidates_(std::move(candidates)),
      config_(std::move(config)) {
  MMPH_REQUIRE(base_ != nullptr, "LocalSearchSolver needs a base solver");
  MMPH_REQUIRE(config_.max_sweeps >= 1,
               "LocalSearchSolver needs max_sweeps >= 1");
}

LocalSearchSolver::LocalSearchSolver(std::shared_ptr<const core::Solver> base,
                                     LsConfig config)
    : LocalSearchSolver(std::move(base), geo::PointSet(1), std::move(config)) {}

std::string LocalSearchSolver::name() const {
  return "ls(" + base_->name() + ")";
}

core::Solution LocalSearchSolver::solve(const core::Problem& problem,
                                        std::size_t k) const {
  core::Solution seed = base_->solve(problem, k);
  const geo::PointSet& domain = candidates_.empty()
                                    ? problem.points()
                                    : candidates_;
  core::Solution out = polish(problem, seed, domain, config_, &stats_);
  out.solver_name = name();
  return out;
}

}  // namespace mmph::ls
