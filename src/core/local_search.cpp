#include "mmph/core/local_search.hpp"

#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mmph/core/swap_evaluator.hpp"
#include "mmph/random/pcg64.hpp"
#include "mmph/support/assert.hpp"

namespace mmph::core {

namespace {

constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();

struct PolishRun {
  const geo::PointSet& candidates;
  const LsConfig& config;
  SwapEvaluator& eval;
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
          if (try_eval(j, candidates[c]) > kMinSwapGain) {
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
        if (try_eval(j, candidates[c]) > kMinSwapGain) {
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
    if (best_delta <= kMinSwapGain || ties.empty()) return false;
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

  /// Runs sweeps until a local optimum or config.max_sweeps; \p cand_index
  /// (null: no shift pass) indexes the candidates at the problem radius.
  void search(const spatial::SpatialIndex* cand_index) {
    rnd::Pcg64 rng(config.seed);
    std::vector<std::uint64_t> tabu_until;
    std::vector<std::size_t> slot_origin;
    std::uint64_t move_clock = 0;
    if (config.tabu_tenure > 0) {
      tabu_until.assign(candidates.size(), 0);
      slot_origin.assign(eval.centers().size(), kNoSlot);
    }
    for (std::size_t sweep = 0; sweep < config.max_sweeps; ++sweep) {
      ++stats.sweeps;
      const bool moved =
          config.tabu_tenure == 0
              ? first_improvement_sweep(cand_index)
              : tabu_sweep(rng, tabu_until, slot_origin, move_clock);
      if (!moved) {
        stats.converged = true;
        return;
      }
    }
  }
};

/// The one search behind both polish() overloads. \p accounted is the
/// seed with exact accounting on \p problem, or null for bare centers.
Solution polish_from(const Problem& problem, const geo::PointSet& centers,
                     const Solution* accounted,
                     const geo::PointSet& candidates, const LsConfig& config,
                     LsStats* stats, spatial::SpatialIndex* population_index) {
  MMPH_REQUIRE(!candidates.empty(), "polish: empty candidate set");
  MMPH_REQUIRE(candidates.dim() == problem.dim(),
               "polish: candidate dimension mismatch");
  LsStats local;
  LsStats& st = stats != nullptr ? *stats : local;
  st = LsStats{};
  if (centers.empty()) {
    if (accounted != nullptr) return *accounted;
    Solution none;
    none.centers = centers;
    return none;
  }
  MMPH_REQUIRE(centers.dim() == problem.dim(),
               "polish: seed dimension mismatch");

  SwapEvaluator eval(problem, centers, population_index);
  const double seed_total =
      accounted != nullptr ? accounted->total_reward : eval.current_value();
  // The seed as an answer. A bare seed's accounting is built only here,
  // when nothing beat it.
  const auto seed_answer = [&] {
    return accounted != nullptr
               ? *accounted
               : SwapEvaluator(problem, centers, population_index).account();
  };

  std::unique_ptr<spatial::SpatialIndex> cand_index;
  if (config.shift_moves && config.tabu_tenure == 0) {
    cand_index =
        spatial::make_index(candidates, problem.radius(), problem.metric());
  }

  PolishRun run{candidates, config, eval, st};
  try {
    run.search(cand_index.get());
  } catch (const std::exception&) {
    // A delta evaluation failed (injected fault or organic). The seed is a
    // complete, valid solution — return it rather than a state mid-move;
    // the caller's f(ls) >= f(seed) contract still holds.
    st.aborted = true;
    return seed_answer();
  }

  // Exact final accounting. Deltas accumulate with different float
  // association than a from-scratch pass; re-derive the per-round rewards
  // and keep the seed whenever polishing did not strictly beat it, so
  // f(result) >= f(seed) is structural, not "up to drift". Unmoved bare
  // centers are the seed, and this is their accounting.
  Solution out = eval.account();
  if (accounted == nullptr && st.moves == 0) return out;
  if (!(out.total_reward > seed_total)) return seed_answer();
  st.improved = true;
  if (accounted != nullptr) out.solver_name = accounted->solver_name + "+ls";
  return out;
}

}  // namespace

Solution polish(const Problem& problem, const Solution& seed,
                const geo::PointSet& candidates, const LsConfig& config,
                LsStats* stats, spatial::SpatialIndex* population_index) {
  return polish_from(problem, seed.centers, &seed, candidates, config, stats,
                     population_index);
}

Solution polish(const Problem& problem, const geo::PointSet& seed_centers,
                const geo::PointSet& candidates, const LsConfig& config,
                LsStats* stats, spatial::SpatialIndex* population_index) {
  return polish_from(problem, seed_centers, nullptr, candidates, config,
                     stats, population_index);
}

LocalSearchSolver::LocalSearchSolver(std::shared_ptr<const Solver> base,
                                     geo::PointSet candidates, LsConfig config)
    : base_(std::move(base)),
      candidates_(std::move(candidates)),
      config_(std::move(config)) {
  MMPH_REQUIRE(base_ != nullptr, "LocalSearchSolver needs a base solver");
  MMPH_REQUIRE(config_.max_sweeps >= 1,
               "LocalSearchSolver needs max_sweeps >= 1");
}

LocalSearchSolver::LocalSearchSolver(std::shared_ptr<const Solver> base,
                                     LsConfig config)
    : LocalSearchSolver(std::move(base), geo::PointSet(1), std::move(config)) {}

std::string LocalSearchSolver::name() const {
  return "ls(" + base_->name() + ")";
}

Solution LocalSearchSolver::solve(const Problem& problem,
                                  std::size_t k) const {
  const Solution seed = base_->solve(problem, k);
  const geo::PointSet& domain =
      candidates_.empty() ? problem.points() : candidates_;
  Solution out = polish(problem, seed, domain, config_, &stats_);
  out.solver_name = name();
  return out;
}

}  // namespace mmph::core
