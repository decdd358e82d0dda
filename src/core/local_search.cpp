#include "mmph/core/local_search.hpp"

#include <algorithm>
#include <cfloat>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mmph/core/swap_evaluator.hpp"
#include "mmph/random/pcg64.hpp"
#include "mmph/spatial/uniform_grid.hpp"
#include "mmph/support/assert.hpp"

namespace mmph::core {

namespace {

constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();
/// A move count no search reaches: "never tried at any state".
constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

struct PolishRun {
  PolishRun(const Problem& problem_in, const geo::PointSet& candidates_in,
            const LsConfig& config_in, SwapEvaluator& eval_in,
            LsStats& stats_in, GainCache& gains_in)
      : problem(problem_in),
        candidates(candidates_in),
        config(config_in),
        eval(eval_in),
        stats(stats_in),
        gains(gains_in) {}

  const Problem& problem;
  const geo::PointSet& candidates;
  const LsConfig& config;
  SwapEvaluator& eval;
  LsStats& stats;

  /// Cached g(c) per candidate and L_j per slot; both empty in scan mode,
  /// where every pair counts as near.
  GainCache& gains;
  std::vector<double> loss;
  /// Beyond this distance (2r, with room for distance rounding) two
  /// coverage balls are disjoint under any p >= 1 norm, closed or not.
  const double far_distance = 2.0 * problem.radius() * (1.0 + 1e-9);
  /// Per unit of g + L: bounds |delta − (g − L)| for a far pair, whose
  /// at most n terms are each >= 0 and summed in two orders.
  const double margin_scale =
      4.0 * static_cast<double>(problem.size()) * DBL_EPSILON;
  std::vector<double> replaced;  ///< commit scratch: the old center

  /// What the current evaluator state has already rejected, per slot (a
  /// first-improvement sweep only): the candidates [row_from, n) its swap
  /// pass tried at move count row_at, and the ids its shift pass tried at
  /// move count shift_at. A pair tried again at the same move count meets
  /// the same state, so its verdict (a delta or a far skip) is known.
  std::vector<std::size_t> row_from;
  std::vector<std::uint64_t> row_at;
  std::vector<std::vector<std::size_t>> shift_ids;
  std::vector<std::uint64_t> shift_at;

  [[nodiscard]] bool far(geo::ConstVec a, geo::ConstVec b) const {
    return problem.metric().distance(a, b) > far_distance;
  }

  /// Fills the cache when the evaluator gathers balls through an index:
  /// the stale rows are summed, every other carried g is current.
  void cache_gains() {
    if (eval.index() == nullptr) {
      gains.clear();
      return;
    }
    gains.prepare(candidates, eval.centers(), *eval.index(), problem.metric(),
                  problem.radius());
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (gains.stale(c)) {
        gains.store(c, eval.add_gain(candidates[c]));
        ++stats.gain_sums;
      }
    }
    loss.resize(eval.centers().size());
    for (std::size_t j = 0; j < loss.size(); ++j) {
      loss[j] = eval.removal_loss(j);
    }
  }

  /// True when slot j's swap pass already tried \p c at this state.
  [[nodiscard]] bool row_tried(std::size_t j, std::size_t c) const {
    return row_at[j] == stats.moves && c >= row_from[j];
  }

  /// delta(j, c), exact — or -inf, unevaluated, when c is far from c_j and
  /// delta = g(c) − L_j (up to the margin) cannot exceed \p floor.
  [[nodiscard]] double try_eval(std::size_t j, std::size_t c, double floor) {
    bool is_far = false;
    if (!gains.empty() && far(candidates[c], eval.centers()[j])) {
      const double bound = floor - margin_scale * (gains[c] + loss[j]);
      if (gains[c] - loss[j] <= bound) {
        ++stats.skipped;
        return -std::numeric_limits<double>::infinity();
      }
      is_far = true;
    }
    if (config.fault_hook && config.fault_hook(kFaultLsEvalThrow)) {
      throw std::runtime_error("ls: injected delta-evaluation fault");
    }
    ++stats.evals;
    if (is_far) ++stats.far_evals;
    return eval.delta_for_swap(j, candidates[c]);
  }

  /// Puts candidate c in slot j. Totals change only inside ball(old) ∪
  /// ball(new), so only the gains of candidates within 2r of either
  /// center can change; every other cached g stays bitwise current. The
  /// re-summed ones saw running totals, so the next polish re-sums them.
  void commit(std::size_t j, std::size_t c) {
    const geo::ConstVec to = candidates[c];
    replaced.assign(eval.centers()[j].begin(), eval.centers()[j].end());
    eval.commit_swap(j, to);
    ++stats.moves;
    if (gains.empty()) return;
    const geo::ConstVec from(replaced.data(), replaced.size());
    for (std::size_t other = 0; other < candidates.size(); ++other) {
      if (!far(candidates[other], from) || !far(candidates[other], to)) {
        gains.store_drifted(other, eval.add_gain(candidates[other]));
        ++stats.gain_sums;
      }
    }
    for (std::size_t s = 0; s < loss.size(); ++s) {
      loss[s] = eval.removal_loss(s);
    }
  }

  /// One first-improvement sweep: shift pass (radius-local candidates via
  /// \p cand_index, a superset of each center's ball), then the full swap
  /// pass. A pair already tried at this state counts as skipped. Returns
  /// whether any move was committed.
  bool first_improvement_sweep(const spatial::SpatialIndex* cand_index) {
    bool improved = false;
    const std::size_t k = eval.centers().size();
    if (cand_index != nullptr) {
      for (std::size_t j = 0; j < k; ++j) {
        cand_index->query(eval.centers()[j], shift_ids[j]);
        shift_at[j] = kNever;
        bool moved = false;
        for (const std::size_t c : shift_ids[j]) {
          if (row_tried(j, c)) {
            ++stats.skipped;
          } else if (try_eval(j, c, kMinSwapGain) > kMinSwapGain) {
            commit(j, c);
            ++stats.shift_moves;
            improved = true;
            moved = true;
            break;  // slot j moved; its candidate ball is stale
          }
        }
        if (!moved) shift_at[j] = stats.moves;
      }
    }
    for (std::size_t j = 0; j < k; ++j) {
      const std::vector<std::size_t>& shifted = shift_ids[j];
      std::size_t next = 0;  // cursor into the ascending shift ids
      std::size_t tried_from = 0;  // first candidate tried at the end state
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        if (shift_at[j] == stats.moves) {
          while (next < shifted.size() && shifted[next] < c) ++next;
          if (next < shifted.size() && shifted[next] == c) {
            ++stats.skipped;
            continue;
          }
        }
        if (row_tried(j, c)) {
          ++stats.skipped;
        } else if (try_eval(j, c, kMinSwapGain) > kMinSwapGain) {
          commit(j, c);
          ++stats.swap_moves;
          improved = true;
          tried_from = c + 1;
        }
      }
      row_from[j] = tried_from;
      row_at[j] = stats.moves;
    }
    return improved;
  }

  /// One tabu sweep: full scan, commit the single best non-tabu improving
  /// move (exact delta ties broken by \p rng). Worsening moves are never
  /// taken, so the polish stays monotone. A far pair is skipped only when
  /// it can neither beat nor tie the running best, and the RNG is drawn
  /// only for a move, so pruning changes no pick.
  bool tabu_sweep(rnd::Pcg64& rng, std::vector<std::uint64_t>& tabu_until,
                  std::vector<std::size_t>& slot_origin,
                  std::uint64_t& move_clock) {
    double best_delta = 0.0;
    std::vector<std::pair<std::size_t, std::size_t>> ties;
    const std::size_t k = eval.centers().size();
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        if (tabu_until[c] > move_clock) continue;
        const double delta =
            try_eval(j, c, std::max(best_delta, kMinSwapGain));
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
    commit(j, c);
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
    cache_gains();
    const std::size_t k = eval.centers().size();
    row_from.assign(k, 0);
    row_at.assign(k, kNever);
    shift_ids.assign(k, {});
    shift_at.assign(k, kNever);
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

/// True when \p index (an evaluator's: over problem.points() at radius r)
/// is what spatial::make_index(problem.points(), r, …) builds — a grid of
/// cell r, whose queries return the same ascending superset.
bool is_default_grid(const spatial::SpatialIndex* index,
                     const Problem& problem) {
  const auto* grid = dynamic_cast<const spatial::UniformGridIndex*>(index);
  return grid != nullptr && grid->cell_size() == problem.radius();
}

/// The one search behind both polish() overloads. \p accounted is the
/// seed with exact accounting on \p problem, or null for bare centers.
Solution polish_from(const Problem& problem, const geo::PointSet& centers,
                     const Solution* accounted,
                     const geo::PointSet& candidates, const LsConfig& config,
                     LsStats* stats, spatial::SpatialIndex* population_index,
                     GainCache* carried) {
  MMPH_REQUIRE(!candidates.empty(), "polish: empty candidate set");
  MMPH_REQUIRE(candidates.dim() == problem.dim(),
               "polish: candidate dimension mismatch");
  MMPH_REQUIRE(carried == nullptr || &candidates == &problem.points(),
               "polish: a carried GainCache needs the problem's points as "
               "candidates");
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

  // The shift pass queries the candidates at the problem radius; when they
  // are the problem's points, the evaluator's grid already answers that.
  std::unique_ptr<spatial::SpatialIndex> owned_shift_index;
  const spatial::SpatialIndex* shift_index = nullptr;
  if (config.shift_moves && config.tabu_tenure == 0) {
    if (&candidates == &problem.points() &&
        is_default_grid(eval.index(), problem)) {
      shift_index = eval.index();
    } else {
      owned_shift_index =
          spatial::make_index(candidates, problem.radius(), problem.metric());
      shift_index = owned_shift_index.get();
    }
  }

  GainCache local_gains;
  GainCache& gains = carried != nullptr ? *carried : local_gains;
  PolishRun run(problem, candidates, config, eval, st, gains);
  try {
    run.search(shift_index);
  } catch (const std::exception&) {
    // A delta evaluation failed (injected fault or organic). The seed is a
    // complete, valid solution — return it rather than a state mid-move;
    // the caller's f(ls) >= f(seed) contract still holds.
    st.aborted = true;
    gains.clear();
    return seed_answer();
  }

  // Exact final accounting. Deltas accumulate with different float
  // association than a from-scratch pass; re-derive the per-round rewards
  // and keep the seed whenever polishing did not strictly beat it, so
  // f(result) >= f(seed) is structural, not "up to drift". Unmoved bare
  // centers are the seed, and this is their accounting. The gains carry
  // over only when the answer is the evaluator's final state.
  Solution out = eval.account();
  const bool improved = out.total_reward > seed_total;
  if (st.moves > 0 && !improved) {
    gains.clear();
  } else {
    gains.settle(eval.centers());
  }
  if (accounted == nullptr && st.moves == 0) return out;
  if (!improved) return seed_answer();
  st.improved = true;
  if (accounted != nullptr) out.solver_name = accounted->solver_name + "+ls";
  return out;
}

}  // namespace

Solution polish(const Problem& problem, const Solution& seed,
                const geo::PointSet& candidates, const LsConfig& config,
                LsStats* stats, spatial::SpatialIndex* population_index,
                GainCache* gains) {
  return polish_from(problem, seed.centers, &seed, candidates, config, stats,
                     population_index, gains);
}

Solution polish(const Problem& problem, const geo::PointSet& seed_centers,
                const geo::PointSet& candidates, const LsConfig& config,
                LsStats* stats, spatial::SpatialIndex* population_index,
                GainCache* gains) {
  return polish_from(problem, seed_centers, nullptr, candidates, config,
                     stats, population_index, gains);
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
