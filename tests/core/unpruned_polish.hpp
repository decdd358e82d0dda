#pragma once

// The unpruned local search the core::polish tests compare against: the
// shift + swap first-improvement sweep and the tabu sweep, driven only
// through SwapEvaluator::delta_for_swap/commit_swap, every pair evaluated
// (no cached gains, no far-pair skips, no reuse of a verdict). Besides its
// result and counters it reports a margin probe at the converged
// placement and how many of its evaluations repeated a pair already
// evaluated with no move in between.

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "mmph/core/local_search.hpp"
#include "mmph/core/swap_evaluator.hpp"
#include "mmph/random/pcg64.hpp"
#include "mmph/spatial/spatial_index.hpp"

namespace mmph::core::oracle {

inline constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// What the unpruned search did, plus the margin probe at its converged
/// placement: the far pairs there and the largest |delta − (g − L)| among
/// them as a fraction of the pruning margin 4·n·DBL_EPSILON·(g + L).
struct Reference {
  Solution solution;
  LsStats stats;
  std::uint64_t far_pairs = 0;
  double worst_margin_use = 0.0;
  /// Evaluations of a (slot, candidate) pair already evaluated with no
  /// move committed since: the same delta, computed again.
  std::uint64_t repeats = 0;
};

inline bool far_apart(const Problem& problem, geo::ConstVec a,
                      geo::ConstVec b) {
  return problem.metric().distance(a, b) >
         2.0 * problem.radius() * (1.0 + 1e-9);
}

/// Today's search over the instance points, every pair evaluated.
inline Reference unpruned_polish(const Problem& problem, const Solution& seed,
                          const LsConfig& config,
                          spatial::SpatialIndex* index) {
  const geo::PointSet& cands = problem.points();
  const std::size_t k = seed.centers.size();
  SwapEvaluator eval(problem, seed.centers, index);
  Reference ref;
  LsStats& st = ref.stats;
  // The margin probe. g and L summed at the start of a sweep stay current
  // until its first move, and a sweep without a move is the converged one.
  const double scale = 4.0 * static_cast<double>(problem.size()) * DBL_EPSILON;
  std::vector<double> gain(cands.size());
  std::vector<double> loss(k);
  bool moved = false;
  std::uint64_t far_pairs = 0;
  double worst = 0.0;
  // Per pair, the state (1 + moves so far) it was last evaluated at.
  std::vector<std::uint64_t> tried_at(k * cands.size(), 0);
  std::uint64_t state = 1;
  const auto delta = [&](std::size_t j, std::size_t c) {
    ++st.evals;
    std::uint64_t& last = tried_at[j * cands.size() + c];
    if (last == state) ++ref.repeats;
    last = state;
    const double d = eval.delta_for_swap(j, cands[c]);
    if (!moved && far_apart(problem, cands[c], eval.centers()[j])) {
      ++far_pairs;
      const double error = std::abs(d - (gain[c] - loss[j]));
      const double margin = scale * (gain[c] + loss[j]);
      if (error > 0.0) {
        worst = std::max(worst, margin > 0.0
                                    ? error / margin
                                    : std::numeric_limits<double>::infinity());
      }
    }
    return d;
  };
  const auto commit = [&](std::size_t j, std::size_t c) {
    eval.commit_swap(j, cands[c]);
    moved = true;
    ++state;
  };

  std::unique_ptr<spatial::SpatialIndex> shift_index;
  if (config.shift_moves && config.tabu_tenure == 0) {
    shift_index =
        spatial::make_index(cands, problem.radius(), problem.metric());
  }
  rnd::Pcg64 rng(config.seed);
  std::vector<std::uint64_t> tabu_until(cands.size(), 0);
  std::vector<std::size_t> origin(k, kNone);
  std::uint64_t clock = 0;
  std::vector<std::size_t> ids;
  while (st.sweeps < config.max_sweeps) {
    ++st.sweeps;
    moved = false;
    far_pairs = 0;
    worst = 0.0;
    for (std::size_t c = 0; c < cands.size(); ++c) {
      gain[c] = eval.add_gain(cands[c]);
    }
    for (std::size_t j = 0; j < k; ++j) loss[j] = eval.removal_loss(j);
    if (config.tabu_tenure == 0) {
      for (std::size_t j = 0; shift_index != nullptr && j < k; ++j) {
        shift_index->query(eval.centers()[j], ids);
        for (const std::size_t c : ids) {
          if (delta(j, c) > kMinSwapGain) {
            commit(j, c);
            ++st.shift_moves;
            break;
          }
        }
      }
      for (std::size_t j = 0; j < k; ++j) {
        for (std::size_t c = 0; c < cands.size(); ++c) {
          if (delta(j, c) > kMinSwapGain) {
            commit(j, c);
            ++st.swap_moves;
          }
        }
      }
    } else {
      double best = 0.0;
      std::vector<std::pair<std::size_t, std::size_t>> ties;
      for (std::size_t j = 0; j < k; ++j) {
        for (std::size_t c = 0; c < cands.size(); ++c) {
          if (tabu_until[c] > clock) continue;
          const double d = delta(j, c);
          if (d > best) {
            best = d;
            ties.assign(1, {j, c});
          } else if (d == best && best > 0.0) {
            ties.emplace_back(j, c);
          }
        }
      }
      if (best > kMinSwapGain && !ties.empty()) {
        const auto [j, c] = ties[static_cast<std::size_t>(
            rng.next_below(static_cast<std::uint64_t>(ties.size())))];
        commit(j, c);
        ++st.swap_moves;
        ++clock;
        if (origin[j] != kNone) {
          tabu_until[origin[j]] = clock + config.tabu_tenure;
        }
        origin[j] = c;
      }
    }
    if (!moved) {
      st.converged = true;
      ref.far_pairs = far_pairs;
      ref.worst_margin_use = worst;
      break;
    }
  }
  st.moves = st.shift_moves + st.swap_moves;
  Solution out = eval.account();
  ref.solution = out.total_reward > seed.total_reward ? out : seed;
  return ref;
}

}  // namespace mmph::core::oracle
