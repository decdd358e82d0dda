#include "mmph/core/lazy_greedy.hpp"

#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "mmph/core/indexed_eval.hpp"
#include "mmph/core/kernels.hpp"
#include "mmph/core/reward.hpp"
#include "mmph/support/assert.hpp"

namespace mmph::core {
namespace {

struct HeapEntry {
  double gain;        // last-evaluated coverage reward (upper bound now)
  std::size_t index;  // candidate index
  std::size_t round;  // round in which `gain` was evaluated
};

// Max-heap on gain; ties resolve toward the *lowest* index so the selection
// matches GreedyLocalSolver's ascending-scan tie-breaking.
struct HeapLess {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const noexcept {
    if (a.gain != b.gain) return a.gain < b.gain;
    return a.index > b.index;
  }
};

}  // namespace

Solution LazyGreedySolver::solve(const Problem& problem, std::size_t k) const {
  return solve(problem, problem.points(), k);
}

Solution LazyGreedySolver::solve(const Problem& problem,
                                 const geo::PointSet& candidates,
                                 std::size_t k) const {
  MMPH_REQUIRE(k >= 1, "solve: k must be >= 1");
  MMPH_REQUIRE(!candidates.empty(), "solve: empty candidate set");
  MMPH_REQUIRE(candidates.dim() == problem.dim(),
               "solve: candidate dimension mismatch");
  Solution sol;
  sol.solver_name = name();
  sol.centers = geo::PointSet(problem.dim());
  sol.centers.reserve(k);
  sol.residual = fresh_residual(problem);
  last_evals_.store(0, std::memory_order_relaxed);

  // Evaluation backends, strongest first: a spatial radius index (per-eval
  // cost O(points-in-ball) instead of O(n)), else an ActiveSet over the
  // blocked kernels (exhausted points compact away). Sums — and therefore
  // center selection — are identical across all three paths: dropped and
  // out-of-ball terms are exact zeros.
  const auto indexed = kernels::IndexedActiveSet::try_make(problem, index_);
  const bool blocked = !indexed && kernels::blocked_enabled();
  std::optional<kernels::ActiveSet> active;
  if (blocked) active.emplace(problem);

  const auto gain = [&](std::size_t c) {
    if (indexed) return indexed->coverage_reward(candidates[c]);
    return blocked ? active->coverage_reward(candidates[c])
                   : coverage_reward(problem, candidates[c], sol.residual);
  };

  // First-round scan: every candidate's fresh gain. This O(|candidates| n)
  // pass is the one cost laziness cannot avoid, so it shards across the
  // pool when one was provided (per-slot writes keep it deterministic).
  const std::vector<double> gains =
      kernels::ParallelEvaluator(pool_).map(candidates.size(), gain);
  last_evals_.fetch_add(candidates.size(), std::memory_order_relaxed);

  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapLess> heap;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    heap.push(HeapEntry{gains[c], c, 1});  // fresh for round 1
  }

  for (std::size_t round = 1; round <= k; ++round) {
    // Pop until the top entry's gain is fresh for this round. Stale gains
    // are upper bounds (submodularity), so a fresh top is globally best.
    HeapEntry top = heap.top();
    while (top.round != round) {
      heap.pop();
      top.gain = gain(top.index);
      last_evals_.fetch_add(1, std::memory_order_relaxed);
      top.round = round;
      heap.push(top);
      top = heap.top();
    }
    const geo::ConstVec center = candidates[top.index];
    sol.centers.push_back(center);
    const double g = indexed   ? indexed->apply_center(center)
                     : blocked ? active->apply_center(center)
                               : apply_center(problem, center, sol.residual);
    sol.round_rewards.push_back(g);
    sol.total_reward += g;
    // The chosen entry stays in the heap with a now-stale gain; future
    // re-evaluation yields ~0 marginal gain, which is correct (re-picking
    // an exhausted center is allowed by the paper's formulation).
  }
  if (indexed) {
    indexed->export_residual(sol.residual);
  } else if (blocked) {
    active->export_residual(sol.residual);
  }
  return sol;
}

}  // namespace mmph::core
