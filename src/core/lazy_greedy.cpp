#include "mmph/core/lazy_greedy.hpp"

#include <queue>
#include <utility>
#include <vector>

#include "mmph/core/kernels.hpp"
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
  last_evals_.store(0, std::memory_order_relaxed);

  // One evaluator owns the residual: the radius index (the lent one when
  // it fits) or the compacted blocked scan, as kernels::should_index()
  // decides.
  kernels::ActiveSet active(problem, index_);

  // First round: every candidate's fresh gain, the one pass laziness
  // cannot avoid. On the index over the problem's own points it is one
  // sweep of the rows; otherwise it maps the candidates, across the pool
  // when one was provided (per-slot writes keep it deterministic).
  const std::vector<double> gains =
      active.coverage_rewards(candidates, pool_);
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
      top.gain = active.coverage_reward(candidates[top.index]);
      last_evals_.fetch_add(1, std::memory_order_relaxed);
      top.round = round;
      heap.push(top);
      top = heap.top();
    }
    const geo::ConstVec center = candidates[top.index];
    sol.centers.push_back(center);
    const double g = active.apply_center(center);
    sol.round_rewards.push_back(g);
    sol.total_reward += g;
    // The chosen entry stays in the heap with a now-stale gain; future
    // re-evaluation yields ~0 marginal gain, which is correct (re-picking
    // an exhausted center is allowed by the paper's formulation).
  }
  sol.residual.assign(active.residual().begin(), active.residual().end());
  return sol;
}

}  // namespace mmph::core
