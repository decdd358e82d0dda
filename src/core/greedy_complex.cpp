#include "mmph/core/greedy_complex.hpp"

#include <algorithm>
#include <vector>

#include "mmph/core/indexed_eval.hpp"
#include "mmph/core/reward.hpp"
#include "mmph/geometry/vec.hpp"

namespace mmph::core {

namespace {

// One walk of the paper's new-center procedure, seeded at input point
// `seed`. State: the accumulated point set D (initially {x_seed}) and the
// current center (initially x_seed). Each step:
//   (2) pick the heaviest remaining point j by the reward the current disk
//       would give it, w_j * z_j with z_j = min([1 - d(c, x_j)/r]_+, y_j)
//       (the paper's "max w_j z_j");
//   (3) if no remaining point earns anything from the disk — i.e. the
//       heaviest j "is outside D" — stop;
//   (4) otherwise add j to D and recenter on the smallest ball covering D
//       (Welzl for L2, box midpoint for Linf, projection rule for L1);
//   (5) keep the move only if the coverage reward improved, else stop.
// Recentering pulls partially-covered points toward the disk center (more
// reward each) and can bring new points into range, so walks chain. The
// complexity accounting in the paper's Theorem 4 ("suppose the size of D
// is i ... (2) takes (n-i) steps, (3) consumes (i+1) steps") confirms D is
// this accumulated set, growing by one point per step, so a walk takes at
// most n-1 steps.
//
// `near(c, visit)` calls visit(j) in ascending j for a superset of the
// points the disk at c can reward (every point on the scan path, the
// index's ball query on the indexed path); `reward_at(c)` is g(c) against
// y. Points outside the disk or with y_j == 0 earn exactly 0 in step (2)
// and never win its strict comparison, so any such superset picks the same
// j as the full scan.
template <typename Near, typename RewardAt>
void walk_from_seed(const Problem& problem, std::span<const double> y,
                    std::size_t seed, geo::L1CenterRule l1_rule,
                    const Near& near, const RewardAt& reward_at,
                    std::vector<double>& center, double& reward) {
  const std::size_t n = problem.size();

  geo::PointSet accumulated(problem.dim());
  accumulated.push_back(problem.point(seed));
  std::vector<bool> in_set(n, false);
  in_set[seed] = true;

  geo::assign(center, problem.point(seed));
  reward = reward_at(center);

  for (std::size_t step = 0; step + 1 < n; ++step) {
    // (2) heaviest remaining point by the reward the current disk gives it
    // (w_j * z_j); ties toward the lowest index.
    double best_w = 0.0;
    std::size_t best_j = n;
    near(center, [&](std::size_t j) {
      if (in_set[j]) return;
      const double u = unit_coverage(problem, center, j);
      if (u <= 0.0) return;
      const double wz = problem.weight(j) * std::min(u, y[j]);
      if (wz > best_w) {
        best_w = wz;
        best_j = j;
      }
    });
    // (3) every remaining point is outside the disk (or exhausted): stop.
    if (best_j == n || best_w <= 0.0) return;

    // (4) recenter on the smallest ball covering D plus j.
    accumulated.push_back(problem.point(best_j));
    const geo::Ball ball =
        geo::smallest_enclosing(accumulated, problem.metric(), l1_rule);

    // (5) accept only an improving move.
    const double candidate_reward = reward_at(ball.center);
    if (candidate_reward <= reward) return;
    in_set[best_j] = true;
    center = ball.center;
    reward = candidate_reward;
  }
}

// Walks from every seed and writes the best final disk's center to `out`
// (ties keep the lowest seed index).
template <typename Near, typename RewardAt>
void best_walk(const Problem& problem, std::span<const double> y,
               geo::L1CenterRule l1_rule, const Near& near,
               const RewardAt& reward_at, std::span<double> out) {
  double best = -1.0;
  std::vector<double> best_center(problem.dim());
  std::vector<double> center(problem.dim());

  for (std::size_t seed = 0; seed < problem.size(); ++seed) {
    double reward = 0.0;
    walk_from_seed(problem, y, seed, l1_rule, near, reward_at, center,
                   reward);
    if (reward > best) {  // strict: ties keep the lowest seed index
      best = reward;
      best_center = center;
    }
  }
  geo::assign(out, best_center);
}

}  // namespace

void GreedyComplexSolver::select_center(const Problem& problem,
                                        std::span<const double> y,
                                        std::span<double> out) const {
  const auto every_point = [&](geo::ConstVec, const auto& visit) {
    for (std::size_t j = 0; j < problem.size(); ++j) visit(j);
  };
  const auto reward_at = [&](geo::ConstVec c) {
    return coverage_reward(problem, c, y);
  };
  best_walk(problem, y, l1_rule_, every_point, reward_at, out);
}

bool GreedyComplexSolver::indexed_select(
    const Problem& problem, const kernels::IndexedActiveSet& active,
    std::span<double> out) const {
  std::vector<std::size_t> ball;
  const auto points_in_ball = [&](geo::ConstVec c, const auto& visit) {
    active.index().query(c, ball);
    for (const std::size_t j : ball) visit(j);
  };
  const auto reward_at = [&](geo::ConstVec c) {
    return active.coverage_reward(c);
  };
  best_walk(problem, active.residual(), l1_rule_, points_in_ball, reward_at,
            out);
  return true;
}

}  // namespace mmph::core
