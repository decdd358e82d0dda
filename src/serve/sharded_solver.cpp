#include "mmph/serve/sharded_solver.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <utility>

#include "mmph/core/kernels.hpp"
#include "mmph/core/lazy_greedy.hpp"
#include "mmph/parallel/parallel_for.hpp"
#include "mmph/support/assert.hpp"
#include "mmph/trace/span.hpp"

namespace mmph::serve {
namespace {

/// Widest dimension of the bounding box of the indexed subset.
std::size_t widest_dim(const geo::PointSet& points,
                       std::span<const std::size_t> indices) {
  const std::size_t dim = points.dim();
  std::vector<double> lo(dim, std::numeric_limits<double>::infinity());
  std::vector<double> hi(dim, -std::numeric_limits<double>::infinity());
  for (const std::size_t i : indices) {
    const geo::ConstVec p = points[i];
    for (std::size_t d = 0; d < dim; ++d) {
      lo[d] = std::min(lo[d], p[d]);
      hi[d] = std::max(hi[d], p[d]);
    }
  }
  std::size_t best = 0;
  for (std::size_t d = 1; d < dim; ++d) {
    if (hi[d] - lo[d] > hi[best] - lo[best]) best = d;
  }
  return best;
}

/// Kd-style recursive median split of \p indices into at most \p budget
/// groups, never splitting below min_shard_size.
void median_split(const geo::PointSet& points, std::vector<std::size_t>& indices,
                  std::size_t begin, std::size_t end, std::size_t budget,
                  std::size_t min_shard_size,
                  std::vector<std::vector<std::size_t>>& out) {
  const std::size_t count = end - begin;
  if (budget <= 1 || count <= min_shard_size || count < 2) {
    out.emplace_back(indices.begin() + static_cast<std::ptrdiff_t>(begin),
                     indices.begin() + static_cast<std::ptrdiff_t>(end));
    return;
  }
  const std::size_t left_budget = budget / 2;
  const std::size_t right_budget = budget - left_budget;
  // Split position proportional to the budget split so uneven budgets
  // (e.g. 3 shards) still balance.
  const std::size_t mid = begin + count * left_budget / budget;
  const std::span<const std::size_t> view(indices.data() + begin, count);
  const std::size_t axis = widest_dim(points, view);
  std::nth_element(indices.begin() + static_cast<std::ptrdiff_t>(begin),
                   indices.begin() + static_cast<std::ptrdiff_t>(mid),
                   indices.begin() + static_cast<std::ptrdiff_t>(end),
                   [&](std::size_t a, std::size_t b) {
                     const double va = points[a][axis], vb = points[b][axis];
                     if (va != vb) return va < vb;
                     return a < b;  // deterministic under duplicate coords
                   });
  median_split(points, indices, begin, mid, left_budget, min_shard_size, out);
  median_split(points, indices, mid, end, right_budget, min_shard_size, out);
}

}  // namespace

std::vector<std::vector<std::size_t>> shard_indices(
    const geo::PointSet& points, const ShardedSolverConfig& config,
    std::size_t workers) {
  MMPH_REQUIRE(!points.empty(), "shard_indices: empty point set");
  const std::size_t n = points.size();
  std::size_t budget = config.max_shards;
  if (budget == 0) {
    // Auto: at least one shard per worker for parallelism, but also cap
    // shard size — a scanning shard's greedy is O(shard^2), so S shards
    // cut its total work by ~S even on a single worker.
    constexpr std::size_t kTargetShardSize = 2048;
    budget = std::max(workers, (n + kTargetShardSize - 1) / kTargetShardSize);
  }
  budget = std::max<std::size_t>(budget, 1);
  const std::size_t min_size = std::max<std::size_t>(config.min_shard_size, 1);
  budget = std::min(budget, std::max<std::size_t>(n / min_size, 1));

  std::vector<std::size_t> indices(n);
  std::iota(indices.begin(), indices.end(), 0);
  std::vector<std::vector<std::size_t>> out;
  median_split(points, indices, 0, n, budget, min_size, out);
  return out;
}

ShardedSolver::ShardedSolver(par::ThreadPool& pool, ShardedSolverConfig config)
    : pool_(pool), config_(config) {}

core::Solution ShardedSolver::solve(const core::Problem& problem,
                                    std::size_t k) const {
  MMPH_REQUIRE(k >= 1, "solve: k must be >= 1");
  last_stats_ = ShardStats{};

  std::vector<std::vector<std::size_t>> shards;
  geo::PointSet candidates(problem.dim());
  {
    trace::ScopedSpan span("serve.shard");
    if (!row_groups_.empty()) {
      // The caller dictated the partition (the region-sharded store's
      // per-shard row ranges): solve exactly those groups, skip the
      // split computation entirely.
      MMPH_REQUIRE(row_groups_.back().second == problem.size(),
                   "solve: row groups do not cover the problem");
      shards.reserve(row_groups_.size());
      for (const auto& [begin, end] : row_groups_) {
        if (begin == end) continue;  // empty store shard
        std::vector<std::size_t> rows;
        rows.reserve(end - begin);
        for (std::size_t row = begin; row < end; ++row) rows.push_back(row);
        shards.push_back(std::move(rows));
      }
    } else {
      shards = shard_indices(problem.points(), config_, pool_.thread_count());
    }

    // Each shard solves its own sub-problem and reports up to k centers;
    // results land in per-shard slots so the merged pool order is
    // deterministic regardless of scheduling. The index decision is the
    // whole problem's, taken once: kAuto's size floor would send every
    // shard to the scan, although a coverage ball holds no more of a
    // shard's rows than of the whole problem's.
    const bool index_shards =
        core::kernels::should_index(problem, shared_index_);
    std::vector<geo::PointSet> shard_centers(shards.size(),
                                             geo::PointSet(problem.dim()));
    std::vector<spatial::IndexStats> shard_index(shards.size());
    par::parallel_for(
        pool_, 0, shards.size(),
        [&](std::size_t s) {
          const std::vector<std::size_t>& members = shards[s];
          geo::PointSet points(problem.dim());
          points.reserve(members.size());
          std::vector<double> weights;
          weights.reserve(members.size());
          for (const std::size_t i : members) {
            points.push_back(problem.point(i));
            weights.push_back(problem.weight(i));
          }
          const core::Problem sub(std::move(points), std::move(weights),
                                  problem.radius(), problem.metric(),
                                  problem.reward_shape());
          const std::size_t shard_k =
              std::max<std::size_t>(1, std::min(k, members.size()));
          core::LazyGreedySolver greedy;
          std::unique_ptr<spatial::SpatialIndex> index;
          if (index_shards) {
            index = spatial::make_index(sub.points(), sub.radius(),
                                        sub.metric());
            greedy.set_shared_index(index.get());
          }
          shard_centers[s] = greedy.solve(sub, shard_k).centers;
          if (index != nullptr) shard_index[s] = index->stats();
        },
        /*grain=*/1);
    for (const spatial::IndexStats& stats : shard_index) {
      last_stats_.index += stats;
    }

    for (const geo::PointSet& centers : shard_centers) {
      for (std::size_t j = 0; j < centers.size(); ++j) {
        candidates.push_back(centers[j]);
      }
    }
  }
  last_stats_.shards = shards.size();
  last_stats_.candidate_pool = candidates.size();

  core::Solution sol;
  {
    trace::ScopedSpan span("serve.merge");
    // solve() runs on the caller's thread (never on a pool_ worker), so
    // the merge pass can shard its first-round scan across pool_.
    core::LazyGreedySolver merge(&pool_);
    merge.set_shared_index(shared_index_);
    sol = merge.solve(problem, candidates, k);
    sol.solver_name = name();
  }
  last_candidates_ = std::move(candidates);
  return sol;
}

}  // namespace mmph::serve
