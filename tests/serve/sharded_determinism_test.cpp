// ShardedSolver determinism across worker counts: with the shard budget
// pinned (auto mode scales shards with the worker count, changing the
// partition itself), the same seeded instance solved on pools of 1, 2,
// and 8 threads must produce the same centers and objective bit-for-bit.
// The sharded pipeline was designed for this (deterministic median
// splits, per-slot result slots, ordered merges); this golden test pins
// it so a future "optimization" that introduces scheduling-order
// dependence is caught immediately. A second test pins the multi-shard
// split-and-merge outputs themselves against a digest of an earlier build.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <ios>
#include <string>
#include <vector>

#include "mmph/core/kernels.hpp"
#include "mmph/core/problem.hpp"
#include "mmph/geometry/norms.hpp"
#include "mmph/parallel/thread_pool.hpp"
#include "mmph/random/workload.hpp"
#include "mmph/serve/sharded_solver.hpp"
#include "mmph/spatial/uniform_grid.hpp"

namespace mmph::serve {
namespace {

void expect_identical(const core::Solution& got, const core::Solution& want,
                      const std::string& context) {
  ASSERT_EQ(got.centers.size(), want.centers.size()) << context;
  EXPECT_EQ(got.total_reward, want.total_reward) << context;  // bitwise
  for (std::size_t c = 0; c < got.centers.size(); ++c) {
    for (std::size_t d = 0; d < got.centers.dim(); ++d) {
      EXPECT_EQ(got.centers[c][d], want.centers[c][d])
          << context << " center " << c << " coord " << d;
    }
  }
}

TEST(ShardedDeterminism, IdenticalAcrossThreadCounts) {
  // Large enough that the solver actually shards (several multiples of
  // min_shard_size), across both paper metrics and weight schemes.
  const struct {
    std::uint64_t seed;
    std::size_t n;
    std::size_t k;
    geo::Metric metric;
    rnd::WeightScheme weights;
  } cases[] = {
      {11, 300, 6, geo::l2_metric(), rnd::WeightScheme::kUniformInt},
      {12, 512, 8, geo::l1_metric(), rnd::WeightScheme::kSame},
      {13, 700, 5, geo::l2_metric(), rnd::WeightScheme::kZipf},
  };

  for (const auto& c : cases) {
    rnd::WorkloadSpec spec;
    spec.n = c.n;
    spec.weights = c.weights;
    rnd::Rng rng(c.seed);
    const core::Problem problem = core::Problem::from_workload(
        rnd::generate_workload(spec, rng), 1.0, c.metric);

    ShardedSolverConfig shard_config;
    shard_config.max_shards = 5;  // fixed partition across pool sizes

    par::ThreadPool pool1(1);
    const core::Solution baseline =
        ShardedSolver(pool1, shard_config).solve(problem, c.k);
    ASSERT_EQ(baseline.centers.size(), c.k);

    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      par::ThreadPool pool(threads);
      const core::Solution got =
          ShardedSolver(pool, shard_config).solve(problem, c.k);
      expect_identical(got, baseline,
                       "seed=" + std::to_string(c.seed) + " threads=" +
                           std::to_string(threads));
    }

    // Same pool, repeated solve: no hidden state between runs.
    const core::Solution again =
        ShardedSolver(pool1, shard_config).solve(problem, c.k);
    expect_identical(again, baseline,
                     "seed=" + std::to_string(c.seed) + " repeat");
  }
}

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      fnv_ ^= (v >> (8 * i)) & 0xFF;
      fnv_ *= 1099511628211ull;
    }
  }
  void mix(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    mix(bits);
  }
  void mix(const geo::PointSet& points) {
    mix(static_cast<std::uint64_t>(points.size()));
    for (std::size_t i = 0; i < points.size(); ++i) {
      for (std::size_t d = 0; d < points.dim(); ++d) mix(points[i][d]);
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return fnv_; }

 private:
  std::uint64_t fnv_ = 1469598103934665603ull;
};

// Digest of the multi-shard solves below (total, round rewards, centers,
// residuals, shard count and merged candidate pool), computed against the
// build whose merge pass was a hand-written pool lazy greedy.
constexpr std::uint64_t kMultiShardDigest = 0xbf35ddc8dc10648bull;

TEST(ShardedDeterminism, MultiShardMergeDigestIsPinned) {
  struct Instance {
    std::size_t n;
    double box_side;
    std::vector<std::size_t> ks;
  };
  // The paper box at two sizes, plus one instance at about 10 users per
  // unit², where the radius index prunes each evaluation to a ball.
  const Instance instances[] = {
      {300, 4.0, {4, 8}},
      {900, 4.0, {4, 8}},
      {5000, std::sqrt(500.0), {8}},
  };
  const geo::Metric metrics[] = {geo::l1_metric(), geo::l2_metric()};
  const core::kernels::IndexMode modes[] = {core::kernels::IndexMode::kNone,
                                            core::kernels::IndexMode::kGrid,
                                            core::kernels::IndexMode::kAuto};
  // The auto shard budget follows the worker count; pin it.
  par::ThreadPool pool(4);

  Digest digest;
  std::uint64_t seed = 0;
  for (const Instance& instance : instances) {
    for (const geo::Metric& metric : metrics) {
      rnd::WorkloadSpec spec;
      spec.n = instance.n;
      spec.box_side = instance.box_side;
      rnd::Rng rng(++seed);
      const core::Problem problem = core::Problem::from_workload(
          rnd::generate_workload(spec, rng), 1.0, metric);
      spatial::UniformGridIndex grid(problem.points(), problem.radius());
      for (const std::size_t max_shards : {std::size_t{5}, std::size_t{0}}) {
        ShardedSolverConfig config;
        config.max_shards = max_shards;
        for (const core::kernels::IndexMode mode : modes) {
          const core::kernels::ScopedIndexMode scoped(mode);
          for (const bool lend : {false, true}) {
            ShardedSolver solver(pool, config);
            if (lend) solver.set_shared_index(&grid);
            for (const std::size_t k : instance.ks) {
              const core::Solution sol = solver.solve(problem, k);
              ASSERT_EQ(sol.centers.size(), k);
              EXPECT_GT(solver.last_stats().shards, 1u);
              digest.mix(sol.total_reward);
              for (const double g : sol.round_rewards) digest.mix(g);
              digest.mix(sol.centers);
              for (const double y : sol.residual) digest.mix(y);
              digest.mix(
                  static_cast<std::uint64_t>(solver.last_stats().shards));
              digest.mix(solver.last_candidates());
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(digest.value(), kMultiShardDigest)
      << "got 0x" << std::hex << digest.value();
}

}  // namespace
}  // namespace mmph::serve
