// Tests for the blocked reward kernels (kernels.hpp): equivalence with the
// per-point reference path across norms, dimensions, reward shapes and
// residual states; ActiveSet semantics; ParallelEvaluator determinism; and
// solver-identity — the same centers with the blocked path on and off.

#include "mmph/core/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "mmph/core/greedy_local.hpp"
#include "mmph/core/lazy_greedy.hpp"
#include "mmph/core/reward.hpp"
#include "mmph/random/rng.hpp"
#include "mmph/random/workload.hpp"
#include "mmph/serve/sharded_solver.hpp"
#include "mmph/spatial/uniform_grid.hpp"

namespace mmph::core {
namespace {

Problem random_problem(std::size_t n, std::size_t dim, geo::Metric metric,
                       RewardShape shape, std::uint64_t seed,
                       double radius = 1.0) {
  rnd::WorkloadSpec spec;
  spec.n = n;
  spec.dim = dim;
  rnd::Rng rng(seed);
  return Problem::from_workload(rnd::generate_workload(spec, rng), radius,
                                metric, shape);
}

/// Residual states exercised by the equivalence sweeps.
std::vector<std::vector<double>> residual_cases(std::size_t n) {
  std::vector<double> zero(n, 0.0);
  std::vector<double> full(n, 1.0);
  std::vector<double> partial(n);
  for (std::size_t i = 0; i < n; ++i) {
    partial[i] = static_cast<double>(i % 3) / 2.0;  // 0, 0.5, 1, 0, ...
  }
  return {zero, partial, full};
}

double reference_coverage(const Problem& p, geo::ConstVec c,
                          std::span<const double> y) {
  kernels::ScopedBlockedKernels off(false);
  return coverage_reward(p, c, y);
}

double reference_apply(const Problem& p, geo::ConstVec c,
                       std::span<double> y) {
  kernels::ScopedBlockedKernels off(false);
  return apply_center(p, c, y);
}

TEST(BlockKernels, MatchScalarAcrossNormsDimsShapesResiduals) {
  const std::vector<geo::Metric> metrics{geo::l1_metric(), geo::l2_metric(),
                                         geo::linf_metric(), geo::Metric(3.0)};
  for (const geo::Metric& metric : metrics) {
    for (const std::size_t dim : {2u, 3u, 5u}) {
      for (const RewardShape shape :
           {RewardShape::kLinear, RewardShape::kBinary}) {
        const Problem p = random_problem(300, dim, metric, shape, 17);
        for (const auto& y : residual_cases(p.size())) {
          for (std::size_t c = 0; c < 10; ++c) {
            const geo::ConstVec center = p.point(c * 7);
            const double expect = reference_coverage(p, center, y);
            const double got = kernels::block_coverage_reward(p, center, y);
            EXPECT_NEAR(got, expect, 1e-12 * (1.0 + std::fabs(expect)))
                << metric.name() << " dim=" << dim
                << " shape=" << reward_shape_name(shape);
          }
        }
      }
    }
  }
}

TEST(BlockKernels, ApplyMatchesScalarResidualUpdates) {
  const std::vector<geo::Metric> metrics{geo::l1_metric(), geo::l2_metric(),
                                         geo::linf_metric()};
  for (const geo::Metric& metric : metrics) {
    for (const RewardShape shape :
         {RewardShape::kLinear, RewardShape::kBinary}) {
      const Problem p = random_problem(300, 2, metric, shape, 29);
      std::vector<double> y_ref = fresh_residual(p);
      std::vector<double> y_blk = fresh_residual(p);
      for (std::size_t round = 0; round < 4; ++round) {
        const geo::ConstVec center = p.point(round * 31);
        const double g_ref = reference_apply(p, center, y_ref);
        const double g_blk = kernels::block_apply_center(p, center, y_blk);
        EXPECT_NEAR(g_blk, g_ref, 1e-12 * (1.0 + std::fabs(g_ref)));
        for (std::size_t i = 0; i < p.size(); ++i) {
          EXPECT_NEAR(y_blk[i], y_ref[i], 1e-13) << "point " << i;
        }
      }
    }
  }
}

TEST(BlockKernels, LargeBlockCountAndTailHandled) {
  // n spanning several kBlockSize blocks plus a ragged tail.
  const std::size_t n = 3 * kernels::kBlockSize + 37;
  const Problem p =
      random_problem(n, 2, geo::l2_metric(), RewardShape::kLinear, 41);
  const auto y = fresh_residual(p);
  for (std::size_t c = 0; c < 5; ++c) {
    const geo::ConstVec center = p.point(c * 101);
    EXPECT_NEAR(kernels::block_coverage_reward(p, center, y),
                reference_coverage(p, center, y), 1e-12);
  }
}

// The index-list kernels fed from a grid query, one short span at a time
// (the accumulate-into contract), equal the per-point reference path over
// the whole population.
TEST(IndexedKernels, BlockedCellSpansMatchReferencePath) {
  constexpr std::size_t kSpan = 7;
  for (const geo::Metric& metric : {geo::l1_metric(), geo::l2_metric()}) {
    const Problem p =
        random_problem(400, 2, metric, RewardShape::kLinear, 53);
    const spatial::UniformGridIndex grid(p.points(), p.radius());
    auto y_index = fresh_residual(p);
    auto y_ref = fresh_residual(p);
    std::vector<std::size_t> ids;
    for (std::size_t c = 0; c < 8; ++c) {
      const geo::ConstVec center = p.point(c * 13);
      grid.query(center, ids);
      const auto for_each_span = [&](const auto& fn) {
        const std::span<const std::size_t> all(ids);
        for (std::size_t at = 0; at < all.size(); at += kSpan) {
          fn(all.subspan(at, std::min(kSpan, all.size() - at)));
        }
      };
      double cov = 0.0;
      for_each_span([&](std::span<const std::size_t> span) {
        kernels::block_coverage_reward(p, center, y_index, span, cov);
      });
      double app = 0.0;
      for_each_span([&](std::span<const std::size_t> span) {
        kernels::block_apply_center(p, center, y_index, span, app);
      });
      EXPECT_EQ(cov, reference_coverage(p, center, y_ref));
      EXPECT_EQ(app, reference_apply(p, center, y_ref));
    }
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_EQ(y_index[i], y_ref[i]) << "point " << i;
    }
  }
}

TEST(ActiveSet, MatchesFullScanAndCompacts) {
  const Problem p =
      random_problem(500, 2, geo::l2_metric(), RewardShape::kLinear, 61);
  kernels::ActiveSet active(p);
  std::vector<double> y = fresh_residual(p);
  EXPECT_EQ(active.active_count(), p.size());

  for (std::size_t round = 0; round < 6; ++round) {
    const geo::ConstVec center = p.point(round * 71);
    const double expect_cov = kernels::block_coverage_reward(p, center, y);
    EXPECT_DOUBLE_EQ(active.coverage_reward(center), expect_cov);
    const double expect_gain = kernels::block_apply_center(p, center, y);
    EXPECT_DOUBLE_EQ(active.apply_center(center), expect_gain);
  }

  // The active set's exported residual equals the full-vector state.
  std::vector<double> exported(p.size());
  active.export_residual(exported);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_DOUBLE_EQ(exported[i], y[i]) << "point " << i;
  }

  // Exhausted points are dropped from the scan but counted out exactly.
  std::size_t active_in_y = 0;
  for (const double v : y) active_in_y += v > 0.0 ? 1 : 0;
  EXPECT_EQ(active.active_count(), active_in_y);
}

TEST(ActiveSet, ZeroResidualStartsEmpty) {
  const Problem p =
      random_problem(64, 2, geo::l2_metric(), RewardShape::kLinear, 67);
  const std::vector<double> zeros(p.size(), 0.0);
  kernels::ActiveSet active(p, zeros);
  EXPECT_EQ(active.active_count(), 0u);
  EXPECT_EQ(active.scan_size(), 0u);
  EXPECT_DOUBLE_EQ(active.coverage_reward(p.point(0)), 0.0);
  std::vector<double> exported(p.size(), 5.0);
  active.export_residual(exported);
  for (const double v : exported) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(ActiveSet, ExplicitCompactPreservesSums) {
  const Problem p =
      random_problem(300, 3, geo::l1_metric(), RewardShape::kLinear, 71);
  kernels::ActiveSet active(p);
  (void)active.apply_center(p.point(5));
  (void)active.apply_center(p.point(90));
  const double before = active.coverage_reward(p.point(33));
  active.compact();
  EXPECT_DOUBLE_EQ(active.coverage_reward(p.point(33)), before);
}

TEST(ParallelEvaluator, PoolAndSerialGainsAreIdentical) {
  const Problem p =
      random_problem(400, 2, geo::l2_metric(), RewardShape::kLinear, 83);
  const auto y = fresh_residual(p);
  const kernels::ParallelEvaluator serial(nullptr);
  const kernels::ParallelEvaluator parallel(&par::ThreadPool::global());
  const auto scalar_gain = [&](std::size_t i) {
    return coverage_reward(p, p.point(i), y);
  };
  const std::vector<double> a = serial.map(p.size(), scalar_gain);
  const std::vector<double> b = parallel.map(p.size(), scalar_gain);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]) << "candidate " << i;
  }
  // Same determinism over an active set and over an explicit pool.
  const kernels::ActiveSet active(p);
  const auto active_gain = [&](std::size_t i) {
    return active.coverage_reward(p.point(i));
  };
  const std::vector<double> c = serial.map(p.size(), active_gain);
  const std::vector<double> d = parallel.map(p.size(), active_gain);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_DOUBLE_EQ(c[i], d[i]) << "candidate " << i;
  }
  const std::vector<double> e = serial.pool_gains(p, p.points(), y);
  const std::vector<double> f = parallel.pool_gains(p, p.points(), y);
  for (std::size_t i = 0; i < e.size(); ++i) {
    EXPECT_DOUBLE_EQ(e[i], f[i]) << "candidate " << i;
  }
}

/// Asserts both solutions picked exactly the same center coordinates.
void expect_identical_centers(const Solution& a, const Solution& b) {
  ASSERT_EQ(a.centers.size(), b.centers.size());
  for (std::size_t j = 0; j < a.centers.size(); ++j) {
    for (std::size_t d = 0; d < a.centers.dim(); ++d) {
      EXPECT_DOUBLE_EQ(a.centers[j][d], b.centers[j][d])
          << "center " << j << " dim " << d;
    }
  }
}

TEST(SolverIdentity, LazyGreedySameCentersKernelsOnAndOff) {
  for (const geo::Metric& metric : {geo::l1_metric(), geo::l2_metric()}) {
    const Problem p =
        random_problem(250, 2, metric, RewardShape::kLinear, 97);
    Solution on, off;
    {
      kernels::ScopedBlockedKernels guard(true);
      on = LazyGreedySolver().solve(p, 6);
    }
    {
      kernels::ScopedBlockedKernels guard(false);
      off = LazyGreedySolver().solve(p, 6);
    }
    expect_identical_centers(on, off);
    EXPECT_NEAR(on.total_reward, off.total_reward, 1e-9);
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_NEAR(on.residual[i], off.residual[i], 1e-12);
    }
  }
}

TEST(SolverIdentity, LazyGreedyParallelInitSameCenters) {
  const Problem p =
      random_problem(300, 2, geo::l2_metric(), RewardShape::kLinear, 101);
  const Solution serial = LazyGreedySolver().solve(p, 5);
  const Solution parallel =
      LazyGreedySolver(&par::ThreadPool::global()).solve(p, 5);
  expect_identical_centers(serial, parallel);
  EXPECT_DOUBLE_EQ(serial.total_reward, parallel.total_reward);
}

TEST(SolverIdentity, IndexedGreedySameCentersKernelsOnAndOff) {
  const Problem p =
      random_problem(250, 2, geo::l2_metric(), RewardShape::kLinear, 103);
  Solution indexed, reference;
  {
    kernels::ScopedIndexMode grid(kernels::IndexMode::kGrid);
    indexed = GreedyLocalSolver().solve(p, 5);
  }
  {
    kernels::ScopedIndexMode none(kernels::IndexMode::kNone);
    kernels::ScopedBlockedKernels scalar(false);
    reference = GreedyLocalSolver().solve(p, 5);
  }
  expect_identical_centers(indexed, reference);
}

TEST(SolverIdentity, ShardedSolverSameCentersKernelsOnAndOff) {
  const Problem p =
      random_problem(600, 2, geo::l2_metric(), RewardShape::kLinear, 107);
  serve::ShardedSolverConfig config;
  config.max_shards = 4;
  config.min_shard_size = 32;
  serve::ShardedSolver solver(par::ThreadPool::global(), config);
  Solution on, off;
  {
    kernels::ScopedBlockedKernels guard(true);
    on = solver.solve(p, 5);
  }
  {
    kernels::ScopedBlockedKernels guard(false);
    off = solver.solve(p, 5);
  }
  expect_identical_centers(on, off);
  EXPECT_NEAR(on.total_reward, off.total_reward, 1e-9);
}

TEST(EvaluationCount, StableAcrossKernelAndParallelPaths) {
  const Problem p =
      random_problem(200, 2, geo::l2_metric(), RewardShape::kLinear, 109);
  const LazyGreedySolver serial;
  (void)serial.solve(p, 4);
  const std::size_t baseline = serial.last_evaluation_count();
  // The first-round scan alone is n evaluations; laziness keeps the rest
  // far below a full k*n rescan.
  EXPECT_GE(baseline, p.size());
  EXPECT_LT(baseline, 4 * p.size());

  // Identical work with the blocked path off (same heap trajectory)...
  {
    kernels::ScopedBlockedKernels guard(false);
    const LazyGreedySolver reference;
    (void)reference.solve(p, 4);
    EXPECT_EQ(reference.last_evaluation_count(), baseline);
  }
  // ...and with the first-round scan sharded across the pool.
  const LazyGreedySolver parallel(&par::ThreadPool::global());
  (void)parallel.solve(p, 4);
  EXPECT_EQ(parallel.last_evaluation_count(), baseline);
}

}  // namespace
}  // namespace mmph::core
