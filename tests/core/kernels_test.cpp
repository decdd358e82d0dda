// Tests for the blocked reward kernels and the coverage evaluator
// (kernels.hpp), each against the per-point reference loop
// (reference_coverage_reward): equivalence across norms, dimensions, reward
// shapes and residual states; ActiveSet semantics on both backends; the
// all-candidates call (the first-round sweep) against per-candidate
// rewards; ParallelEvaluator determinism; and solver identity — the same
// centers as a test-local greedy that scores with the reference loop.

#include "mmph/core/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <string>
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

/// Points on the half-unit lattice of [0, 4]^dim: at radius 0.5, 1 or 1.5
/// many pairs sit at exactly r, every point lies on a grid cell face (the
/// cell side is r), and duplicates are common.
Problem lattice_problem(std::size_t n, std::size_t dim, geo::Metric metric,
                        RewardShape shape, double radius, std::uint64_t seed) {
  rnd::Rng rng(seed);
  geo::PointSet points(dim);
  std::vector<double> row(dim);
  std::vector<double> weights;
  for (std::size_t i = 0; i < n; ++i) {
    for (double& x : row) x = 0.5 * static_cast<double>(rng.uniform_int(0, 8));
    points.push_back(row);
    weights.push_back(static_cast<double>(rng.uniform_int(1, 5)));
  }
  return Problem(std::move(points), std::move(weights), radius, metric, shape);
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

/// Per-point reference commit: y_i -= min(u_i, y_i), one point at a time.
double reference_apply(const Problem& p, geo::ConstVec c,
                       std::span<double> y) {
  double g = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double u = unit_coverage(p, c, i);
    if (u <= 0.0) continue;
    const double z = std::min(u, y[i]);
    y[i] -= z;
    g += p.weight(i) * z;
  }
  return g;
}

/// Algorithm 2 over \p candidates, scored with the reference loop and
/// committed with reference_apply (ties toward the lowest candidate).
Solution reference_greedy(const Problem& p, const geo::PointSet& candidates,
                          std::size_t k) {
  Solution sol;
  sol.centers = geo::PointSet(p.dim());
  sol.residual = fresh_residual(p);
  for (std::size_t round = 0; round < k; ++round) {
    double best = -1.0;
    std::size_t best_c = 0;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const double g =
          reference_coverage_reward(p, candidates[c], sol.residual);
      if (g > best) {
        best = g;
        best_c = c;
      }
    }
    sol.centers.push_back(candidates[best_c]);
    const double g = reference_apply(p, candidates[best_c], sol.residual);
    sol.round_rewards.push_back(g);
    sol.total_reward += g;
  }
  return sol;
}

constexpr kernels::IndexMode kBackends[] = {kernels::IndexMode::kNone,
                                            kernels::IndexMode::kGrid};

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
            const double expect = reference_coverage_reward(p, center, y);
            const double got = coverage_reward(p, center, y);
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
        const double g_blk = apply_center(p, center, y_blk);
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
    EXPECT_NEAR(coverage_reward(p, center, y),
                reference_coverage_reward(p, center, y), 1e-12);
  }
}

// The index-list kernels fed from a grid query, one short span at a time
// (the accumulate-into contract), equal the per-point reference loop over
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
      EXPECT_EQ(cov, reference_coverage_reward(p, center, y_ref));
      EXPECT_EQ(app, reference_apply(p, center, y_ref));
    }
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_EQ(y_index[i], y_ref[i]) << "point " << i;
    }
  }
}

// Both backends: scores and commits equal the reference loop bitwise, the
// residual equals the reference residual, and exhausted points are
// counted out exactly (compaction or masking drops only exact zeros).
TEST(ActiveSet, MatchesFullScanAndCompacts) {
  const Problem p =
      random_problem(500, 2, geo::l2_metric(), RewardShape::kLinear, 61);
  for (const kernels::IndexMode backend : kBackends) {
    const kernels::ScopedIndexMode mode(backend);
    kernels::ActiveSet active(p);
    EXPECT_EQ(active.indexed(), backend == kernels::IndexMode::kGrid);
    std::vector<double> y = fresh_residual(p);
    EXPECT_EQ(active.active_count(), p.size());

    for (std::size_t round = 0; round < 6; ++round) {
      const geo::ConstVec center = p.point(round * 71);
      EXPECT_EQ(active.coverage_reward(center),
                reference_coverage_reward(p, center, y));
      EXPECT_EQ(active.apply_center(center), reference_apply(p, center, y));
    }

    const std::span<const double> residual = active.residual();
    ASSERT_EQ(residual.size(), p.size());
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_EQ(residual[i], y[i]) << "point " << i;
    }
    std::size_t active_in_y = 0;
    for (const double v : y) active_in_y += v > 0.0 ? 1 : 0;
    EXPECT_LT(active_in_y, p.size());
    EXPECT_EQ(active.active_count(), active_in_y);
  }
}

TEST(ActiveSet, ZeroResidualStartsEmpty) {
  const Problem p =
      random_problem(64, 2, geo::l2_metric(), RewardShape::kLinear, 67);
  const std::vector<double> zeros(p.size(), 0.0);
  for (const kernels::IndexMode backend : kBackends) {
    const kernels::ScopedIndexMode mode(backend);
    const kernels::ActiveSet active(p, zeros);
    EXPECT_EQ(active.active_count(), 0u);
    EXPECT_EQ(active.coverage_reward(p.point(0)), 0.0);
    std::vector<std::size_t> scratch;
    EXPECT_TRUE(active.ball(p.point(0), scratch).empty());
    for (const double v : active.residual()) EXPECT_EQ(v, 0.0);
  }
}

TEST(ActiveSet, ExplicitCompactPreservesSums) {
  const Problem p =
      random_problem(300, 3, geo::l1_metric(), RewardShape::kLinear, 71);
  for (const kernels::IndexMode backend : kBackends) {
    const kernels::ScopedIndexMode mode(backend);
    kernels::ActiveSet active(p);
    (void)active.apply_center(p.point(5));
    (void)active.apply_center(p.point(90));
    const double before = active.coverage_reward(p.point(33));
    EXPECT_EQ(before, reference_coverage_reward(p, p.point(33),
                                                active.residual()));
    active.compact();
    EXPECT_EQ(active.coverage_reward(p.point(33)), before);
  }
}

// The ball superset: ascending ids, and every point the reference loop
// rewards at the center (u > 0 and y > 0) is in it.
TEST(ActiveSet, BallIsAscendingSupersetOfRewardedPoints) {
  const Problem p =
      random_problem(400, 2, geo::l2_metric(), RewardShape::kLinear, 73);
  for (const kernels::IndexMode backend : kBackends) {
    const kernels::ScopedIndexMode mode(backend);
    kernels::ActiveSet active(p);
    for (std::size_t round = 0; round < 4; ++round) {
      (void)active.apply_center(p.point(round * 37));
    }
    std::vector<std::size_t> scratch;
    for (std::size_t c = 0; c < 10; ++c) {
      const geo::ConstVec center = p.point(c * 29);
      const std::span<const std::size_t> ball = active.ball(center, scratch);
      EXPECT_TRUE(std::is_sorted(ball.begin(), ball.end()));
      for (std::size_t i = 0; i < p.size(); ++i) {
        if (unit_coverage(p, center, i) <= 0.0 || active.residual()[i] == 0.0)
          continue;
        EXPECT_TRUE(std::binary_search(ball.begin(), ball.end(), i))
            << "point " << i << " missing from the ball";
      }
    }
  }
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
  // Same determinism over the evaluator and over an explicit pool.
  const kernels::ActiveSet active(p);
  const auto active_gain = [&](std::size_t i) {
    return active.coverage_reward(p.point(i));
  };
  const std::vector<double> c = serial.map(p.size(), active_gain);
  const std::vector<double> d = parallel.map(p.size(), active_gain);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_DOUBLE_EQ(c[i], d[i]) << "candidate " << i;
  }
  // The evaluator's all-candidates call, serial against pooled.
  const std::vector<double> e = active.coverage_rewards(p.points());
  const std::vector<double> f =
      active.coverage_rewards(p.points(), &par::ThreadPool::global());
  ASSERT_EQ(e.size(), p.size());
  for (std::size_t i = 0; i < e.size(); ++i) {
    EXPECT_EQ(e[i], f[i]) << "candidate " << i;
    EXPECT_EQ(e[i], c[i]) << "candidate " << i;
  }
}

/// The all-candidates call from residual \p y equals core::coverage_reward
/// per candidate, bitwise, on both backends: the scan maps, the index
/// (the grid, or the kd-tree above kGridMaxDim) sweeps.
void expect_all_candidates_match(const Problem& p, std::span<const double> y,
                                 const std::string& context) {
  for (const kernels::IndexMode backend : kBackends) {
    const kernels::ScopedIndexMode mode(backend);
    const kernels::ActiveSet active(p, y);
    const std::vector<double> all = active.coverage_rewards(p.points());
    ASSERT_EQ(all.size(), p.size()) << context;
    std::size_t mismatches = 0;
    for (std::size_t c = 0; c < p.size(); ++c) {
      const double want = coverage_reward(p, p.point(c), y);
      if (all[c] != want && mismatches++ == 0) {
        ADD_FAILURE() << context << " on " << kernels::index_mode_name(backend)
                      << ": candidate " << c << " got " << all[c]
                      << " want " << want;
      }
    }
    EXPECT_EQ(mismatches, 0u)
        << context << " on " << kernels::index_mode_name(backend);
  }
}

TEST(AllCandidates, MatchPerCandidateRewardsAcrossShapes) {
  const std::vector<geo::Metric> metrics{geo::l1_metric(), geo::l2_metric(),
                                         geo::linf_metric(), geo::Metric(3.0)};
  std::uint64_t seed = 300;
  for (const geo::Metric& metric : metrics) {
    for (std::size_t dim = 1; dim <= 5; ++dim) {
      for (const RewardShape shape :
           {RewardShape::kLinear, RewardShape::kBinary}) {
        for (const double radius : {0.5, 1.0, 1.5}) {
          const std::string context =
              metric.name() + " dim=" + std::to_string(dim) + " " +
              reward_shape_name(shape) + " r=" + std::to_string(radius);
          const Problem uniform =
              random_problem(120, dim, metric, shape, ++seed, radius);
          expect_all_candidates_match(uniform, fresh_residual(uniform),
                                      context + " uniform");
          const Problem lattice =
              lattice_problem(120, dim, metric, shape, radius, seed);
          expect_all_candidates_match(lattice, fresh_residual(lattice),
                                      context + " lattice");
        }
      }
    }
  }
}

TEST(AllCandidates, TinyWeightsMatchBitwise) {
  for (const RewardShape shape : {RewardShape::kLinear, RewardShape::kBinary}) {
    const Problem base = random_problem(300, 2, geo::l2_metric(), shape, 311);
    // Near the bottom of the normal range, and subnormal.
    for (const double scale : {1e-300, 5e-324}) {
      std::vector<double> weights;
      for (std::size_t i = 0; i < base.size(); ++i) {
        weights.push_back(scale * static_cast<double>(1 + i % 7));
      }
      const Problem p(base.points(), std::move(weights), base.radius(),
                      base.metric(), shape);
      expect_all_candidates_match(p, fresh_residual(p),
                                  std::string(reward_shape_name(shape)) +
                                      " scale " + std::to_string(scale));
    }
  }
}

// Rows at exactly 0 are masked out of the index: the sweep skips them as
// rows, and as candidates they are scored by their own query.
TEST(AllCandidates, ResidualWithExactZerosMatchesBitwise) {
  for (const geo::Metric& metric : {geo::l1_metric(), geo::l2_metric()}) {
    const Problem p =
        random_problem(400, 2, metric, RewardShape::kLinear, 313);
    for (const auto& y : residual_cases(p.size())) {
      expect_all_candidates_match(p, y, metric.name() + " pattern");
    }
    std::vector<double> y = fresh_residual(p);
    for (std::size_t round = 0; round < 5; ++round) {
      (void)apply_center(p, p.point(round * 53), y);
    }
    ASSERT_GT(std::count(y.begin(), y.end(), 0.0), 0);
    expect_all_candidates_match(p, y, metric.name() + " mid-solve");

    // The same state reached by the evaluator's own commits, and a
    // candidate set that is a copy of the rows (scored candidate by
    // candidate), pooled.
    const kernels::ScopedIndexMode grid(kernels::IndexMode::kGrid);
    kernels::ActiveSet active(p);
    for (std::size_t round = 0; round < 5; ++round) {
      (void)active.apply_center(p.point(round * 53));
    }
    const geo::PointSet copy = p.points();
    const std::vector<double> swept = active.coverage_rewards(p.points());
    const std::vector<double> mapped =
        active.coverage_rewards(copy, &par::ThreadPool::global());
    for (std::size_t c = 0; c < p.size(); ++c) {
      EXPECT_EQ(swept[c], coverage_reward(p, p.point(c), y)) << c;
      EXPECT_EQ(mapped[c], swept[c]) << c;
    }
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
    const Solution lazy = LazyGreedySolver().solve(p, 6);
    const Solution reference = reference_greedy(p, p.points(), 6);
    expect_identical_centers(lazy, reference);
    EXPECT_NEAR(lazy.total_reward, reference.total_reward, 1e-9);
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_NEAR(lazy.residual[i], reference.residual[i], 1e-12);
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
  Solution indexed;
  {
    kernels::ScopedIndexMode grid(kernels::IndexMode::kGrid);
    indexed = GreedyLocalSolver().solve(p, 5);
  }
  expect_identical_centers(indexed, reference_greedy(p, p.points(), 5));
}

// The sharded solver against the same pipeline rebuilt from the reference
// greedy: each shard's own greedy, the winners pooled in shard order, then
// one greedy over the pool on the full problem.
TEST(SolverIdentity, ShardedSolverSameCentersKernelsOnAndOff) {
  const Problem p =
      random_problem(600, 2, geo::l2_metric(), RewardShape::kLinear, 107);
  serve::ShardedSolverConfig config;
  config.max_shards = 4;
  config.min_shard_size = 32;
  serve::ShardedSolver solver(par::ThreadPool::global(), config);
  const Solution sharded = solver.solve(p, 5);

  geo::PointSet pool(p.dim());
  for (const auto& members : serve::shard_indices(
           p.points(), config, par::ThreadPool::global().thread_count())) {
    geo::PointSet points(p.dim());
    std::vector<double> weights;
    for (const std::size_t i : members) {
      points.push_back(p.point(i));
      weights.push_back(p.weight(i));
    }
    const Problem sub(points, std::move(weights), p.radius(), p.metric(),
                      p.reward_shape());
    const Solution winners =
        reference_greedy(sub, points, std::min<std::size_t>(5, sub.size()));
    for (std::size_t j = 0; j < winners.centers.size(); ++j) {
      pool.push_back(winners.centers[j]);
    }
  }
  const Solution reference = reference_greedy(p, pool, 5);
  expect_identical_centers(sharded, reference);
  EXPECT_NEAR(sharded.total_reward, reference.total_reward, 1e-9);
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

  // Identical work with the first-round scan sharded across the pool.
  const LazyGreedySolver parallel(&par::ThreadPool::global());
  (void)parallel.solve(p, 4);
  EXPECT_EQ(parallel.last_evaluation_count(), baseline);
}

}  // namespace
}  // namespace mmph::core
