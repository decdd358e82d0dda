// Indexed-vs-unindexed differential sweep: the spatial coverage index is
// an acceleration, never an approximation. Over the same ~210-instance
// seeded corpus as core/differential_test.cpp, every greedy that evaluates
// through kernels::ActiveSet (greedy1, greedy1+polish, greedy2, greedy3,
// greedy4 under both L1 center rules, lazy, stochastic, sharded) must
// produce *bit-identical* solutions under IndexMode::kGrid and
// IndexMode::kNone — the index returns an ascending superset of the
// coverage ball and out-of-ball terms contribute exact +0.0, so sums
// associate identically. Also pins the kd-tree fallback
// (dim > kGridMaxDim), the kAuto threshold, and the index backend's
// coverage/apply against the plain reward kernels.

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mmph/core/greedy_complex.hpp"
#include "mmph/core/greedy_local.hpp"
#include "mmph/core/greedy_simple.hpp"
#include "mmph/core/kernels.hpp"
#include "mmph/core/lazy_greedy.hpp"
#include "mmph/core/objective.hpp"
#include "mmph/core/problem.hpp"
#include "mmph/core/reward.hpp"
#include "mmph/core/round_based.hpp"
#include "mmph/core/round_polish.hpp"
#include "mmph/core/solution.hpp"
#include "mmph/core/stochastic_greedy.hpp"
#include "mmph/geometry/norms.hpp"
#include "mmph/parallel/thread_pool.hpp"
#include "mmph/random/workload.hpp"
#include "mmph/serve/sharded_solver.hpp"
#include "mmph/spatial/spatial_index.hpp"
#include "mmph/support/error.hpp"

namespace mmph::core {
namespace {

void expect_identical(const Solution& got, const Solution& want,
                      const std::string& context) {
  ASSERT_EQ(got.centers.size(), want.centers.size()) << context;
  ASSERT_EQ(got.centers.dim(), want.centers.dim()) << context;
  EXPECT_EQ(got.total_reward, want.total_reward) << context;  // bitwise
  for (std::size_t c = 0; c < got.centers.size(); ++c) {
    for (std::size_t d = 0; d < got.centers.dim(); ++d) {
      EXPECT_EQ(got.centers[c][d], want.centers[c][d])
          << context << " center " << c << " coord " << d;
    }
  }
}

template <typename SolveFn>
void expect_index_invisible(SolveFn&& solve, const std::string& context) {
  Solution plain, indexed;
  {
    const kernels::ScopedIndexMode off(kernels::IndexMode::kNone);
    plain = solve();
  }
  {
    const kernels::ScopedIndexMode on(kernels::IndexMode::kGrid);
    indexed = solve();
  }
  expect_identical(indexed, plain, context);
}

struct Variant {
  std::size_t dim;
  geo::Metric metric;
  rnd::WeightScheme weights;
  const char* label;
};

TEST(IndexedSolver, GridIndexIsBitInvisibleAcrossCorpus) {
  const Variant variants[] = {
      {2, geo::l2_metric(), rnd::WeightScheme::kSame, "2d-l2-unweighted"},
      {2, geo::l1_metric(), rnd::WeightScheme::kUniformInt, "2d-l1-weighted"},
      {3, geo::l2_metric(), rnd::WeightScheme::kUniformInt, "3d-l2-weighted"},
      {3, geo::l1_metric(), rnd::WeightScheme::kSame, "3d-l1-unweighted"},
  };
  par::ThreadPool pool(2);
  const serve::ShardedSolver sharded(pool, serve::ShardedSolverConfig{});
  const GreedyLocalSolver greedy2;
  const GreedySimpleSolver greedy3;
  const GreedyComplexSolver greedy4(geo::L1CenterRule::kPaperProjection);
  const GreedyComplexSolver greedy4_exact(geo::L1CenterRule::kExactIfPossible);
  const LazyGreedySolver lazy;
  const StochasticGreedySolver stochastic(0.2, 2011);

  int instances = 0;
  for (std::uint64_t seed = 1; seed <= 70; ++seed) {
    const Variant& variant = variants[seed % 4];
    rnd::WorkloadSpec spec;
    spec.n = 6 + seed % 7;  // 6..12
    spec.dim = variant.dim;
    spec.weights = variant.weights;
    rnd::Rng rng(seed);
    const Problem problem = Problem::from_workload(
        rnd::generate_workload(spec, rng), 1.0, variant.metric);
    // The registry's default pitch: grid over the box unioned with points.
    const RoundBasedSolver greedy1 = RoundBasedSolver::over_grid(problem, 0.5);
    const PolishedRoundSolver greedy1_polish =
        PolishedRoundSolver::over_grid(problem, 0.5);

    for (const std::size_t k : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}}) {
      if (k > spec.n) continue;
      ++instances;
      const std::string context = "seed=" + std::to_string(seed) + " " +
                                  variant.label + " n=" +
                                  std::to_string(spec.n) + " k=" +
                                  std::to_string(k);

      expect_index_invisible(
          [&] { return greedy1.solve(problem, k); }, context + " greedy1");
      expect_index_invisible(
          [&] { return greedy1_polish.solve(problem, k); },
          context + " greedy1+polish");
      expect_index_invisible(
          [&] { return greedy2.solve(problem, k); }, context + " greedy2");
      expect_index_invisible(
          [&] { return greedy3.solve(problem, k); }, context + " greedy3");
      expect_index_invisible(
          [&] { return greedy4.solve(problem, k); }, context + " greedy4");
      expect_index_invisible(
          [&] { return greedy4_exact.solve(problem, k); },
          context + " greedy4-l1-exact");
      expect_index_invisible(
          [&] { return lazy.solve(problem, k); }, context + " lazy");
      expect_index_invisible(
          [&] { return stochastic.solve(problem, k); },
          context + " stochastic");
      expect_index_invisible(
          [&] { return sharded.solve(problem, k); }, context + " sharded");
    }
  }
  EXPECT_GE(instances, 200) << "sweep shrank — differential coverage lost";
}

/// Above kGridMaxDim the kGrid request silently falls back to the kd-tree
/// index; that path must be just as invisible.
TEST(IndexedSolver, KdFallbackIsBitInvisibleHighDim) {
  rnd::WorkloadSpec spec;
  spec.n = 48;
  spec.dim = spatial::kGridMaxDim + 2;
  spec.weights = rnd::WeightScheme::kUniformInt;
  rnd::Rng rng(77);
  const Problem problem = Problem::from_workload(
      rnd::generate_workload(spec, rng), 1.0, geo::l2_metric());

  const LazyGreedySolver lazy;
  const GreedyLocalSolver greedy2;
  const GreedyComplexSolver greedy4;
  expect_index_invisible([&] { return lazy.solve(problem, 4); },
                         "high-dim lazy");
  expect_index_invisible([&] { return greedy2.solve(problem, 4); },
                         "high-dim greedy2");
  expect_index_invisible([&] { return greedy4.solve(problem, 4); },
                         "high-dim greedy4");
}

/// kAuto must engage the index at kAutoIndexMinPoints (given a sparse
/// enough box — see the density-guard test below) and stay invisible; the
/// kAuto result must also match an explicit kGrid solve bit-for-bit.
TEST(IndexedSolver, AutoModeEngagesAtThresholdAndStaysInvisible) {
  rnd::WorkloadSpec spec;
  spec.n = kernels::kAutoIndexMinPoints;  // exactly at the threshold
  spec.dim = 2;
  spec.box_side = 64.0;  // sparse: a radius-1 query box is ~0.2% of this
  rnd::Rng rng(9001);
  const Problem problem = Problem::from_workload(
      rnd::generate_workload(spec, rng), 1.0, geo::l2_metric());
  const LazyGreedySolver lazy;

  Solution plain, grid, automatic;
  {
    const kernels::ScopedIndexMode off(kernels::IndexMode::kNone);
    plain = lazy.solve(problem, 4);
  }
  {
    const kernels::ScopedIndexMode on(kernels::IndexMode::kGrid);
    grid = lazy.solve(problem, 4);
  }
  {
    const kernels::ScopedIndexMode automode(kernels::IndexMode::kAuto);
    automatic = lazy.solve(problem, 4);
  }
  expect_identical(grid, plain, "kAuto-threshold grid-vs-plain");
  expect_identical(automatic, grid, "kAuto-threshold auto-vs-grid");
  EXPECT_TRUE(kernels::auto_index_profitable(problem));
}

/// The kAuto density guard: when coverage balls rival the whole box, a
/// query gathers (and merges) most of the population and the full scan is
/// cheaper — kAuto must decline to index such workloads, while an explicit
/// kGrid still forces the index (the differential corpus relies on that).
TEST(IndexedSolver, AutoDensityGuardSkipsDenseBoxes) {
  rnd::WorkloadSpec spec;
  spec.n = kernels::kAutoIndexMinPoints;
  spec.dim = 2;
  spec.box_side = 4.0;  // radius-1 query box spans (3/4)^2 = 56% of it
  rnd::Rng rng(42);
  const Problem dense = Problem::from_workload(
      rnd::generate_workload(spec, rng), 1.0, geo::l2_metric());
  EXPECT_FALSE(kernels::auto_index_profitable(dense));
  {
    const kernels::ScopedIndexMode automode(kernels::IndexMode::kAuto);
    EXPECT_FALSE(kernels::ActiveSet(dense).indexed());
  }
  {
    const kernels::ScopedIndexMode force(kernels::IndexMode::kGrid);
    EXPECT_TRUE(kernels::ActiveSet(dense).indexed());
  }

  spec.box_side = 64.0;  // same population spread thin: ~0.2% per query
  rnd::Rng sparse_rng(42);
  const Problem sparse = Problem::from_workload(
      rnd::generate_workload(spec, sparse_rng), 1.0, geo::l2_metric());
  EXPECT_TRUE(kernels::auto_index_profitable(sparse));
  {
    const kernels::ScopedIndexMode automode(kernels::IndexMode::kAuto);
    EXPECT_TRUE(kernels::ActiveSet(sparse).indexed());
  }
}

TEST(IndexedSolver, ParseAndNameRoundTrip) {
  using kernels::IndexMode;
  EXPECT_EQ(kernels::parse_index_mode("none"), IndexMode::kNone);
  EXPECT_EQ(kernels::parse_index_mode("grid"), IndexMode::kGrid);
  EXPECT_EQ(kernels::parse_index_mode("auto"), IndexMode::kAuto);
  EXPECT_FALSE(kernels::parse_index_mode("octree").has_value());
  for (const IndexMode mode :
       {IndexMode::kNone, IndexMode::kGrid, IndexMode::kAuto}) {
    EXPECT_EQ(kernels::parse_index_mode(kernels::index_mode_name(mode)), mode);
  }
}

Problem random_problem(std::size_t n, std::size_t dim, double radius,
                       geo::Metric metric, std::uint64_t seed) {
  rnd::WorkloadSpec spec;
  spec.n = n;
  spec.dim = dim;
  rnd::Rng rng(seed);
  return Problem::from_workload(rnd::generate_workload(spec, rng), radius,
                                metric);
}

/// An evaluator forced onto the index backend (fresh residual 1).
std::unique_ptr<kernels::ActiveSet> indexed_set(const Problem& p) {
  const kernels::ScopedIndexMode grid(kernels::IndexMode::kGrid);
  auto active = std::make_unique<kernels::ActiveSet>(p);
  EXPECT_TRUE(active->indexed());
  return active;
}

TEST(IndexedReward, CoverageMatchesPlainKernel) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Problem p = random_problem(60, 2, 1.0, geo::l2_metric(), seed);
    const auto active = indexed_set(p);
    const auto y = fresh_residual(p);
    rnd::Rng rng(seed + 100);
    for (int trial = 0; trial < 30; ++trial) {
      const std::vector<double> c{rng.uniform(0.0, 4.0),
                                  rng.uniform(0.0, 4.0)};
      EXPECT_EQ(active->coverage_reward(c), coverage_reward(p, c, y));
    }
  }
}

TEST(IndexedReward, CoverageMatchesUnderL1AndLinf) {
  for (geo::Metric metric : {geo::l1_metric(), geo::linf_metric()}) {
    const Problem p = random_problem(50, 3, 1.5, metric, 7);
    const auto active = indexed_set(p);
    const auto y = fresh_residual(p);
    rnd::Rng rng(8);
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<double> c(3);
      for (auto& v : c) v = rng.uniform(0.0, 4.0);
      EXPECT_EQ(active->coverage_reward(c), coverage_reward(p, c, y));
    }
  }
}

TEST(IndexedReward, ApplyMatchesPlainKernel) {
  const Problem p = random_problem(40, 2, 1.0, geo::l2_metric(), 9);
  const auto active = indexed_set(p);
  auto y_plain = fresh_residual(p);
  rnd::Rng rng(10);
  for (int round = 0; round < 5; ++round) {
    const std::vector<double> c{rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)};
    EXPECT_EQ(active->apply_center(c), apply_center(p, c, y_plain));
    const std::span<const double> y_indexed = active->residual();
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_EQ(y_indexed[i], y_plain[i]) << "round " << round << " point "
                                          << i;
    }
  }
}

TEST(IndexedReward, PartialResidualsHandled) {
  const Problem p = random_problem(30, 2, 1.5, geo::l2_metric(), 11);
  const auto active = indexed_set(p);
  auto y = fresh_residual(p);
  // Overlapping commits leave a mix of full, partial and exhausted rows;
  // exhausted rows are masked out of the index.
  for (const std::vector<double>& c :
       {std::vector<double>{1.5, 1.5}, std::vector<double>{2.5, 2.0}}) {
    (void)active->apply_center(c);
    (void)apply_center(p, c, y);
  }
  const std::vector<double> c{2.0, 2.0};
  EXPECT_EQ(active->coverage_reward(c), coverage_reward(p, c, y));
}

TEST(IndexedGreedy, RejectsZeroK) {
  const Problem p = random_problem(5, 2, 1.0, geo::l2_metric(), 13);
  const kernels::ScopedIndexMode grid(kernels::IndexMode::kGrid);
  EXPECT_THROW((void)GreedyLocalSolver().solve(p, 0), InvalidArgument);
}

TEST(IndexedGreedy, MatchesPlainGreedy2) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Problem p = random_problem(50, 2, 1.0, geo::l2_metric(), seed);
    expect_index_invisible([&] { return GreedyLocalSolver().solve(p, 4); },
                           "seed " + std::to_string(seed));
  }
}

TEST(IndexedGreedy, SolutionAccountingConsistent) {
  const Problem p = random_problem(40, 3, 1.5, geo::l1_metric(), 14);
  const kernels::ScopedIndexMode grid(kernels::IndexMode::kGrid);
  const Solution s = GreedyLocalSolver().solve(p, 3);
  EXPECT_NEAR(s.total_reward, objective_value(p, s.centers), 1e-9);
  double sum = 0.0;
  for (double g : s.round_rewards) sum += g;
  EXPECT_NEAR(sum, s.total_reward, 1e-12);
}

TEST(IndexedGreedyComplex, MatchesPlainGreedy4) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Problem p = random_problem(40, 2, 1.0, geo::l2_metric(), seed);
    expect_index_invisible([&] { return GreedyComplexSolver().solve(p, 4); },
                           "seed " + std::to_string(seed));
  }
}

TEST(IndexedGreedyComplex, MatchesPlainUnderL1In3D) {
  const Problem p = random_problem(30, 3, 1.5, geo::l1_metric(), 21);
  expect_index_invisible([&] { return GreedyComplexSolver().solve(p, 3); },
                         "3-D L1");
}

TEST(IndexedGreedyComplex, AccountingConsistent) {
  const Problem p = random_problem(25, 2, 1.0, geo::l2_metric(), 22);
  const kernels::ScopedIndexMode grid(kernels::IndexMode::kGrid);
  const Solution s = GreedyComplexSolver().solve(p, 3);
  EXPECT_NEAR(s.total_reward, objective_value(p, s.centers), 1e-9);
  EXPECT_THROW((void)GreedyComplexSolver().solve(p, 0), InvalidArgument);
}

}  // namespace
}  // namespace mmph::core
