// Solver quality tier (ctest label: quality). On the same 210-instance
// differential corpus as core/differential_test.cpp, this pins the chain
//
//     exhaustive >= ls >= lazy >= Thm-2 floor      and      ls <= bound
//
// with certified upper bounds standing in for the optimum, plus bitwise
// reproducibility of the polish. A 100-seed sweep at sizes where
// exhaustive cannot run extends the bound + determinism invariants to the
// regime the quality tier exists for.
//
// Two empirical facts about this corpus, pinned deliberately:
//
//   - `ls == exhaustive` on 209 of the 210 instances. The one exception
//     (seed 60, 2d-l2-unweighted, k=3) is a genuine 1-swap local optimum:
//     the lazy seed (5.48520806482909...) admits no improving single swap,
//     while the optimum (5.56078588108930...) needs a coordinated 2-swap.
//     A monotone polish cannot cross that valley, so the tier asserts
//     equality with an allowance of at most one mismatch, never worse than
//     a few percent.
//   - greedy may re-select an already chosen point (profitably re-covering
//     its partially served neighbors), i.e. it optimizes over center
//     multisets; the certified bounds cover that multiset optimum, which
//     is why `ls <= bound` must hold even where ls touches the distinct-
//     subset exhaustive value.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "mmph/core/exhaustive.hpp"
#include "mmph/core/lazy_greedy.hpp"
#include "mmph/core/local_search.hpp"
#include "mmph/core/objective.hpp"
#include "mmph/core/reward.hpp"
#include "mmph/ls/bounds.hpp"
#include "mmph/random/workload.hpp"

namespace mmph::ls {
namespace {

struct Variant {
  std::size_t dim;
  geo::Metric metric;
  rnd::WeightScheme weights;
  const char* label;
};

/// Theorem 2: greedy achieves at least (1 - (1 - 1/n)^k) * OPT.
double theorem2_ratio(std::size_t n, std::size_t k) {
  return 1.0 - std::pow(1.0 - 1.0 / static_cast<double>(n),
                        static_cast<double>(k));
}

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

TEST(QualityTier, ExhaustiveLsLazyFloorChainOnDifferentialCorpus) {
  const Variant variants[] = {
      {2, geo::l2_metric(), rnd::WeightScheme::kSame, "2d-l2-unweighted"},
      {2, geo::l1_metric(), rnd::WeightScheme::kUniformInt, "2d-l1-weighted"},
      {3, geo::l2_metric(), rnd::WeightScheme::kUniformInt, "3d-l2-weighted"},
      {3, geo::l1_metric(), rnd::WeightScheme::kSame, "3d-l1-unweighted"},
  };
  const core::LazyGreedySolver lazy_solver;

  int instances = 0;
  int optimal_matches = 0;
  std::vector<std::string> mismatches;
  for (std::uint64_t seed = 1; seed <= 70; ++seed) {
    const Variant& variant = variants[seed % 4];
    rnd::WorkloadSpec spec;
    spec.n = 6 + seed % 7;  // 6..12
    spec.dim = variant.dim;
    spec.weights = variant.weights;
    rnd::Rng rng(seed);
    const core::Problem problem = core::Problem::from_workload(
        rnd::generate_workload(spec, rng), 1.0, variant.metric);

    for (const std::size_t k :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
      ++instances;
      const std::string context = "seed=" + std::to_string(seed) + " " +
                                  variant.label + " n=" +
                                  std::to_string(spec.n) + " k=" +
                                  std::to_string(k);

      const double optimum =
          core::ExhaustiveSolver::over_points(problem).solve(problem, k)
              .total_reward;
      const double slack = 1e-9 * std::max(1.0, optimum);

      const core::Solution lazy = lazy_solver.solve(problem, k);
      core::LsStats stats;
      const core::Solution polished =
          core::polish(problem, lazy, problem.points(), {}, &stats);
      const UpperBounds bounds =
          certified_upper_bounds(problem, k, lazy, problem.points());

      // The chain. `ls >= lazy` is structural (polish returns the seed
      // verbatim unless strictly better), so no slack on that link.
      EXPECT_LE(polished.total_reward, optimum + slack)
          << context << " ls above the point-restricted optimum";
      EXPECT_GE(polished.total_reward, lazy.total_reward) << context;
      EXPECT_GE(lazy.total_reward,
                theorem2_ratio(spec.n, k) * optimum - slack)
          << context << " lazy under the Theorem 2 floor";

      // Certified ceiling, valid at any n.
      EXPECT_LE(polished.total_reward, bounds.best() + slack)
          << context << " ls above its certified upper bound";
      EXPECT_LE(optimum, bounds.best() + slack)
          << context << " bound does not certify the optimum";

      // Bitwise reproducibility of the whole polish.
      const core::Solution again =
          core::polish(problem, lazy, problem.points());
      expect_identical(polished, again, context + " re-run");

      if (polished.total_reward >= optimum - slack) {
        ++optimal_matches;
      } else {
        mismatches.push_back(context);
      }

      // Exact accounting survived the polish.
      EXPECT_NEAR(polished.total_reward,
                  core::objective_value(problem, polished.centers), 1e-9)
          << context;
    }
  }
  EXPECT_GE(instances, 210) << "corpus shrank — quality coverage lost";
  // 209/210 today (the seed-60 local optimum above); any second mismatch
  // means the polish regressed.
  EXPECT_GE(optimal_matches, instances - 1) << [&] {
    std::string all = "ls missed the optimum on:";
    for (const std::string& m : mismatches) all += "\n  " + m;
    return all;
  }();
}

TEST(QualityTier, HundredSeedDeterminismAndBoundSweepBeyondExhaustive) {
  // n = 150..400: far past what ExhaustiveSolver can enumerate, which is
  // exactly where the certified bound is the only available oracle. Poor
  // seeds (the first k points) force real move sequences through the
  // delta evaluator on every instance.
  const core::LazyGreedySolver lazy_solver;
  int improved = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    rnd::WorkloadSpec spec;
    spec.n = 150 + (seed * 37) % 251;
    spec.dim = 2 + seed % 2;
    spec.weights =
        seed % 3 == 0 ? rnd::WeightScheme::kSame : rnd::WeightScheme::kZipf;
    rnd::Rng rng(seed);
    const core::Problem problem = core::Problem::from_workload(
        rnd::generate_workload(spec, rng), 1.0, geo::l2_metric());
    const std::size_t k = 3 + seed % 4;
    const std::string context = "seed=" + std::to_string(seed) + " n=" +
                                std::to_string(spec.n) + " k=" +
                                std::to_string(k);

    core::Solution poor;
    poor.solver_name = "seed";
    poor.centers = geo::PointSet(problem.dim());
    for (std::size_t j = 0; j < k; ++j) {
      poor.centers.push_back(problem.points()[j]);
    }
    std::vector<double> residual = core::fresh_residual(problem);
    for (std::size_t j = 0; j < k; ++j) {
      const double g =
          core::apply_center(problem, poor.centers[j], residual);
      poor.round_rewards.push_back(g);
      poor.total_reward += g;
    }

    core::LsConfig config;
    config.tabu_tenure = seed % 2 == 0 ? 0 : 3;  // alternate both modes
    config.seed = seed;
    core::LsStats stats;
    const core::Solution a =
        core::polish(problem, poor, problem.points(), config, &stats);
    const core::Solution b =
        core::polish(problem, poor, problem.points(), config);
    expect_identical(a, b, context + " determinism");
    EXPECT_GE(a.total_reward, poor.total_reward) << context;
    if (stats.improved) ++improved;

    const core::Solution lazy = lazy_solver.solve(problem, k);
    const UpperBounds bounds =
        certified_upper_bounds(problem, k, lazy, problem.points());
    EXPECT_LE(a.total_reward,
              bounds.best() + 1e-9 * std::max(1.0, bounds.best()))
        << context << " polished value above the certified bound";
  }
  // The sweep must exercise real move commits, not converge-at-seed noops.
  EXPECT_GE(improved, 90);
}

}  // namespace
}  // namespace mmph::ls
