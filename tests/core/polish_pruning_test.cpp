// Differential test of the pruning in core::polish. The polish keeps
// every candidate's marginal gain g(c) and every slot's removal loss L_j,
// and decides a swap pair whose coverage balls are disjoint
// (d(c, c_j) > 2r, so delta = g(c) − L_j) from those sums instead of
// evaluating it; and it never tries a pair twice at one evaluator state
// (the swap pass skips what the shift pass or the previous sweep already
// rejected with no move since). No decision may change: each polish below
// runs again through an independent, unpruned copy of the search
// (unpruned_polish.hpp: the shift + swap first-improvement sweep and the
// tabu sweep, driven only through SwapEvaluator::delta_for_swap/
// commit_swap), and the two must agree on
//
//   - centers, total, round rewards and residual, bitwise;
//   - moves, shift/swap moves and sweeps;
//   - evals + skipped == the reference's evals, and evals <= the
//     reference's evals minus its repeated evaluations.
//
// Cases: the 210-instance differential corpus from its lazy seeds under a
// lent grid (with no index the corpus's dense box scans: no far-pair
// skips there, only repeats), and instances at 10 users per unit², n in
// {2.5k, 10k, 20k}, under L1/L2/Linf, linear and binary reward, a lent
// and an owned index, from a perturbed lazy seed so every case commits
// moves; tabu tenure 4 runs on the corpus and at n = 2.5k. At every
// converged placement the reference also measures |delta − (g − L)| over
// the far pairs against the pruning margin 4·n·DBL_EPSILON·(g + L), and a
// digest per size pins the 10-per-unit² outputs.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "mmph/core/lazy_greedy.hpp"
#include "mmph/core/local_search.hpp"
#include "mmph/core/swap_evaluator.hpp"
#include "mmph/geometry/vec.hpp"
#include "mmph/random/pcg64.hpp"
#include "mmph/random/workload.hpp"
#include "mmph/spatial/uniform_grid.hpp"
#include "unpruned_polish.hpp"

namespace mmph::core {
namespace {

using oracle::Reference;
using oracle::unpruned_polish;

std::vector<double> coords(const geo::PointSet& points) {
  return {points.raw().begin(), points.raw().end()};
}

struct Pruned {
  Solution solution;
  LsStats stats;
};

/// Runs the pruned polish and checks it against \p ref.
Pruned expect_matches(const Problem& problem, const Solution& seed,
                      const LsConfig& config, spatial::SpatialIndex* index,
                      const Reference& ref, const std::string& context) {
  Pruned out;
  LsStats& st = out.stats;
  out.solution = polish(problem, seed, problem.points(), config, &st, index);
  const Solution& got = out.solution;
  const Solution& want = ref.solution;
  EXPECT_FALSE(st.aborted) << context;
  EXPECT_EQ(got.total_reward, want.total_reward) << context;  // bitwise
  EXPECT_EQ(got.round_rewards, want.round_rewards) << context;
  EXPECT_EQ(got.residual, want.residual) << context;
  EXPECT_EQ(coords(got.centers), coords(want.centers)) << context;
  EXPECT_EQ(st.moves, ref.stats.moves) << context;
  EXPECT_EQ(st.shift_moves, ref.stats.shift_moves) << context;
  EXPECT_EQ(st.swap_moves, ref.stats.swap_moves) << context;
  EXPECT_EQ(st.sweeps, ref.stats.sweeps) << context;
  EXPECT_EQ(st.converged, ref.stats.converged) << context;
  EXPECT_EQ(st.evals + st.skipped, ref.stats.evals) << context;
  // A pair evaluated again with no move in between is never re-tried.
  EXPECT_LE(st.evals, ref.stats.evals - ref.repeats) << context;
  EXPECT_LE(st.far_evals, st.evals) << context;
  return out;
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
  void mix(const Solution& s, const LsStats& st) {
    mix(s.total_reward);
    for (const double g : s.round_rewards) mix(g);
    for (const double y : s.residual) mix(y);
    for (const double x : s.centers.raw()) mix(x);
    mix(st.moves);
    mix(st.shift_moves);
    mix(st.swap_moves);
    mix(static_cast<std::uint64_t>(st.sweeps));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return fnv_; }

 private:
  std::uint64_t fnv_ = 1469598103934665603ull;
};

struct Variant {
  std::size_t dim;
  geo::Metric metric;
  rnd::WeightScheme weights;
  const char* label;
};

TEST(PolishPruning, CorpusUnderALentGridMatchesTheUnprunedSearch) {
  const Variant variants[] = {
      {2, geo::l2_metric(), rnd::WeightScheme::kSame, "2d-l2-unweighted"},
      {2, geo::l1_metric(), rnd::WeightScheme::kUniformInt, "2d-l1-weighted"},
      {3, geo::l2_metric(), rnd::WeightScheme::kUniformInt, "3d-l2-weighted"},
      {3, geo::l1_metric(), rnd::WeightScheme::kSame, "3d-l1-unweighted"},
  };
  LsConfig tabu;
  tabu.tabu_tenure = 4;
  int instances = 0;
  std::uint64_t skipped = 0;
  for (std::uint64_t seed = 1; seed <= 70; ++seed) {
    const Variant& variant = variants[seed % 4];
    rnd::WorkloadSpec spec;
    spec.n = 6 + seed % 7;  // 6..12
    spec.dim = variant.dim;
    spec.weights = variant.weights;
    rnd::Rng rng(seed);
    const Problem problem = Problem::from_workload(
        rnd::generate_workload(spec, rng), 1.0, variant.metric);
    spatial::UniformGridIndex grid(problem.points(), problem.radius());
    for (const std::size_t k : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}}) {
      ++instances;
      const Solution seed_solution = LazyGreedySolver().solve(problem, k);
      for (const LsConfig& config : {LsConfig{}, tabu}) {
        const std::string context =
            "seed=" + std::to_string(seed) + " " + variant.label +
            " k=" + std::to_string(k) +
            " tabu=" + std::to_string(config.tabu_tenure);
        const Reference ref =
            unpruned_polish(problem, seed_solution, config, &grid);
        skipped += expect_matches(problem, seed_solution, config, &grid, ref,
                                  context)
                       .stats.skipped;
        // At n <= 12 a sum has at most 12 terms, so the sound bound itself
        // is the check; margin / 1000 is held at n >= 2.5k below.
        EXPECT_LE(ref.worst_margin_use, 1.0) << context;
      }
    }
  }
  EXPECT_EQ(instances, 210);
  EXPECT_GT(skipped, 0u) << "the lent grid must let the corpus prune";
}

TEST(PolishPruning, CorpusScanSkipsExactlyTheRepeats) {
  // With no index the corpus's dense box scans: no far pair is decided on
  // cached gains, so every skipped pair is a repeat of the reference's —
  // and every repeat of the reference's is skipped.
  const Variant variants[] = {
      {2, geo::l2_metric(), rnd::WeightScheme::kSame, "2d-l2-unweighted"},
      {2, geo::l1_metric(), rnd::WeightScheme::kUniformInt, "2d-l1-weighted"},
      {3, geo::l2_metric(), rnd::WeightScheme::kUniformInt, "3d-l2-weighted"},
      {3, geo::linf_metric(), rnd::WeightScheme::kSame, "3d-linf-unweighted"},
  };
  std::uint64_t repeats = 0;
  for (std::uint64_t seed = 1; seed <= 70; ++seed) {
    const Variant& variant = variants[seed % 4];
    rnd::WorkloadSpec spec;
    spec.n = 6 + seed % 7;  // 6..12
    spec.dim = variant.dim;
    spec.weights = variant.weights;
    rnd::Rng rng(seed);
    const Problem problem = Problem::from_workload(
        rnd::generate_workload(spec, rng), 1.0, variant.metric);
    for (const std::size_t k : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}}) {
      const std::string context = "seed=" + std::to_string(seed) + " " +
                                  variant.label + " k=" + std::to_string(k);
      const Solution seed_solution = LazyGreedySolver().solve(problem, k);
      ASSERT_EQ(SwapEvaluator(problem, seed_solution.centers).index(), nullptr)
          << context;
      const Reference ref =
          unpruned_polish(problem, seed_solution, {}, nullptr);
      const Pruned got =
          expect_matches(problem, seed_solution, {}, nullptr, ref, context);
      EXPECT_EQ(got.stats.skipped, ref.repeats) << context;
      EXPECT_EQ(got.stats.gain_sums, 0u) << context;
      repeats += ref.repeats;
    }
  }
  EXPECT_GT(repeats, 0u) << "the corpus must repeat some evaluations";
}

/// n users uniform on a square at 10 per unit², weights 1..5, r = 1.
Problem unit_density_problem(std::size_t n, geo::Metric metric,
                             RewardShape shape) {
  rnd::WorkloadSpec spec;
  spec.n = n;
  spec.box_side = std::sqrt(static_cast<double>(n) / 10.0);
  rnd::Rng rng(n);
  return Problem::from_workload(rnd::generate_workload(spec, rng), 1.0,
                                metric, shape);
}

/// The lazy greedy placement with its first three centers moved onto the
/// first three (uniformly placed) users, exactly accounted: a seed the
/// polish has to repair, so every case commits moves and refreshes the
/// cached gains.
Solution perturbed_seed(const Problem& problem, std::size_t k,
                        spatial::SpatialIndex& index) {
  geo::PointSet centers = LazyGreedySolver().solve(problem, k).centers;
  for (std::size_t j = 0; j < 3; ++j) {
    geo::assign(centers.mutable_point(j), problem.points()[j]);
  }
  Solution seed = SwapEvaluator(problem, centers, &index).account();
  seed.solver_name = "perturbed";
  return seed;
}

/// One size of the 10-per-unit² sweep, with the digest of its polish
/// outputs (first improvement, k = 8, every metric and reward shape, lent
/// grid) computed against the unpruned polish.
struct UnitDensityCase {
  std::size_t n;
  std::uint64_t digest;
};

void PrintTo(const UnitDensityCase& c, std::ostream* os) { *os << c.n; }

class PolishPruningAtUnitDensity
    : public ::testing::TestWithParam<UnitDensityCase> {};

TEST_P(PolishPruningAtUnitDensity, MatchesTheUnprunedSearch) {
  const std::size_t n = GetParam().n;
  const geo::Metric metrics[] = {geo::l1_metric(), geo::l2_metric(),
                                 geo::linf_metric()};
  Digest digest;
  for (const geo::Metric& metric : metrics) {
    for (const RewardShape shape :
         {RewardShape::kLinear, RewardShape::kBinary}) {
      const Problem problem = unit_density_problem(n, metric, shape);
      spatial::UniformGridIndex grid(problem.points(), problem.radius());
      const Solution seed = perturbed_seed(problem, 8, grid);
      const std::string context = "n=" + std::to_string(n) + " " +
                                  metric.name() + " " +
                                  reward_shape_name(shape);
      ASSERT_NE(SwapEvaluator(problem, seed.centers).index(), nullptr)
          << context << ": the owned-index case would scan";
      const Reference ref = unpruned_polish(problem, seed, {}, &grid);
      ASSERT_TRUE(ref.stats.converged) << context;
      EXPECT_GT(ref.stats.moves, 0u) << context;
      EXPECT_GT(ref.far_pairs, 0u) << context;
      EXPECT_LE(ref.worst_margin_use, 1e-3) << context;
      for (spatial::SpatialIndex* index :
           {static_cast<spatial::SpatialIndex*>(&grid),
            static_cast<spatial::SpatialIndex*>(nullptr)}) {
        const std::string where =
            context + (index != nullptr ? " lent" : " owned");
        const Pruned got = expect_matches(problem, seed, {}, index, ref, where);
        if (n == 10000) {
          EXPECT_GE(got.stats.skipped * 10, ref.stats.evals * 9) << where;
        }
        if (index != nullptr) digest.mix(got.solution, got.stats);
      }
    }
  }
  EXPECT_EQ(digest.value(), GetParam().digest)
      << "got 0x" << std::hex << digest.value();
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PolishPruningAtUnitDensity,
    ::testing::Values(UnitDensityCase{2500, 0x5748bd65024001feull},
                      UnitDensityCase{10000, 0x2e82bdbc78799c92ull},
                      UnitDensityCase{20000, 0x76d867286b58a49aull}),
    [](const ::testing::TestParamInfo<UnitDensityCase>& param_info) {
      return "n" + std::to_string(param_info.param.n);
    });

TEST(PolishPruning, TabuAtUnitDensityMatchesTheUnprunedSearch) {
  LsConfig tabu;
  tabu.tabu_tenure = 4;
  for (const RewardShape shape :
       {RewardShape::kLinear, RewardShape::kBinary}) {
    const Problem problem =
        unit_density_problem(2500, geo::l2_metric(), shape);
    spatial::UniformGridIndex grid(problem.points(), problem.radius());
    const Solution seed = perturbed_seed(problem, 8, grid);
    const std::string context =
        std::string("tabu n=2500 ") + reward_shape_name(shape);
    const Reference ref = unpruned_polish(problem, seed, tabu, &grid);
    EXPECT_GT(ref.stats.moves, 0u) << context;
    const Pruned got = expect_matches(problem, seed, tabu, &grid, ref, context);
    EXPECT_GT(got.stats.skipped, 0u) << context;
  }
}

}  // namespace
}  // namespace mmph::core
