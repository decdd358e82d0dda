// Tests for the ball-local swap evaluator: agreement with the direct
// objective across long random swap sequences, and bitwise-equal results
// whichever way it gathers coverage balls (lent index, owned index, full
// scan).

#include <gtest/gtest.h>

#include "mmph/core/kernels.hpp"
#include "mmph/core/objective.hpp"
#include "mmph/core/swap_evaluator.hpp"
#include "mmph/random/workload.hpp"
#include "mmph/spatial/spatial_index.hpp"
#include "mmph/support/error.hpp"

namespace mmph::core {
namespace {

Problem random_problem(std::size_t n, std::uint64_t seed,
                       geo::Metric metric = geo::l2_metric()) {
  rnd::WorkloadSpec spec;
  spec.n = n;
  rnd::Rng rng(seed);
  return Problem::from_workload(rnd::generate_workload(spec, rng), 1.0,
                                metric);
}

geo::PointSet random_centers(std::size_t k, std::size_t dim, rnd::Rng& rng) {
  geo::PointSet centers(dim);
  std::vector<double> c(dim);
  for (std::size_t j = 0; j < k; ++j) {
    for (auto& v : c) v = rng.uniform(0.0, 4.0);
    centers.push_back(c);
  }
  return centers;
}

TEST(SwapEvaluator, Validation) {
  const Problem p = random_problem(5, 1);
  EXPECT_THROW(SwapEvaluator(p, geo::PointSet(2)), InvalidArgument);
  EXPECT_THROW(SwapEvaluator(p, geo::PointSet::from_rows({{0.0, 0.0, 0.0}})),
               InvalidArgument);
}

TEST(SwapEvaluator, InitialValueMatchesObjective) {
  const Problem p = random_problem(30, 2);
  rnd::Rng rng(3);
  const geo::PointSet centers = random_centers(4, 2, rng);
  const SwapEvaluator eval(p, centers);
  EXPECT_NEAR(eval.current_value(), objective_value(p, centers), 1e-9);
  EXPECT_EQ(eval.current_value(), eval.exact_value());  // bitwise
}

TEST(SwapEvaluator, StartingValueIsTheFullSumBitwise) {
  // The starting value sums only the rows some slot covers; every other
  // row adds exact +0.0 to exact_value()'s pass over [0, n). Across the
  // 210-instance corpus (6..12 points in a dense box: the scan backend)
  // and with a lent grid, then on sparse boxes where balls hold a few
  // dozen of thousands of rows.
  const geo::Metric metrics[] = {geo::l2_metric(), geo::l1_metric(),
                                 geo::linf_metric()};
  int instances = 0;
  for (std::uint64_t seed = 1; seed <= 70; ++seed) {
    rnd::WorkloadSpec spec;
    spec.n = 6 + seed % 7;  // 6..12
    spec.dim = 2 + seed % 2;
    spec.weights = seed % 3 == 0 ? rnd::WeightScheme::kSame
                                 : rnd::WeightScheme::kUniformInt;
    rnd::Rng rng(seed);
    const Problem p = Problem::from_workload(
        rnd::generate_workload(spec, rng), 1.0, metrics[seed % 3]);
    const auto grid =
        spatial::make_index(spatial::IndexKind::kGrid, p.points(), p.radius(),
                            p.metric());
    for (const std::size_t k : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}}) {
      ++instances;
      const geo::PointSet centers = random_centers(k, spec.dim, rng);
      const SwapEvaluator scan(p, centers);
      ASSERT_EQ(scan.index(), nullptr) << "seed " << seed;
      EXPECT_EQ(scan.current_value(), scan.exact_value()) << "seed " << seed;
      const SwapEvaluator lent(p, centers, grid.get());
      EXPECT_EQ(lent.current_value(), lent.exact_value()) << "seed " << seed;
      EXPECT_EQ(lent.current_value(), scan.current_value()) << "seed " << seed;
    }
  }
  EXPECT_EQ(instances, 210);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    rnd::WorkloadSpec spec;
    spec.n = 3000;
    spec.box_side = 17.0;  // ~10 per unit²
    spec.weights = rnd::WeightScheme::kUniformInt;
    rnd::Rng rng(seed);
    const Problem p = Problem::from_workload(
        rnd::generate_workload(spec, rng), 1.0, metrics[seed % 3]);
    geo::PointSet centers(2);
    for (std::size_t j = 0; j < 8; ++j) centers.push_back(p.points()[7 * j]);
    const auto grid =
        spatial::make_index(spatial::IndexKind::kGrid, p.points(), p.radius(),
                            p.metric());
    const SwapEvaluator lent(p, centers, grid.get());
    EXPECT_EQ(lent.current_value(), lent.exact_value()) << "seed " << seed;
    EXPECT_EQ(lent.current_value(), objective_value(p, centers))
        << "seed " << seed;
  }
}

TEST(SwapEvaluator, TrialDoesNotMutate) {
  const Problem p = random_problem(20, 4);
  rnd::Rng rng(5);
  const geo::PointSet centers = random_centers(3, 2, rng);
  const SwapEvaluator eval(p, centers);
  const double before = eval.current_value();
  const std::vector<double> cand{1.0, 1.0};
  (void)eval.delta_for_swap(1, cand);
  EXPECT_DOUBLE_EQ(eval.current_value(), before);
  EXPECT_EQ(eval.exact_value(), before);
}

TEST(SwapEvaluator, TrialMatchesDirectEvaluation) {
  const Problem p = random_problem(25, 6);
  rnd::Rng rng(7);
  geo::PointSet centers = random_centers(3, 2, rng);
  const SwapEvaluator eval(p, centers);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t j = static_cast<std::size_t>(rng.uniform_int(0, 2));
    const std::vector<double> cand{rng.uniform(0.0, 4.0),
                                   rng.uniform(0.0, 4.0)};
    geo::PointSet swapped = centers;
    geo::assign(swapped.mutable_point(j), cand);
    EXPECT_NEAR(eval.current_value() + eval.delta_for_swap(j, cand),
                objective_value(p, swapped), 1e-9);
  }
}

TEST(SwapEvaluator, LongCommitSequenceStaysExact) {
  for (const geo::Metric metric : {geo::l1_metric(), geo::l2_metric()}) {
    const Problem p = random_problem(30, 8, metric);
    rnd::Rng rng(9);
    geo::PointSet centers = random_centers(4, 2, rng);
    SwapEvaluator eval(p, centers);
    for (int step = 0; step < 200; ++step) {
      const std::size_t j = static_cast<std::size_t>(rng.uniform_int(0, 3));
      const std::vector<double> cand{rng.uniform(0.0, 4.0),
                                     rng.uniform(0.0, 4.0)};
      eval.commit_swap(j, cand);
      geo::assign(centers.mutable_point(j), cand);
      ASSERT_NEAR(eval.current_value(), objective_value(p, centers), 1e-9)
          << "step " << step << " metric " << metric.name();
      ASSERT_NEAR(eval.exact_value(), objective_value(p, centers), 1e-9)
          << "step " << step << " metric " << metric.name();
    }
    // The exact accounting re-derives f(C) round by round.
    const Solution sol = eval.account();
    EXPECT_NEAR(sol.total_reward, objective_value(p, centers), 1e-9);
    EXPECT_EQ(sol.round_rewards.size(), centers.size());
  }
}

TEST(SwapEvaluator, CommitUpdatesCenters) {
  const Problem p = random_problem(10, 10);
  rnd::Rng rng(11);
  SwapEvaluator eval(p, random_centers(2, 2, rng));
  const std::vector<double> cand{2.0, 2.0};
  eval.commit_swap(0, cand);
  EXPECT_DOUBLE_EQ(eval.centers()[0][0], 2.0);
  EXPECT_DOUBLE_EQ(eval.centers()[0][1], 2.0);
}

TEST(SwapEvaluator, IndexOutOfRangeThrows) {
  const Problem p = random_problem(10, 12);
  rnd::Rng rng(13);
  SwapEvaluator eval(p, random_centers(2, 2, rng));
  const std::vector<double> cand{1.0, 1.0};
  EXPECT_THROW((void)eval.delta_for_swap(2, cand), InvalidArgument);
  EXPECT_THROW(eval.commit_swap(5, cand), InvalidArgument);
}

TEST(SwapEvaluator, WorksWithBinaryRewardShape) {
  rnd::WorkloadSpec spec;
  spec.n = 20;
  rnd::Rng rng(14);
  const Problem p = Problem::from_workload(rnd::generate_workload(spec, rng),
                                           1.0, geo::l2_metric(),
                                           RewardShape::kBinary);
  geo::PointSet centers = random_centers(3, 2, rng);
  SwapEvaluator eval(p, centers);
  EXPECT_NEAR(eval.current_value(), objective_value(p, centers), 1e-9);
  const std::vector<double> cand{0.5, 0.5};
  geo::PointSet swapped = centers;
  geo::assign(swapped.mutable_point(2), cand);
  EXPECT_NEAR(eval.current_value() + eval.delta_for_swap(2, cand),
              objective_value(p, swapped), 1e-9);
}

TEST(SwapEvaluator, GainAndLossAreTheHalvesOfAFarSwap) {
  // g(c) = f(C + c) − f(C) and L_j = f(C) − f(C − c_j); when ball(c) and
  // ball(c_j) are disjoint, the swap's delta is g(c) − L_j.
  const Problem p = random_problem(60, 12);
  rnd::Rng rng(13);
  const geo::PointSet centers = random_centers(4, 2, rng);
  const SwapEvaluator eval(p, centers);
  const double f = objective_value(p, centers);
  int far_pairs = 0;
  for (std::size_t c = 0; c < p.size(); ++c) {
    const geo::ConstVec cand = p.points()[c];
    geo::PointSet grown = centers;
    grown.push_back(cand);
    const double gain = eval.add_gain(cand);
    EXPECT_NEAR(gain, objective_value(p, grown) - f, 1e-9) << c;
    for (std::size_t j = 0; j < centers.size(); ++j) {
      geo::PointSet shrunk(2);
      for (std::size_t o = 0; o < centers.size(); ++o) {
        if (o != j) shrunk.push_back(centers[o]);
      }
      const double loss = eval.removal_loss(j);
      EXPECT_NEAR(loss, f - objective_value(p, shrunk), 1e-9) << j;
      if (p.metric().distance(cand, centers[j]) > 2.0 * p.radius()) {
        ++far_pairs;
        EXPECT_NEAR(eval.delta_for_swap(j, cand), gain - loss, 1e-12)
            << c << " " << j;
      }
    }
  }
  EXPECT_GT(far_pairs, 0);
}

/// One scripted trial/commit sequence: every delta with its candidate's
/// gain and its slot's loss, then the accumulated and exact values, the
/// per-round rewards and the final residual.
std::vector<double> run_script(const Problem& p, const geo::PointSet& centers,
                               spatial::SpatialIndex* index) {
  SwapEvaluator eval(p, centers, index);
  std::vector<double> out;
  rnd::Rng rng(21);
  const auto k = static_cast<std::int64_t>(centers.size());
  const auto n = static_cast<std::int64_t>(p.size());
  for (int step = 0; step < 160; ++step) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, k - 1));
    const geo::ConstVec cand =
        p.points()[static_cast<std::size_t>(rng.uniform_int(0, n - 1))];
    out.push_back(eval.delta_for_swap(j, cand));
    out.push_back(eval.add_gain(cand));
    out.push_back(eval.removal_loss(j));
    if (step % 5 == 0) eval.commit_swap(j, cand);
  }
  out.push_back(eval.current_value());
  out.push_back(eval.exact_value());
  EXPECT_NEAR(eval.current_value(), objective_value(p, eval.centers()), 1e-9);
  const Solution sol = eval.account();
  out.insert(out.end(), sol.round_rewards.begin(), sol.round_rewards.end());
  out.push_back(sol.total_reward);
  out.insert(out.end(), sol.residual.begin(), sol.residual.end());
  return out;
}

TEST(SwapEvaluator, GatherModesAgreeBitwise) {
  // A 4x4 box is dense (a query box covers over 1/8 of it): without a lent
  // index the evaluator scans [0, n). A 14x14 box is sparse: it builds an
  // owned index. Either way a lent grid and a lent kd-tree must give the
  // same bits.
  struct Box {
    double side;
    std::size_t n;
    bool sparse;
  };
  for (const Box box : {Box{4.0, 300, false}, Box{14.0, 900, true}}) {
    for (const geo::Metric metric :
         {geo::l1_metric(), geo::l2_metric(), geo::linf_metric()}) {
      for (const RewardShape shape :
           {RewardShape::kLinear, RewardShape::kBinary}) {
        rnd::WorkloadSpec spec;
        spec.n = box.n;
        spec.box_side = box.side;
        rnd::Rng rng(31);
        const Problem p = Problem::from_workload(
            rnd::generate_workload(spec, rng), 1.0, metric, shape);
        ASSERT_EQ(kernels::query_box_sparse(p), box.sparse);
        geo::PointSet centers(2);
        for (std::size_t j = 0; j < 6; ++j) centers.push_back(p.points()[j]);

        const std::vector<double> own = run_script(p, centers, nullptr);
        for (const spatial::IndexKind kind :
             {spatial::IndexKind::kGrid, spatial::IndexKind::kKdTree}) {
          const auto lent =
              spatial::make_index(kind, p.points(), p.radius(), metric);
          EXPECT_EQ(run_script(p, centers, lent.get()), own)
              << "side " << box.side << " metric " << metric.name()
              << " shape " << static_cast<int>(shape) << " lent "
              << spatial::index_kind_name(kind);
        }
      }
    }
  }
}

}  // namespace
}  // namespace mmph::core
