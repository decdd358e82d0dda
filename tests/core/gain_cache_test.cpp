// The marginal gains core::polish carries between polishes
// (core::GainCache), against independent oracles. A population churns by
// random row operations — joins, leaves that relocate the last row, moves,
// weight-only updates, several per batch — mirrored into the cache (and a
// carried grid, for the lent-index cases) the way the kLs service mirrors
// its store. Before every polish the test asserts the cache's invariant
// directly: after the stale marking a polish start does, every entry not
// marked stale equals bitwise what add_gain returns against a fresh
// evaluator of the seed centers. Each polish then runs three ways:
//
//   - with the carried cache;
//   - without it (a fresh cache: every row summed);
//   - through the unpruned reference search (unpruned_polish.hpp);
//
// and all three agree bitwise on centers, total, round rewards and
// residual, the first two on every LsStats counter but gain_sums.
// Cases: L1/L2/Linf × linear/binary reward × lent/owned index, k ∈ {4, 8},
// at 10 users per unit², with an injected evaluation fault and a polish
// from foreign centers in every sequence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mmph/core/gain_cache.hpp"
#include "mmph/core/lazy_greedy.hpp"
#include "mmph/core/local_search.hpp"
#include "mmph/core/swap_evaluator.hpp"
#include "mmph/geometry/vec.hpp"
#include "mmph/random/pcg64.hpp"
#include "mmph/spatial/uniform_grid.hpp"
#include "unpruned_polish.hpp"

namespace mmph::core {
namespace {

constexpr double kRadius = 1.0;

/// Rows kept the way serve::InstanceStore keeps them (append, swap-remove,
/// overwrite in place), every operation mirrored into the cache and, when
/// present, a carried grid.
class Population {
 public:
  Population(std::size_t n, double side, rnd::Pcg64& rng, bool carry_grid)
      : side_(side), rng_(rng) {
    for (std::size_t i = 0; i < n; ++i) {
      append_row(random_point(), random_weight());
    }
    if (carry_grid) {
      grid_ = std::make_unique<spatial::UniformGridIndex>(points(), kRadius);
    }
  }

  [[nodiscard]] geo::PointSet points() const { return {2, coords_}; }
  [[nodiscard]] std::size_t size() const { return weights_.size(); }
  [[nodiscard]] Problem problem(const geo::Metric& metric,
                                RewardShape shape) const {
    return Problem(points(), weights_, kRadius, metric, shape);
  }
  /// The lent index, or null when the evaluator owns one.
  [[nodiscard]] spatial::SpatialIndex* lent() { return grid_.get(); }
  [[nodiscard]] GainCache& gains() { return gains_; }

  /// One batch of 1..8 random row operations.
  void churn() {
    const std::size_t ops = 1 + rng_.next_below(8);
    for (std::size_t op = 0; op < ops; ++op) {
      switch (rng_.next_below(4)) {
        case 0:
          join();
          break;
        case 1:
          leave(rng_.next_below(size()));
          break;
        case 2:
          move(rng_.next_below(size()));
          break;
        default:
          reweigh(rng_.next_below(size()));
          break;
      }
    }
  }

 private:
  [[nodiscard]] geo::ConstVec at(std::size_t row) const {
    return geo::ConstVec(coords_.data() + 2 * row, 2);
  }
  std::vector<double> random_point() {
    return {side_ * rng_.next_double(), side_ * rng_.next_double()};
  }
  double random_weight() {
    return static_cast<double>(1 + rng_.next_below(5));
  }
  void append_row(const std::vector<double>& p, double weight) {
    coords_.insert(coords_.end(), p.begin(), p.end());
    weights_.push_back(weight);
  }

  void join() {
    const std::vector<double> p = random_point();
    append_row(p, random_weight());
    const geo::ConstVec v(p.data(), 2);
    gains_.insert(v);
    if (grid_) grid_->add(v);
  }
  void leave(std::size_t row) {
    const std::size_t last = size() - 1;
    gains_.swap_remove(row, at(row), at(last));
    if (grid_) grid_->swap_remove(row);
    std::copy_n(coords_.begin() + static_cast<std::ptrdiff_t>(2 * last), 2,
                coords_.begin() + static_cast<std::ptrdiff_t>(2 * row));
    weights_[row] = weights_[last];
    coords_.resize(2 * last);
    weights_.pop_back();
  }
  void move(std::size_t row) {
    std::vector<double> p(2);
    for (std::size_t d = 0; d < 2; ++d) {
      p[d] = std::clamp(coords_[2 * row + d] + 2.0 * rng_.next_double() - 1.0,
                        0.0, side_);
    }
    const geo::ConstVec v(p.data(), 2);
    gains_.update(row, at(row), v);
    if (grid_) grid_->update(row, v);
    std::copy(p.begin(), p.end(),
              coords_.begin() + static_cast<std::ptrdiff_t>(2 * row));
  }
  void reweigh(std::size_t row) {
    gains_.update(row, at(row), at(row));
    weights_[row] = random_weight();
  }

  double side_;
  rnd::Pcg64& rng_;
  std::vector<double> coords_;
  std::vector<double> weights_;
  std::unique_ptr<spatial::UniformGridIndex> grid_;
  GainCache gains_;
};

std::vector<double> coords(const geo::PointSet& points) {
  return {points.raw().begin(), points.raw().end()};
}

void expect_same_solution(const Solution& got, const Solution& want,
                          const std::string& context) {
  EXPECT_EQ(got.total_reward, want.total_reward) << context;  // bitwise
  EXPECT_EQ(got.round_rewards, want.round_rewards) << context;
  EXPECT_EQ(got.residual, want.residual) << context;
  EXPECT_EQ(coords(got.centers), coords(want.centers)) << context;
}

void expect_same_counters(const LsStats& got, const LsStats& want,
                          const std::string& context) {
  EXPECT_EQ(got.evals, want.evals) << context;
  EXPECT_EQ(got.far_evals, want.far_evals) << context;
  EXPECT_EQ(got.skipped, want.skipped) << context;
  EXPECT_EQ(got.moves, want.moves) << context;
  EXPECT_EQ(got.shift_moves, want.shift_moves) << context;
  EXPECT_EQ(got.swap_moves, want.swap_moves) << context;
  EXPECT_EQ(got.sweeps, want.sweeps) << context;
  EXPECT_EQ(got.improved, want.improved) << context;
  EXPECT_EQ(got.converged, want.converged) << context;
  EXPECT_EQ(got.aborted, want.aborted) << context;
}

/// The invariant at a polish start from \p seed: every entry the stale
/// marking leaves alone is bitwise a fresh add_gain. Returns how many
/// entries were carried.
std::size_t expect_carried_entries_exact(const Problem& problem,
                                         const GainCache& cache,
                                         const geo::PointSet& seed,
                                         spatial::SpatialIndex* lent,
                                         const std::string& context) {
  if (cache.empty()) return 0;
  std::unique_ptr<spatial::SpatialIndex> owned;
  if (lent == nullptr) {
    owned = spatial::make_index(problem.points(), problem.radius(),
                                problem.metric());
  }
  const spatial::SpatialIndex& index = lent != nullptr ? *lent : *owned;
  GainCache marked = cache;
  marked.prepare(problem.points(), seed, index, problem.metric(),
                 problem.radius());
  const SwapEvaluator fresh(problem, seed, lent);
  std::size_t carried = 0;
  for (std::size_t row = 0; row < problem.size(); ++row) {
    if (marked.stale(row)) continue;
    ++carried;
    const double want = fresh.add_gain(problem.points()[row]);
    if (marked[row] != want) {
      ADD_FAILURE() << context << ": row " << row << " carried "
                    << marked[row] << ", fresh sum " << want;
      return carried;
    }
  }
  return carried;
}

struct CacheCase {
  geo::Metric metric;
  RewardShape shape;
  bool lent;
};

/// Names the case in test listings (the default would print the struct's
/// raw bytes, padding included, which differ from build to build).
void PrintTo(const CacheCase& c, std::ostream* os) {
  *os << c.metric.name() << ' ' << reward_shape_name(c.shape)
      << (c.lent ? " lent" : " owned");
}

class GainCacheUnderChurn : public ::testing::TestWithParam<CacheCase> {};

TEST_P(GainCacheUnderChurn, CarriedPolishMatchesFreshAndUnprunedPolishes) {
  const CacheCase& param = GetParam();
  constexpr std::size_t kUsers = 800;  // box side 8.9: an owned grid gathers
  constexpr int kSlots = 9;
  constexpr int kForeign = 3;
  constexpr int kAbort = 5;
  for (const std::size_t k : {std::size_t{4}, std::size_t{8}}) {
    rnd::Pcg64 rng(97 + k);
    Population population(kUsers, std::sqrt(kUsers / 10.0), rng, param.lent);
    const std::string label = std::string(param.metric.name()) + " " +
                              reward_shape_name(param.shape) +
                              (param.lent ? " lent" : " owned") +
                              " k=" + std::to_string(k);

    // The full solve: a lazy placement, polished with the cache so the
    // slots below start from carried gains.
    Solution served;
    {
      const Problem problem = population.problem(param.metric, param.shape);
      const Solution lazy = LazyGreedySolver().solve(problem, k);
      ASSERT_NE(SwapEvaluator(problem, lazy.centers).index(), nullptr)
          << label << ": the owned-index case would scan";
      served = polish(problem, lazy, problem.points(), {}, nullptr,
                      population.lent(), &population.gains());
    }
    ASSERT_FALSE(population.gains().empty()) << label;

    std::size_t carried_entries = 0;
    std::uint64_t moves = 0;
    std::uint64_t carried_sums = 0;
    std::uint64_t fresh_sums = 0;
    for (int slot = 0; slot < kSlots; ++slot) {
      const std::string context = label + " slot " + std::to_string(slot);
      population.churn();
      const Problem problem = population.problem(param.metric, param.shape);
      // Slot kForeign polishes from foreign centers: the served ones in
      // reverse slot order, the first moved onto a user (every row is
      // summed again, and the repair commits moves). Every other slot
      // polishes the placement the previous slot served.
      geo::PointSet centers = served.centers;
      if (slot == kForeign) {
        centers = geo::PointSet(2);
        for (std::size_t j = k; j-- > 0;) centers.push_back(served.centers[j]);
        geo::assign(centers.mutable_point(0), problem.points()[0]);
      }
      const Solution seed =
          SwapEvaluator(problem, centers, population.lent()).account();
      carried_entries += expect_carried_entries_exact(
          problem, population.gains(), centers, population.lent(), context);

      LsStats carried_stats;
      LsStats fresh_stats;
      LsConfig config;
      std::size_t consults = 0;
      if (slot == kAbort) {
        // The 40th exact evaluation throws: the polish keeps its seed and
        // empties the cache.
        config.fault_hook = [&consults](std::string_view site) {
          return site == kFaultLsEvalThrow && ++consults == 40;
        };
      }
      const Solution carried =
          polish(problem, seed, problem.points(), config, &carried_stats,
                 population.lent(), &population.gains());
      if (slot == kAbort) {
        ASSERT_TRUE(carried_stats.aborted) << context;
        EXPECT_TRUE(population.gains().empty()) << context;
        expect_same_solution(carried, seed, context);
        served = carried;
        continue;
      }
      const Solution fresh = polish(problem, seed, problem.points(), {},
                                    &fresh_stats, population.lent());
      const oracle::Reference ref =
          oracle::unpruned_polish(problem, seed, {}, population.lent());

      expect_same_solution(carried, fresh, context);
      expect_same_solution(carried, ref.solution, context);
      expect_same_counters(carried_stats, fresh_stats, context);
      EXPECT_EQ(carried_stats.evals + carried_stats.skipped, ref.stats.evals)
          << context;
      EXPECT_EQ(carried_stats.moves, ref.stats.moves) << context;
      EXPECT_GE(fresh_stats.gain_sums, problem.size()) << context;
      if (slot == kForeign || slot == kAbort + 1) {
        // Foreign centers, or the first polish after the abort.
        EXPECT_EQ(carried_stats.gain_sums, fresh_stats.gain_sums) << context;
      } else {
        EXPECT_LE(carried_stats.gain_sums, fresh_stats.gain_sums) << context;
      }
      EXPECT_FALSE(population.gains().empty()) << context;
      moves += carried_stats.moves;
      carried_sums += carried_stats.gain_sums;
      fresh_sums += fresh_stats.gain_sums;
      served = carried;
    }
    EXPECT_GT(carried_entries, 0u) << label;
    EXPECT_GT(moves, 0u) << label << ": no slot exercised the commit rule";
    EXPECT_LT(carried_sums, fresh_sums) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MetricsShapesIndexes, GainCacheUnderChurn,
    ::testing::Values(
        CacheCase{geo::l1_metric(), RewardShape::kLinear, true},
        CacheCase{geo::l1_metric(), RewardShape::kLinear, false},
        CacheCase{geo::l1_metric(), RewardShape::kBinary, true},
        CacheCase{geo::l1_metric(), RewardShape::kBinary, false},
        CacheCase{geo::l2_metric(), RewardShape::kLinear, true},
        CacheCase{geo::l2_metric(), RewardShape::kLinear, false},
        CacheCase{geo::l2_metric(), RewardShape::kBinary, true},
        CacheCase{geo::l2_metric(), RewardShape::kBinary, false},
        CacheCase{geo::linf_metric(), RewardShape::kLinear, true},
        CacheCase{geo::linf_metric(), RewardShape::kLinear, false},
        CacheCase{geo::linf_metric(), RewardShape::kBinary, true},
        CacheCase{geo::linf_metric(), RewardShape::kBinary, false}),
    [](const ::testing::TestParamInfo<CacheCase>& param_info) {
      std::string name = param_info.param.metric.name();
      name += param_info.param.shape == RewardShape::kLinear ? "_linear"
                                                              : "_binary";
      name += param_info.param.lent ? "_lent" : "_owned";
      return name;
    });

TEST(GainCache, RowOperationsMirrorTheStore) {
  GainCache cache;
  const double a[2] = {0.0, 0.0};
  const double b[2] = {5.0, 5.0};
  cache.insert(geo::ConstVec(a, 2));
  cache.update(0, geo::ConstVec(a, 2), geo::ConstVec(b, 2));
  EXPECT_TRUE(cache.empty()) << "an empty cache carries nothing";
  EXPECT_EQ(cache.touched(), 0u);

  // Three rows at x = 0, 10, 20: all summed by the first prepare.
  const geo::PointSet points(2, {0.0, 0.0, 10.0, 0.0, 20.0, 0.0});
  const geo::PointSet centers(2, {0.0, 0.0});
  const spatial::UniformGridIndex grid(points, kRadius);
  cache.prepare(points, centers, grid, geo::l2_metric(), kRadius);
  ASSERT_EQ(cache.size(), 3u);
  for (std::size_t row = 0; row < 3; ++row) {
    EXPECT_TRUE(cache.stale(row));
    cache.store(row, 1.0 + static_cast<double>(row));
  }
  cache.settle(centers);

  // Row 0 leaves: row 2 (at x = 20) takes over id 0 with its gain; both
  // positions are touched.
  cache.swap_remove(0, points[0], points[2]);
  ASSERT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache[0], 3.0);
  EXPECT_EQ(cache.touched(), 2u);
  const geo::PointSet after(2, {20.0, 0.0, 10.0, 0.0});
  const spatial::UniformGridIndex after_grid(after, kRadius);
  cache.prepare(after, centers, after_grid, geo::l2_metric(), kRadius);
  EXPECT_TRUE(cache.stale(0)) << "the relocated row";
  EXPECT_FALSE(cache.stale(1)) << "x = 10 is beyond r of both positions";
  EXPECT_EQ(cache[1], 2.0);
  EXPECT_EQ(cache.touched(), 0u);

  // A drifted sum is current now and stale at the next prepare; other
  // centers make every row stale.
  cache.store(0, 3.0);
  cache.store_drifted(1, 2.5);
  cache.settle(centers);
  cache.prepare(after, centers, after_grid, geo::l2_metric(), kRadius);
  EXPECT_FALSE(cache.stale(0));
  EXPECT_TRUE(cache.stale(1));
  cache.store(1, 2.0);
  const geo::PointSet moved(2, {1.0, 0.0});
  cache.prepare(after, moved, after_grid, geo::l2_metric(), kRadius);
  EXPECT_TRUE(cache.stale(0));
  EXPECT_TRUE(cache.stale(1));

  // Removing the last row empties the cache.
  GainCache one;
  const geo::PointSet single(2, {0.0, 0.0});
  const spatial::UniformGridIndex single_grid(single, kRadius);
  one.prepare(single, centers, single_grid, geo::l2_metric(), kRadius);
  one.swap_remove(0, single[0], single[0]);
  EXPECT_TRUE(one.empty());
  EXPECT_EQ(one.touched(), 0u);
}

TEST(GainCache, ScanModeCarriesNothing) {
  // A dense box: the evaluator scans, so no gains are kept at all.
  const geo::PointSet points(2, {0.0, 0.0, 0.5, 0.0, 0.0, 0.5, 0.4, 0.4});
  const Problem problem(points, {1.0, 2.0, 3.0, 4.0}, kRadius,
                        geo::l2_metric());
  ASSERT_EQ(SwapEvaluator(problem, problem.points()).index(), nullptr);
  GainCache cache;
  LsStats stats;
  const Solution seed = LazyGreedySolver().solve(problem, 1);
  (void)polish(problem, seed, problem.points(), {}, &stats, nullptr, &cache);
  EXPECT_TRUE(cache.empty());
  EXPECT_EQ(stats.gain_sums, 0u);
}

}  // namespace
}  // namespace mmph::core
