// mmph::spatial unit tests: the radius-query contract (ascending superset
// of the closed metric ball, exact unmasked-only results), residual-aware
// masking, and — the invariant the serve layer leans on — a randomized
// add/update/swap-remove churn schedule leaving the incremental index
// answering queries identically to an index built from scratch over the
// same rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "mmph/geometry/norms.hpp"
#include "mmph/geometry/point_set.hpp"
#include "mmph/random/rng.hpp"
#include "mmph/spatial/kd_index.hpp"
#include "mmph/spatial/spatial_index.hpp"
#include "mmph/spatial/uniform_grid.hpp"

namespace mmph::spatial {
namespace {

geo::PointSet random_points(std::size_t n, std::size_t dim, rnd::Rng& rng,
                            double lo = -4.0, double hi = 4.0) {
  geo::PointSet points(dim);
  points.reserve(n);
  std::vector<double> row(dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < dim; ++d) row[d] = rng.uniform(lo, hi);
    points.push_back(row);
  }
  return points;
}

/// Closed-ball reference: every unmasked id with d(center, p) <= radius.
std::vector<std::size_t> brute_ball(const SpatialIndex& index,
                                    geo::ConstVec center,
                                    const geo::Metric& metric) {
  std::vector<std::size_t> out;
  for (std::size_t id = 0; id < index.size(); ++id) {
    if (index.masked(id)) continue;
    if (metric.distance(center, index.point(id)) <= index.radius()) {
      out.push_back(id);
    }
  }
  return out;
}

/// The query contract: ascending, no duplicates, unmasked only, and a
/// superset of the closed metric ball.
void expect_query_contract(const SpatialIndex& index, geo::ConstVec center,
                           const geo::Metric& metric) {
  std::vector<std::size_t> got;
  index.query(center, got);
  ASSERT_TRUE(std::is_sorted(got.begin(), got.end()));
  ASSERT_EQ(std::adjacent_find(got.begin(), got.end()), got.end());
  for (const std::size_t id : got) {
    ASSERT_LT(id, index.size());
    EXPECT_FALSE(index.masked(id));
  }
  for (const std::size_t id : brute_ball(index, center, metric)) {
    EXPECT_TRUE(std::binary_search(got.begin(), got.end(), id))
        << "ball point " << id << " missing from query";
  }
}

TEST(SpatialIndex, GridQueryIsAscendingSupersetOfBall) {
  const geo::Metric metrics[] = {geo::l1_metric(), geo::l2_metric(),
                                 geo::linf_metric()};
  for (const std::size_t dim : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}}) {
    for (const geo::Metric& metric : metrics) {
      rnd::Rng rng(7 * dim + static_cast<std::uint64_t>(metric.norm()));
      const geo::PointSet points = random_points(300, dim, rng);
      const UniformGridIndex index(points, 1.0);
      std::vector<double> center(dim);
      for (int q = 0; q < 40; ++q) {
        for (std::size_t d = 0; d < dim; ++d) {
          center[d] = rng.uniform(-5.0, 5.0);
        }
        expect_query_contract(index, center, metric);
      }
    }
  }
}

/// The grid's cell size is a free parameter (the serve layer's grid
/// sharding picks its own); cells smaller than, equal to and larger than
/// the query radius must all keep the query contract, including for
/// centers outside the points' box.
class CellGridQuerySweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, double, int>> {
};

TEST_P(CellGridQuerySweep, MatchesBruteForceAcrossMetrics) {
  const auto [dim, cell_size, norm_id] = GetParam();
  const geo::Metric metric = norm_id == 1   ? geo::l1_metric()
                             : norm_id == 2 ? geo::l2_metric()
                                            : geo::linf_metric();
  rnd::Rng rng(7 + dim);
  const geo::PointSet points = random_points(150, dim, rng, 0.0, 4.0);
  std::vector<double> center(dim);
  for (int trial = 0; trial < 40; ++trial) {
    for (auto& v : center) v = rng.uniform(-1.0, 5.0);
    const double radius = rng.uniform(0.1, 2.5);
    const UniformGridIndex index(points, radius, cell_size);
    expect_query_contract(index, center, metric);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CellGridQuerySweep,
    ::testing::Combine(::testing::Values(std::size_t{2}, std::size_t{3}),
                       ::testing::Values(0.3, 1.0, 5.0),
                       ::testing::Values(1, 2, 0)));

TEST(SpatialIndex, KdQueryIsExactClosedBall) {
  for (const std::size_t dim : {std::size_t{2}, std::size_t{6}}) {
    const geo::Metric metric = geo::l2_metric();
    rnd::Rng rng(101 + dim);
    const geo::PointSet points = random_points(250, dim, rng);
    const KdTreeIndex index(points, 1.5, metric);
    std::vector<double> center(dim);
    for (int q = 0; q < 30; ++q) {
      for (std::size_t d = 0; d < dim; ++d) center[d] = rng.uniform(-5.0, 5.0);
      std::vector<std::size_t> got;
      index.query(center, got);
      // The kd-tree answers the exact ball, not just a superset.
      EXPECT_EQ(got, brute_ball(index, center, metric));
    }
  }
}

TEST(SpatialIndex, FactoryPicksGridLowDimKdHigh) {
  rnd::Rng rng(5);
  const geo::PointSet low = random_points(32, 2, rng);
  const geo::PointSet high = random_points(32, kGridMaxDim + 1, rng);
  EXPECT_EQ(make_index(low, 1.0, geo::l2_metric())->kind(), IndexKind::kGrid);
  EXPECT_EQ(make_index(high, 1.0, geo::l2_metric())->kind(),
            IndexKind::kKdTree);
}

TEST(SpatialIndex, MaskingDropsPointsAndUnmaskRestores) {
  for (const IndexKind kind : {IndexKind::kGrid, IndexKind::kKdTree}) {
    rnd::Rng rng(17);
    const geo::PointSet points = random_points(120, 2, rng);
    const auto index = make_index(kind, points, 1.0, geo::l2_metric());
    const double center[] = {0.0, 0.0};
    std::vector<std::size_t> before;
    index->query(center, before);
    ASSERT_FALSE(before.empty()) << index_kind_name(kind);

    for (std::size_t i = 0; i < before.size(); i += 2) {
      index->mask(before[i]);
      index->mask(before[i]);  // idempotent
    }
    std::vector<std::size_t> masked;
    index->query(center, masked);
    for (std::size_t i = 0; i < before.size(); ++i) {
      const bool expect_present = (i % 2) != 0;
      EXPECT_EQ(std::binary_search(masked.begin(), masked.end(), before[i]),
                expect_present)
          << index_kind_name(kind);
    }
    EXPECT_TRUE(index->verify()) << index_kind_name(kind);

    index->unmask_all();
    std::vector<std::size_t> after;
    index->query(center, after);
    EXPECT_EQ(after, before) << index_kind_name(kind);
    EXPECT_TRUE(index->verify()) << index_kind_name(kind);
  }
}

/// The serve-layer invariant: a randomized interleave of add / update /
/// swap_remove (mirroring InstanceStore churn) leaves the incremental
/// index answering every query identically to a from-scratch build over
/// the same final rows — and identically after an explicit rebuild().
TEST(SpatialIndex, RandomChurnMatchesFreshRebuild) {
  for (const IndexKind kind : {IndexKind::kGrid, IndexKind::kKdTree}) {
    const geo::Metric metric = geo::l2_metric();
    rnd::Rng rng(kind == IndexKind::kGrid ? 23 : 29);
    const std::size_t dim = 2;
    geo::PointSet points = random_points(80, dim, rng);
    const auto index = make_index(kind, points, 1.0, metric);

    // Shadow copy of the rows, mutated in lockstep.
    std::vector<std::vector<double>> rows;
    for (std::size_t i = 0; i < points.size(); ++i) {
      rows.emplace_back(points[i].begin(), points[i].end());
    }

    std::vector<double> p(dim);
    std::vector<double> center(dim);
    for (int step = 0; step < 600; ++step) {
      const std::int64_t op = rng.uniform_int(0, 2);
      if (op == 0 || rows.empty()) {
        for (std::size_t d = 0; d < dim; ++d) p[d] = rng.uniform(-4.0, 4.0);
        index->add(p);
        rows.push_back(p);
      } else if (op == 1) {
        const auto id = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(rows.size()) - 1));
        for (std::size_t d = 0; d < dim; ++d) p[d] = rng.uniform(-4.0, 4.0);
        index->update(id, p);
        rows[id] = p;
      } else {
        const auto id = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(rows.size()) - 1));
        index->swap_remove(id);
        rows[id] = rows.back();
        rows.pop_back();
      }
      if (step % 40 == 0) {
        ASSERT_TRUE(index->verify())
            << index_kind_name(kind) << " step " << step;
      }
      ASSERT_EQ(index->size(), rows.size());

      // Occasionally compare against a from-scratch build over the rows.
      if (step % 25 != 0) continue;
      std::vector<double> flat;
      for (const auto& row : rows) {
        flat.insert(flat.end(), row.begin(), row.end());
      }
      const geo::PointSet fresh_points(dim, flat);
      const auto fresh = make_index(kind, fresh_points, 1.0, metric);
      for (int q = 0; q < 10; ++q) {
        for (std::size_t d = 0; d < dim; ++d) {
          center[d] = rng.uniform(-5.0, 5.0);
        }
        std::vector<std::size_t> got, want;
        index->query(center, got);
        fresh->query(center, want);
        ASSERT_EQ(got, want)
            << index_kind_name(kind) << " step " << step << " query " << q;
      }
    }

    // Coordinates survived the churn exactly.
    for (std::size_t id = 0; id < rows.size(); ++id) {
      for (std::size_t d = 0; d < dim; ++d) {
        ASSERT_EQ(index->point(id)[d], rows[id][d]);
      }
    }

    // An explicit rebuild (the corruption-recovery path) changes nothing.
    std::vector<std::size_t> before, after;
    const double origin[] = {0.0, 0.0};
    index->query(origin, before);
    index->rebuild();
    EXPECT_TRUE(index->verify());
    index->query(origin, after);
    EXPECT_EQ(after, before) << index_kind_name(kind);
  }
}

TEST(SpatialIndex, StatsCountQueriesTouchesUpdatesRebuilds) {
  rnd::Rng rng(31);
  const geo::PointSet points = random_points(50, 2, rng);
  UniformGridIndex index(points, 1.0);
  const IndexStats built = index.stats();
  EXPECT_EQ(built.rebuilds, 1u);  // the constructor's bulk build
  EXPECT_EQ(built.queries, 0u);
  EXPECT_EQ(built.incremental_updates, 0u);

  const double center[] = {0.0, 0.0};
  std::vector<std::size_t> out;
  index.query(center, out);
  const double far[] = {100.0, 100.0};
  index.query(far, out);
  const IndexStats queried = index.stats();
  EXPECT_EQ(queried.queries, 2u);
  EXPECT_GE(queried.points_touched, 1u);  // the far query touched nothing

  const double p[] = {0.1, 0.2};
  index.add(p);
  index.update(0, p);
  index.swap_remove(0);
  EXPECT_EQ(index.stats().incremental_updates, 3u);

  index.rebuild();
  EXPECT_EQ(index.stats().rebuilds, 2u);
}

TEST(SpatialIndex, KdLooseRowsFoldBackViaAmortizedRebuild) {
  rnd::Rng rng(37);
  const geo::PointSet points = random_points(64, 2, rng);
  KdTreeIndex index(points, 1.0, geo::l2_metric());
  const std::uint64_t builds = index.stats().rebuilds;
  std::vector<double> p(2);
  // Push far past the loose-row threshold; the index must have folded the
  // overlay back into the tree at least once and stayed queryable.
  for (int i = 0; i < 300; ++i) {
    p[0] = rng.uniform(-4.0, 4.0);
    p[1] = rng.uniform(-4.0, 4.0);
    index.add(p);
  }
  EXPECT_GT(index.stats().rebuilds, builds);
  EXPECT_LE(index.loose_count(), index.size() / 8 + 64);
  EXPECT_TRUE(index.verify());
  const double center[] = {0.0, 0.0};
  expect_query_contract(index, center, geo::l2_metric());
}

}  // namespace
}  // namespace mmph::spatial
