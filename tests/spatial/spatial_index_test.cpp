// mmph::spatial unit tests: the radius-query contract (ascending superset
// of the closed metric ball, exact unmasked-only results) on both indexes,
// saturated cell coordinates, residual-aware masking, and — the invariant
// the serve layer leans on — a randomized add/update/swap-remove churn
// schedule leaving the carried grid answering queries identically to a
// grid built from scratch over the same rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "mmph/geometry/norms.hpp"
#include "mmph/geometry/point_set.hpp"
#include "mmph/random/rng.hpp"
#include "mmph/spatial/kd_index.hpp"
#include "mmph/spatial/region_map.hpp"
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

/// Closed-ball reference: every id of \p points with d(center, p) <= radius.
std::vector<std::size_t> brute_ball(const geo::PointSet& points,
                                    geo::ConstVec center, double radius,
                                    const geo::Metric& metric) {
  std::vector<std::size_t> out;
  for (std::size_t id = 0; id < points.size(); ++id) {
    if (metric.distance(center, points[id]) <= radius) out.push_back(id);
  }
  return out;
}

/// The query contract on an unmasked index over \p points: ascending, no
/// duplicates, and a superset of the closed metric ball.
void expect_query_contract(const SpatialIndex& index,
                           const geo::PointSet& points, geo::ConstVec center,
                           const geo::Metric& metric) {
  std::vector<std::size_t> got;
  index.query(center, got);
  ASSERT_TRUE(std::is_sorted(got.begin(), got.end()));
  ASSERT_EQ(std::adjacent_find(got.begin(), got.end()), got.end());
  for (const std::size_t id : got) ASSERT_LT(id, index.size());
  for (const std::size_t id :
       brute_ball(points, center, index.radius(), metric)) {
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
        expect_query_contract(index, points, center, metric);
      }
    }
  }
}

TEST(SpatialIndex, CellCoordSaturatesBeyondTheLimit) {
  EXPECT_EQ(cell_coord(2.5, 1.0), 2);
  EXPECT_EQ(cell_coord(-0.5, 1.0), -1);
  EXPECT_EQ(cell_coord(-3.0, 0.5), -6);
  EXPECT_EQ(cell_coord(1e300, 1.0), kCellCoordLimit);
  EXPECT_EQ(cell_coord(-1e300, 1.0), -kCellCoordLimit);
  EXPECT_EQ(cell_coord(1e300, 1e-300), kCellCoordLimit);
  const double limit = static_cast<double>(kCellCoordLimit);
  EXPECT_EQ(cell_coord(limit, 1.0), kCellCoordLimit);
  EXPECT_EQ(cell_coord(-limit, 1.0), -kCellCoordLimit);
  EXPECT_EQ(cell_coord(limit / 2, 1.0), kCellCoordLimit / 2);
}

/// A finite coordinate far beyond any representable cell (the wire accepts
/// any finite interest) lands in a saturated cell, and the grid still
/// keeps the query contract around it and around the origin.
TEST(SpatialIndex, GridQueryKeepsContractAtExtremeCoordinates) {
  const double big = 1e300;
  geo::PointSet points(2);
  for (const double x : {-big, -1.0, 0.0, 0.5, big}) {
    for (const double y : {-big, 0.0, big}) {
      const double p[] = {x, y};
      points.push_back(p);
    }
  }
  const UniformGridIndex index(points, 1.0);
  EXPECT_TRUE(index.verify());
  for (const geo::Metric& metric : {geo::l2_metric(), geo::linf_metric()}) {
    for (const double cx : {-big, 0.0, big}) {
      for (const double cy : {-big, 0.0, big}) {
        const double center[] = {cx, cy};
        expect_query_contract(index, points, center, metric);
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
    expect_query_contract(index, points, center, metric);
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
      EXPECT_EQ(got, brute_ball(points, center, index.radius(), metric));
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

/// Masks checked through query() alone: a masked id leaves every ball, the
/// rest stay, and unmask_all() restores the first answer. Both kinds, and
/// the kd-tree at dim 6, where it is the only index.
TEST(SpatialIndex, MaskingDropsPointsAndUnmaskRestores) {
  const std::tuple<IndexKind, std::size_t, double> inputs[] = {
      {IndexKind::kGrid, 2, 1.0},
      {IndexKind::kKdTree, 2, 1.0},
      {IndexKind::kKdTree, 6, 5.0},
  };
  for (const auto& [kind, dim, radius] : inputs) {
    rnd::Rng rng(17);
    const geo::PointSet points = random_points(120, dim, rng);
    const auto index = make_index(kind, points, radius, geo::l2_metric());
    const std::string label =
        std::string(index_kind_name(kind)) + " dim " + std::to_string(dim);
    const std::vector<double> center(dim, 0.0);
    std::vector<std::size_t> before;
    index->query(center, before);
    ASSERT_GE(before.size(), 2u) << label;

    for (std::size_t i = 0; i < before.size(); i += 2) {
      index->mask(before[i]);
      index->mask(before[i]);  // idempotent
    }
    std::vector<std::size_t> masked;
    index->query(center, masked);
    std::vector<std::size_t> own;
    for (std::size_t i = 0; i < before.size(); ++i) {
      const bool expect_present = (i % 2) != 0;
      EXPECT_EQ(std::binary_search(masked.begin(), masked.end(), before[i]),
                expect_present)
          << label;
      // Centered on the point itself: masked ids leave every ball.
      index->query(points[before[i]], own);
      EXPECT_EQ(std::binary_search(own.begin(), own.end(), before[i]),
                expect_present)
          << label;
    }

    index->unmask_all();
    std::vector<std::size_t> after;
    index->query(center, after);
    EXPECT_EQ(after, before) << label;
  }
}

/// The serve-layer invariant: a randomized interleave of add / update /
/// swap_remove (mirroring InstanceStore churn) leaves the carried grid
/// structurally sound and answering every query identically to a
/// from-scratch build over the same final rows.
TEST(SpatialIndex, RandomChurnMatchesFreshRebuild) {
  rnd::Rng rng(23);
  const std::size_t dim = 2;
  const geo::PointSet points = random_points(80, dim, rng);
  UniformGridIndex index(points, 1.0);

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
      index.add(p);
      rows.push_back(p);
    } else if (op == 1) {
      const auto id = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(rows.size()) - 1));
      for (std::size_t d = 0; d < dim; ++d) p[d] = rng.uniform(-4.0, 4.0);
      index.update(id, p);
      rows[id] = p;
    } else {
      const auto id = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(rows.size()) - 1));
      index.swap_remove(id);
      rows[id] = rows.back();
      rows.pop_back();
    }
    if (step % 40 == 0) ASSERT_TRUE(index.verify()) << "step " << step;
    ASSERT_EQ(index.size(), rows.size());

    // Occasionally compare against a from-scratch build over the rows.
    if (step % 25 != 0) continue;
    std::vector<double> flat;
    for (const auto& row : rows) {
      flat.insert(flat.end(), row.begin(), row.end());
    }
    const geo::PointSet fresh_points(dim, flat);
    const UniformGridIndex fresh(fresh_points, 1.0);
    for (int q = 0; q < 10; ++q) {
      for (std::size_t d = 0; d < dim; ++d) {
        center[d] = rng.uniform(-5.0, 5.0);
      }
      std::vector<std::size_t> got, want;
      index.query(center, got);
      fresh.query(center, want);
      ASSERT_EQ(got, want) << "step " << step << " query " << q;
    }
  }

  // Coordinates survived the churn exactly.
  for (std::size_t id = 0; id < rows.size(); ++id) {
    for (std::size_t d = 0; d < dim; ++d) {
      ASSERT_EQ(index.point(id)[d], rows[id][d]);
    }
  }
  EXPECT_TRUE(index.verify());
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
  EXPECT_EQ(index.stats().rebuilds, 1u);  // row operations never rebuild
}

/// Cells saturate rather than overflow, so every finite interest has a
/// shard; a cell that fits hashes exactly as floor(v / cell) always did.
TEST(RegionMap, FarCoordinatesMapToAShardAndNearOnesKeepTheirHash) {
  const RegionMap map(2, 0.5, 4);
  for (const double x : {-1e300, -1e19, 0.0, 1e19, 1e300}) {
    for (const double y : {-1e300, 0.0, 1e300}) {
      const double p[] = {x, y};
      EXPECT_LT(map.shard_of(p), 4u) << x << ", " << y;
    }
  }
  rnd::Rng rng(41);
  for (int i = 0; i < 200; ++i) {
    const double p[] = {rng.uniform(-1e6, 1e6), rng.uniform(-3.0, 3.0)};
    std::uint64_t h = 1469598103934665603ull;
    for (const double v : p) {
      h ^= static_cast<std::uint64_t>(
          static_cast<std::int64_t>(std::floor(v / 0.5)));
      h *= 1099511628211ull;
    }
    EXPECT_EQ(map.shard_of(p), static_cast<std::size_t>(h % 4));
  }
}

}  // namespace
}  // namespace mmph::spatial
