// Serve-path spatial index: a PlacementService carrying its coverage grid
// across churn epochs (incremental add/update/swap-remove mirror, warm
// index) must answer with placements bit-identical to a twin service
// running unindexed — and to a cold service fed the same final state.
// The warm 1-swap refine reads the same carried grid, bit-identical to an
// unindexed twin. Also pins the mmph_spatial_* counters: present in the
// registry at zero when the index is off, advancing when it is on.

#include "mmph/serve/placement_service.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "mmph/core/kernels.hpp"
#include "mmph/core/objective.hpp"
#include "mmph/random/rng.hpp"
#include "mmph/random/workload.hpp"

namespace mmph::serve {
namespace {

std::vector<UserRecord> make_users(std::size_t n, std::uint64_t seed,
                                   double side = 4.0) {
  rnd::WorkloadSpec spec;
  spec.n = n;
  spec.box_side = side;
  rnd::Rng rng(seed);
  const rnd::Workload workload = rnd::generate_workload(spec, rng);
  std::vector<UserRecord> users;
  users.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    UserRecord rec;
    rec.id = i;
    rec.weight = workload.weights[i];
    rec.interest.assign(workload.points[i].begin(), workload.points[i].end());
    users.push_back(std::move(rec));
  }
  return users;
}

UserRecord fresh_user(std::uint64_t id, rnd::Rng& rng, double side = 4.0) {
  UserRecord rec;
  rec.id = id;
  rec.weight = 1.0 + static_cast<double>(rng.uniform_int(0, 4));
  rec.interest = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  return rec;
}

void expect_same_placement(const PlacementView& got, const PlacementView& want,
                           const std::string& context) {
  ASSERT_EQ(got.population, want.population) << context;
  EXPECT_EQ(got.objective, want.objective) << context;  // bitwise
  ASSERT_EQ(got.solution.centers.size(), want.solution.centers.size())
      << context;
  for (std::size_t c = 0; c < got.solution.centers.size(); ++c) {
    for (std::size_t d = 0; d < got.solution.centers.dim(); ++d) {
      EXPECT_EQ(got.solution.centers[c][d], want.solution.centers[c][d])
          << context << " center " << c << " coord " << d;
    }
  }
}

ServiceConfig small_config() {
  ServiceConfig config;
  config.k = 3;
  // Re-solve from scratch on every epoch so each tick exercises the
  // carried index rather than the warm 1-swap refine.
  config.full_solve_churn_fraction = 0.0;
  return config;
}

/// Twin services fed the same churn stream, one indexed (kGrid: the grid
/// is kept and incrementally mirrored through every mutation) and one
/// unindexed, solving every epoch: placements must stay bit-identical.
/// A third, cold service is rebuilt from the live state each epoch to pin
/// warm-vs-cold equality of the carried index.
TEST(SpatialServe, WarmIndexMatchesUnindexedAndColdEveryEpoch) {
  PlacementService indexed(small_config());
  PlacementService plain(small_config());

  const std::vector<UserRecord> initial = make_users(160, 2026);
  {
    const core::kernels::ScopedIndexMode on(core::kernels::IndexMode::kGrid);
    indexed.apply_add(initial);
  }
  plain.apply_add(initial);

  std::vector<UserRecord> live = initial;
  rnd::Rng rng(99);
  std::uint64_t next_id = initial.size();

  for (int epoch = 0; epoch < 25; ++epoch) {
    // A small mixed mutation batch: adds, moves (upserts), removes. The
    // `live` shadow replays the exact store semantics in the same order —
    // upserts append or update in place, removes swap-pop — so the cold
    // control sees the identical row order (row order is FP association
    // order, so it matters bit-for-bit).
    std::vector<UserRecord> adds;
    adds.push_back(fresh_user(next_id++, rng));
    live.push_back(adds.back());
    {  // move an existing user
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      UserRecord moved = live[at];
      moved.interest = {rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)};
      live[at] = moved;
      adds.push_back(std::move(moved));
    }
    std::vector<std::uint64_t> removes;
    if (live.size() > 8 && epoch % 3 == 0) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      removes.push_back(live[at].id);
      live[at] = live.back();
      live.pop_back();
    }

    PlacementView warm, cold, unindexed;
    {
      const core::kernels::ScopedIndexMode on(core::kernels::IndexMode::kGrid);
      indexed.apply_add(adds);
      if (!removes.empty()) indexed.apply_remove(removes);
      warm = indexed.placement();

      // Cold control: a fresh service (fresh grid) over the same state.
      PlacementService scratch(small_config());
      scratch.apply_add(live);
      cold = scratch.placement();
    }
    {
      const core::kernels::ScopedIndexMode off(core::kernels::IndexMode::kNone);
      plain.apply_add(adds);
      if (!removes.empty()) plain.apply_remove(removes);
      unindexed = plain.placement();
    }

    const std::string context = "epoch " + std::to_string(epoch);
    expect_same_placement(warm, unindexed, context + " warm-vs-unindexed");
    expect_same_placement(warm, cold, context + " warm-vs-cold");
  }

  // The carried index actually worked incrementally: mutations were
  // mirrored rather than answered with rebuilds, and queries flowed.
  const MetricsSnapshot snap = indexed.metrics();
  EXPECT_GT(snap.spatial_queries, 0u);
  EXPECT_GT(snap.spatial_points_touched, 0u);
  EXPECT_GT(snap.spatial_incremental_updates, 0u);
  EXPECT_GT(snap.spatial_rebuilds, 0u);  // the initial build at least
  EXPECT_LT(snap.spatial_rebuilds, 5u)
      << "churn should mirror into the carried grid, not rebuild it";

  // Unindexed twin never touched a spatial index.
  const MetricsSnapshot off = plain.metrics();
  EXPECT_EQ(off.spatial_queries, 0u);
  EXPECT_EQ(off.spatial_rebuilds, 0u);
}

/// Shrink to zero, then regrow. Every removal swap-pops a store row and
/// mirrors into the carried grid as swap_remove; as the population drains,
/// each cell eventually loses its final row, and a stale cell-map slot
/// left behind by that eviction would poison radius queries on the next
/// epoch. Solving after every single removal walks the grid through all of
/// those final-row evictions with the unindexed twin as the oracle; the
/// empty-out itself must drop the index (epoch 0 has nothing to query),
/// and the regrown population must match the twin bitwise again.
TEST(SpatialServe, ChurnToZeroAndRegrowKeepsTheGridExact) {
  PlacementService indexed(small_config());
  PlacementService plain(small_config());

  const std::vector<UserRecord> initial = make_users(96, 424242);
  {
    const core::kernels::ScopedIndexMode on(core::kernels::IndexMode::kGrid);
    indexed.apply_add(initial);
    (void)indexed.placement();
  }
  plain.apply_add(initial);
  (void)plain.placement();

  // Drain one user at a time in a shuffled order (so cells empty at
  // scattered moments, not back to front), solving both twins each step.
  std::vector<std::uint64_t> order;
  order.reserve(initial.size());
  for (const UserRecord& rec : initial) order.push_back(rec.id);
  rnd::Rng rng(7);
  for (std::size_t i = order.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    PlacementView warm, unindexed;
    {
      const core::kernels::ScopedIndexMode on(core::kernels::IndexMode::kGrid);
      indexed.apply_remove({order[i]});
      warm = indexed.placement();
    }
    plain.apply_remove({order[i]});
    unindexed = plain.placement();
    expect_same_placement(warm, unindexed,
                          "after removal " + std::to_string(i));
  }
  EXPECT_EQ(indexed.population(), 0u);
  EXPECT_EQ(indexed.placement().solution.centers.size(), 0u);

  // Regrow from empty with fresh ids at fresh coordinates: the first solve
  // builds a new grid over the new rows, and warm churn on top of it keeps
  // matching the twin.
  const std::vector<UserRecord> regrown = [&] {
    std::vector<UserRecord> users = make_users(48, 515151);
    for (UserRecord& rec : users) rec.id += 1000;
    return users;
  }();
  for (const UserRecord& rec : regrown) {
    PlacementView warm, unindexed;
    {
      const core::kernels::ScopedIndexMode on(core::kernels::IndexMode::kGrid);
      indexed.apply_add({rec});
      warm = indexed.placement();
    }
    plain.apply_add({rec});
    unindexed = plain.placement();
    expect_same_placement(warm, unindexed, "regrow id " + std::to_string(rec.id));
  }

  // The whole drain and regrow was mirrored incrementally: one build per
  // index lifetime (initial + post-regrow), not a rebuild per eviction.
  const MetricsSnapshot snap = indexed.metrics();
  EXPECT_GT(snap.spatial_incremental_updates, 0u);
  EXPECT_LE(snap.spatial_rebuilds, 3u)
      << "final-row evictions must mirror into the grid, not force rebuilds";
}

/// The warm 1-swap refine borrows the carried grid. Twin services at
/// ~10 users/unit² (sparse enough that both the kAuto policy and the swap
/// evaluator's density test pick an index) stay on the warm path for 25
/// churn epochs — one lending its kGrid index, one at kNone (the evaluator
/// gathers through an index of its own). Placements must be bitwise equal,
/// the reported objective must be f(C) on the live population, and every
/// epoch after the first must be counted as incremental.
TEST(SpatialServe, WarmRefineOnTheCarriedGridMatchesUnindexed) {
  constexpr std::size_t kUsers = 4096;
  const double side = std::sqrt(static_cast<double>(kUsers) / 10.0);
  ServiceConfig config;
  config.full_solve_churn_fraction = 1.0;  // warm after the first solve
  PlacementService indexed(config);
  PlacementService plain(config);

  std::vector<UserRecord> live = make_users(kUsers, 2011, side);
  rnd::Rng rng(77);
  std::uint64_t next_id = kUsers;
  std::uint64_t warm_queries = 0;
  for (int epoch = 0; epoch <= 25; ++epoch) {
    // Epoch 0 loads the population (the one full solve); each later epoch
    // churns 4 leaves, 4 moves and 4 joins.
    std::vector<UserRecord> upserts = epoch == 0 ? live
                                                 : std::vector<UserRecord>{};
    std::vector<std::uint64_t> removes;
    for (int m = 0; epoch > 0 && m < 4; ++m) {
      const auto leave = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      removes.push_back(live[leave].id);
      live[leave] = live.back();
      live.pop_back();
    }
    for (int m = 0; epoch > 0 && m < 4; ++m) {
      const auto move = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      live[move].interest = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
      upserts.push_back(live[move]);
      live.push_back(fresh_user(next_id++, rng, side));
      upserts.push_back(live.back());
    }

    PlacementView warm, unindexed;
    {
      const core::kernels::ScopedIndexMode on(core::kernels::IndexMode::kGrid);
      if (!removes.empty()) indexed.apply_remove(removes);
      const std::uint64_t before = indexed.metrics().spatial_queries;
      indexed.apply_add(upserts);
      warm = indexed.placement();
      if (epoch > 0) warm_queries += indexed.metrics().spatial_queries - before;
    }
    {
      const core::kernels::ScopedIndexMode off(core::kernels::IndexMode::kNone);
      if (!removes.empty()) plain.apply_remove(removes);
      plain.apply_add(upserts);
      unindexed = plain.placement();
    }
    const std::string context = "epoch " + std::to_string(epoch);
    expect_same_placement(warm, unindexed, context);

    // Independent oracle: f(C) from scratch on the live population.
    geo::PointSet points(2);
    std::vector<double> weights;
    for (const UserRecord& rec : live) {
      points.push_back(rec.interest);
      weights.push_back(rec.weight);
    }
    const core::Problem problem(std::move(points), std::move(weights),
                                config.radius, config.metric, config.shape);
    const double want = core::objective_value(problem, warm.solution.centers);
    EXPECT_NEAR(warm.objective, want, 1e-9 * want) << context;
  }

  for (const PlacementService* service : {&indexed, &plain}) {
    const MetricsSnapshot snap = service->metrics();
    EXPECT_EQ(snap.full_solves, 1u);
    EXPECT_EQ(snap.incremental_solves, 25u);
  }
  EXPECT_GT(warm_queries, 0u) << "the warm refine must query the lent grid";
}

/// The counters are registered (scrapable) even before any index exists,
/// and the registry exposition carries them under their mmph_spatial_*
/// names once the indexed path has run.
TEST(SpatialServe, SpatialCountersAreRegisteredAndAdvance) {
  PlacementService service(small_config());
  const MetricsSnapshot before = service.metrics();
  EXPECT_EQ(before.spatial_queries, 0u);
  EXPECT_EQ(before.spatial_rebuilds, 0u);

  {
    const core::kernels::ScopedIndexMode on(core::kernels::IndexMode::kGrid);
    service.apply_add(make_users(64, 7));
    (void)service.placement();
  }
  const MetricsSnapshot after = service.metrics();
  EXPECT_GT(after.spatial_queries, 0u);
  EXPECT_EQ(after.spatial_rebuilds, 1u);

  const std::string exposition = service.metrics_registry().exposition_text();
  EXPECT_NE(exposition.find("mmph_spatial_queries_total"), std::string::npos);
  EXPECT_NE(exposition.find("mmph_spatial_rebuilds_total"), std::string::npos);
  EXPECT_NE(exposition.find("mmph_spatial_points_touched_total"),
            std::string::npos);
  EXPECT_NE(exposition.find("mmph_spatial_incremental_updates_total"),
            std::string::npos);
}

}  // namespace
}  // namespace mmph::serve
