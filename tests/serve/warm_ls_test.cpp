// Warm re-solves of the placement service. Seven layers:
//
//   1. the polish contract under churn — polishing a solution carried
//      over from the previous epoch (re-accounted against the mutated
//      instance) is never worse than that carried seed, for 25 epochs;
//   2. the service wiring — a PlacementService on SolverTier::kLs rides
//      the incremental warm path across 25 churn epochs, its placements
//      always at least as good as a config-identical kLazy service fed
//      the same mutations, with the mmph_ls_* counters advancing;
//   3. the history — a kLs warm re-solve starts from the placement the
//      service served, so a change that touches no coverage ball leaves
//      the polished placement exactly where it was;
//   4. the warm kLazy path pinned — a digest of every center coordinate
//      and objective bit over 25 incremental churn epochs, under the
//      carried grid and without an index;
//   5. the warm kLs path pinned the same way, at the polish-ls
//      benchmark's shape: ~2.5k users at 10 per unit², slots of 25
//      joins, leaves and moves, one placement per slot;
//   6. the carried marginal gains — every warm kLs placement equals a
//      cache-less core::polish of the served centers over a reference
//      copy of the rows, counters included, through an injected
//      evaluation fault, a failed index mirror and a restore;
//   7. the polish's own grid in the mmph_spatial_* counters — with no
//      carried index, each warm kLs polish queries a grid it built, and
//      those queries are counted like the carried grid's.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "mmph/core/kernels.hpp"
#include "mmph/core/local_search.hpp"
#include "mmph/core/objective.hpp"
#include "mmph/core/reward.hpp"
#include "mmph/core/swap_evaluator.hpp"
#include "mmph/random/pcg64.hpp"
#include "mmph/serve/fault.hpp"
#include "mmph/serve/placement_service.hpp"

namespace mmph::serve {
namespace {

UserRecord make_user(std::uint64_t id, rnd::Pcg64& rng, double side = 4.0) {
  UserRecord user;
  user.id = id;
  user.interest = {side * rng.next_double(), side * rng.next_double()};
  user.weight = 1.0 + rng.next_double();
  return user;
}

/// Exact per-round accounting of \p centers against \p problem (the
/// previous epoch's placement re-valued on the mutated instance).
core::Solution account(const core::Problem& problem,
                       const geo::PointSet& centers) {
  core::Solution out;
  out.solver_name = "carried";
  out.centers = centers;
  std::vector<double> residual = core::fresh_residual(problem);
  for (std::size_t j = 0; j < centers.size(); ++j) {
    const double g = core::apply_center(problem, centers[j], residual);
    out.round_rewards.push_back(g);
    out.total_reward += g;
  }
  return out;
}

TEST(WarmLs, PolishOfCarriedPlacementNeverLosesToItsSeed) {
  rnd::Pcg64 rng(7);
  geo::PointSet points(2);
  std::vector<double> weights;
  for (std::size_t i = 0; i < 300; ++i) {
    const double row[2] = {4.0 * rng.next_double(), 4.0 * rng.next_double()};
    points.push_back(geo::ConstVec(row, 2));
    weights.push_back(1.0 + rng.next_double());
  }

  geo::PointSet carried(2);  // previous epoch's centers (seeded arbitrary)
  for (std::size_t j = 0; j < 5; ++j) carried.push_back(points[j]);

  int improved_epochs = 0;
  for (int epoch = 0; epoch < 25; ++epoch) {
    // Churn ~5% of the population, then re-solve warm from `carried`.
    for (int c = 0; c < 15; ++c) {
      const std::size_t at = rng.next_below(points.size());
      const double row[2] = {4.0 * rng.next_double(),
                             4.0 * rng.next_double()};
      geo::assign(points.mutable_point(at), geo::ConstVec(row, 2));
      weights[at] = 1.0 + rng.next_double();
    }
    const core::Problem problem(points, weights, 1.0, geo::l2_metric());
    const core::Solution seed = account(problem, carried);
    core::LsStats stats;
    const core::Solution polished =
        core::polish(problem, seed, problem.points(), {}, &stats);
    EXPECT_GE(polished.total_reward, seed.total_reward)
        << "epoch " << epoch;
    EXPECT_FALSE(stats.aborted) << "epoch " << epoch;
    if (stats.improved) ++improved_epochs;
    carried = polished.centers;
  }
  // Churn keeps invalidating the carried placement; the polish must be
  // doing real work across the run, not no-op'ing 25 times.
  EXPECT_GE(improved_epochs, 5);
}

TEST(WarmLs, ServiceOnLsTierTracksOrBeatsLazyAcrossChurnEpochs) {
  ServiceConfig ls_config;
  ls_config.dim = 2;
  ls_config.k = 4;
  ls_config.radius = 1.0;
  ls_config.solver = SolverTier::kLs;
  // Generous threshold: the ~5% churn below stays on the incremental warm
  // path, which is exactly the "LS seeded from the previous placement"
  // wiring under test.
  ls_config.full_solve_churn_fraction = 0.5;
  PlacementService ls_service(ls_config);

  ServiceConfig lazy_config = ls_config;
  lazy_config.solver = SolverTier::kLazy;
  PlacementService lazy_service(lazy_config);

  rnd::Pcg64 rng(11);
  std::uint64_t next_id = 1;
  std::vector<std::uint64_t> live;

  std::vector<UserRecord> initial;
  for (std::size_t i = 0; i < 250; ++i) {
    live.push_back(next_id);
    initial.push_back(make_user(next_id++, rng));
  }
  ls_service.apply_add(initial);
  lazy_service.apply_add(initial);

  for (int epoch = 0; epoch < 25; ++epoch) {
    std::vector<std::uint64_t> removed;
    for (int c = 0; c < 6; ++c) {
      const std::size_t at = rng.next_below(live.size());
      removed.push_back(live[at]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
    }
    std::vector<UserRecord> added;
    for (int c = 0; c < 6; ++c) {
      live.push_back(next_id);
      added.push_back(make_user(next_id++, rng));
    }
    ls_service.apply_remove(removed);
    lazy_service.apply_remove(removed);
    ls_service.apply_add(added);
    lazy_service.apply_add(added);

    const PlacementView ls_view = ls_service.placement();
    const PlacementView lazy_view = lazy_service.placement();
    EXPECT_GE(ls_view.objective, lazy_view.objective) << "epoch " << epoch;
    EXPECT_EQ(ls_view.epoch, lazy_view.epoch) << "epoch " << epoch;
  }

  const MetricsSnapshot m = ls_service.metrics();
  EXPECT_GT(m.ls_evals, 0u);
  EXPECT_GT(m.incremental_solves, 0u)
      << "churn was meant to ride the warm path";
  const MetricsSnapshot lazy_m = lazy_service.metrics();
  EXPECT_EQ(lazy_m.ls_evals, 0u) << "kLazy must not touch the polish tier";
}

TEST(WarmLs, WarmResolveStartsFromTheServedPlacement) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    ServiceConfig config;
    config.dim = 2;
    config.k = 4;
    config.radius = 1.0;
    config.solver = SolverTier::kLs;
    PlacementService service(config);

    rnd::Pcg64 rng(seed);
    std::vector<UserRecord> users;
    for (std::uint64_t id = 1; id <= 300; ++id) {
      users.push_back(make_user(id, rng));
    }
    service.apply_add(users);
    const PlacementView cold = service.placement();
    const MetricsSnapshot after_cold = service.metrics();
    ASSERT_GT(after_cold.ls_moves, 0u) << "seed " << seed;

    // A light user far outside the box: inside no coverage ball, worth
    // less than any center it could pull away. The served placement is
    // still a local optimum, so the warm polish must find nothing to do.
    UserRecord far;
    far.id = 301;
    far.interest = {50.0, 50.0};
    far.weight = 0.01;
    service.apply_add({far});
    const PlacementView warm = service.placement();
    const MetricsSnapshot after_warm = service.metrics();

    EXPECT_EQ(after_warm.incremental_solves, after_cold.incremental_solves + 1)
        << "seed " << seed;
    EXPECT_EQ(after_warm.ls_moves, after_cold.ls_moves)
        << "seed " << seed << ": the warm re-solve re-committed moves";
    ASSERT_EQ(warm.solution.centers.size(), cold.solution.centers.size());
    for (std::size_t c = 0; c < cold.solution.centers.size(); ++c) {
      for (std::size_t d = 0; d < 2; ++d) {
        EXPECT_EQ(warm.solution.centers[c][d], cold.solution.centers[c][d])
            << "seed " << seed << " center " << c << " coord " << d;
      }
    }
  }
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
  [[nodiscard]] std::uint64_t value() const noexcept { return fnv_; }

 private:
  std::uint64_t fnv_ = 1469598103934665603ull;
};

// Digest of the 25 incremental kLazy placements below, computed against
// the service before its warm path became one core::polish call (the
// planner's hand-written swap loop); both index modes must reproduce it.
constexpr std::uint64_t kWarmLazyDigest = 0x46fd5c5658bf9772ull;

TEST(WarmLazy, IncrementalPlacementDigestIsPinned) {
  for (const core::kernels::IndexMode mode :
       {core::kernels::IndexMode::kGrid, core::kernels::IndexMode::kNone}) {
    const core::kernels::ScopedIndexMode scoped(mode);
    ServiceConfig config;
    config.dim = 2;
    config.k = 6;
    config.radius = 1.0;
    PlacementService service(config);

    // About 10 users per unit², so the carried grid prunes the balls.
    constexpr double kSide = 14.0;
    rnd::Pcg64 rng(2026);
    std::uint64_t next_id = 1;
    std::vector<std::uint64_t> live;
    std::vector<UserRecord> initial;
    for (std::size_t i = 0; i < 2000; ++i) {
      live.push_back(next_id);
      initial.push_back(make_user(next_id++, rng, kSide));
    }
    service.apply_add(initial);
    (void)service.placement();  // the full solve the epochs warm-start from

    Digest digest;
    for (int epoch = 0; epoch < 25; ++epoch) {
      // 40 of ~2000 users churn: 2 %, under the 5 % full-solve threshold.
      std::vector<std::uint64_t> removed;
      for (int c = 0; c < 20; ++c) {
        const std::size_t at = rng.next_below(live.size());
        removed.push_back(live[at]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
      }
      std::vector<UserRecord> added;
      for (int c = 0; c < 20; ++c) {
        live.push_back(next_id);
        added.push_back(make_user(next_id++, rng, kSide));
      }
      service.apply_remove(removed);
      service.apply_add(added);

      const PlacementView view = service.placement();
      digest.mix(view.objective);
      digest.mix(static_cast<std::uint64_t>(view.solution.centers.size()));
      for (std::size_t c = 0; c < view.solution.centers.size(); ++c) {
        for (std::size_t d = 0; d < 2; ++d) {
          digest.mix(view.solution.centers[c][d]);
        }
      }
    }
    const char* name = core::kernels::index_mode_name(mode);
    EXPECT_EQ(service.metrics().incremental_solves, 25u) << name;
    EXPECT_EQ(digest.value(), kWarmLazyDigest)
        << name << ": got 0x" << std::hex << digest.value();
  }
}

// Digest of every placement the kLs service below serves (the full solve,
// then 20 warm re-solves), computed against the unpruned polish; both
// index modes must reproduce it.
constexpr std::uint64_t kWarmLsDigest = 0x4fdd4ede2ccf68bdull;

TEST(WarmLs, LsTierPlacementDigestIsPinned) {
  for (const core::kernels::IndexMode mode :
       {core::kernels::IndexMode::kGrid, core::kernels::IndexMode::kNone}) {
    const core::kernels::ScopedIndexMode scoped(mode);
    ServiceConfig config;
    config.dim = 2;
    config.k = 8;
    config.radius = 1.0;
    config.solver = SolverTier::kLs;
    PlacementService service(config);

    const double side = std::sqrt(2500.0 / 10.0);  // 10 users per unit²
    rnd::Pcg64 rng(2011);
    std::uint64_t next_id = 1;
    std::vector<UserRecord> live;
    for (std::size_t i = 0; i < 2500; ++i) {
      live.push_back(make_user(next_id++, rng, side));
    }
    service.apply_add(live);

    Digest digest;
    const auto mix = [&digest](const PlacementView& view) {
      digest.mix(view.objective);
      digest.mix(static_cast<std::uint64_t>(view.solution.centers.size()));
      for (const double x : view.solution.centers.raw()) digest.mix(x);
    };
    mix(service.placement());
    std::uint64_t mutations = 0;
    for (int slot = 0; slot < 20; ++slot) {
      // 25 of ~2500 users: 1 %, under the 5 % full-solve threshold. Joins,
      // leaves and moves (a step of up to one radius per axis) in turn.
      for (int m = 0; m < 25; ++m, ++mutations) {
        if (mutations % 3 == 0) {
          live.push_back(make_user(next_id++, rng, side));
          service.apply_add({live.back()});
        } else if (mutations % 3 == 1) {
          const std::size_t at = rng.next_below(live.size());
          service.apply_remove({live[at].id});
          live[at] = live.back();
          live.pop_back();
        } else {
          UserRecord& user = live[rng.next_below(live.size())];
          for (double& x : user.interest) {
            x = std::clamp(x + 2.0 * rng.next_double() - 1.0, 0.0, side);
          }
          service.apply_add({user});
        }
      }
      mix(service.placement());
    }
    const char* name = core::kernels::index_mode_name(mode);
    const MetricsSnapshot m = service.metrics();
    EXPECT_EQ(m.full_solves, 1u) << name;
    EXPECT_EQ(m.incremental_solves, 20u) << name;
    EXPECT_GT(m.ls_moves, 0u) << name;
    EXPECT_EQ(digest.value(), kWarmLsDigest)
        << name << ": got 0x" << std::hex << digest.value();
  }
}

TEST(WarmLs, PolishOwnGridCountsInSpatialMetrics) {
  // kAuto carries no index below kAutoIndexMinPoints, so at the polish-ls
  // shape every polish gathers its balls through a grid of its own. The
  // kGrid twin lends its carried grid to the same polish instead, and
  // that grid's own counters are the oracle: the same queries, the same
  // points touched.
  using core::kernels::IndexMode;
  ServiceConfig config;
  config.dim = 2;
  config.k = 8;
  config.radius = 1.0;
  config.solver = SolverTier::kLs;
  PlacementService owned(config);
  PlacementService lent(config);
  const auto under = [](IndexMode mode, const auto& fn) {
    const core::kernels::ScopedIndexMode scoped(mode);
    fn();
  };

  const double side = std::sqrt(2500.0 / 10.0);  // 10 users per unit²
  rnd::Pcg64 rng(19);
  std::vector<UserRecord> live;
  for (std::uint64_t id = 1; id <= 2500; ++id) {
    live.push_back(make_user(id, rng, side));
  }
  under(IndexMode::kAuto, [&] {
    owned.apply_add(live);
    (void)owned.placement();
  });
  under(IndexMode::kGrid, [&] {
    lent.apply_add(live);
    (void)lent.placement();
  });
  for (int slot = 0; slot < 5; ++slot) {
    std::vector<UserRecord> moved;
    for (int m = 0; m < 25; ++m) {
      UserRecord& user = live[rng.next_below(live.size())];
      for (double& x : user.interest) {
        x = std::clamp(x + 2.0 * rng.next_double() - 1.0, 0.0, side);
      }
      moved.push_back(user);
    }
    const MetricsSnapshot owned_before = owned.metrics();
    const MetricsSnapshot lent_before = lent.metrics();
    under(IndexMode::kAuto, [&] {
      owned.apply_add(moved);
      (void)owned.placement();
    });
    under(IndexMode::kGrid, [&] {
      lent.apply_add(moved);
      (void)lent.placement();
    });
    const MetricsSnapshot o = owned.metrics();
    const MetricsSnapshot l = lent.metrics();
    const std::string context = "slot " + std::to_string(slot);
    ASSERT_EQ(o.incremental_solves, owned_before.incremental_solves + 1)
        << context;
    ASSERT_EQ(l.incremental_solves, lent_before.incremental_solves + 1)
        << context;
    EXPECT_GT(o.spatial_queries, owned_before.spatial_queries) << context;
    EXPECT_EQ(o.spatial_queries - owned_before.spatial_queries,
              l.spatial_queries - lent_before.spatial_queries)
        << context;
    EXPECT_EQ(o.spatial_points_touched - owned_before.spatial_points_touched,
              l.spatial_points_touched - lent_before.spatial_points_touched)
        << context;
    EXPECT_EQ(o.spatial_rebuilds, owned_before.spatial_rebuilds + 1)
        << context << ": one grid build per polish";
  }
}

/// The service's rows on plain vectors, under InstanceStore's row model:
/// an upsert overwrites in place or appends, a remove moves the last row
/// into the hole.
class ReferenceRows {
 public:
  void upsert(const UserRecord& user) {
    const auto it = row_of_.find(user.id);
    if (it != row_of_.end()) {
      weights_[it->second] = user.weight;
      std::copy(user.interest.begin(), user.interest.end(),
                coords_.begin() + static_cast<std::ptrdiff_t>(2 * it->second));
      return;
    }
    row_of_[user.id] = ids_.size();
    ids_.push_back(user.id);
    weights_.push_back(user.weight);
    coords_.insert(coords_.end(), user.interest.begin(), user.interest.end());
  }
  void remove(std::uint64_t id) {
    const std::size_t row = row_of_.at(id);
    const std::size_t last = ids_.size() - 1;
    ids_[row] = ids_[last];
    weights_[row] = weights_[last];
    std::copy_n(coords_.begin() + static_cast<std::ptrdiff_t>(2 * last), 2,
                coords_.begin() + static_cast<std::ptrdiff_t>(2 * row));
    row_of_[ids_[row]] = row;
    row_of_.erase(id);
    ids_.pop_back();
    weights_.pop_back();
    coords_.resize(2 * last);
  }
  [[nodiscard]] core::Problem problem() const {
    return core::Problem(geo::PointSet(2, coords_), weights_, 1.0,
                         geo::l2_metric());
  }
  [[nodiscard]] std::size_t size() const { return ids_.size(); }

 private:
  std::unordered_map<std::uint64_t, std::size_t> row_of_;
  std::vector<std::uint64_t> ids_;
  std::vector<double> weights_;
  std::vector<double> coords_;
};

TEST(WarmLs, CarriedGainsMatchAFreshPolish) {
  // kGrid lends the service's carried grid to the polish; kAuto carries no
  // index below kAutoIndexMinPoints, so the evaluator owns its grid.
  for (const core::kernels::IndexMode mode :
       {core::kernels::IndexMode::kGrid, core::kernels::IndexMode::kAuto}) {
    const core::kernels::ScopedIndexMode scoped(mode);
    const char* name = core::kernels::index_mode_name(mode);
    bool throw_eval = false;
    bool fail_spatial = false;
    int eval_consults = 0;
    ServiceConfig config;
    config.dim = 2;
    config.k = 8;
    config.radius = 1.0;
    config.solver = SolverTier::kLs;
    config.fault_hook = [&](std::string_view site) {
      if (site == core::kFaultLsEvalThrow) {
        return throw_eval && ++eval_consults == 30;
      }
      return site == kFaultSpatialAllocFail && fail_spatial;
    };
    PlacementService service(config);
    ReferenceRows rows;

    const double side = std::sqrt(2500.0 / 10.0);
    rnd::Pcg64 rng(404);
    std::uint64_t next_id = 1;
    std::vector<UserRecord> live;
    for (std::size_t i = 0; i < 2500; ++i) {
      live.push_back(make_user(next_id++, rng, side));
      rows.upsert(live.back());
    }
    service.apply_add(live);
    PlacementView served = service.placement();
    MetricsSnapshot before = service.metrics();
    EXPECT_GE(before.ls_gain_sums, 2500u) << name;

    constexpr int kSpatialFail = 3;
    constexpr int kAbort = 5;
    constexpr int kRestore = 8;
    constexpr int kFarJoins = 11;  // this slot and the next: one far join
    std::uint64_t mutations = 0;
    for (int slot = 0; slot < 14; ++slot) {
      const std::string context = std::string(name) + " slot " +
                                  std::to_string(slot);
      if (slot >= kFarJoins) {
        // A light user far outside the box: its ball holds only itself.
        UserRecord far;
        far.id = next_id++;
        far.interest = {side + 10.0 * static_cast<double>(slot), side + 50.0};
        far.weight = 0.01;
        service.apply_add({far});
        rows.upsert(far);
      } else {
        fail_spatial = slot == kSpatialFail;
        for (int m = 0; m < 25; ++m, ++mutations) {
          if (mutations % 3 == 0) {
            live.push_back(make_user(next_id++, rng, side));
            service.apply_add({live.back()});
            rows.upsert(live.back());
          } else if (mutations % 3 == 1) {
            const std::size_t at = rng.next_below(live.size());
            service.apply_remove({live[at].id});
            rows.remove(live[at].id);
            live[at] = live.back();
            live.pop_back();
          } else {
            UserRecord& user = live[rng.next_below(live.size())];
            for (double& x : user.interest) {
              x = std::clamp(x + 2.0 * rng.next_double() - 1.0, 0.0, side);
            }
            service.apply_add({user});
            rows.upsert(user);
          }
        }
        fail_spatial = false;
      }
      if (slot == kRestore) {
        // Same rows, same order: the next solve is full and rebuilds g.
        service.restore_from(service.wal_snapshot());
      }

      const core::Problem problem = rows.problem();
      core::LsStats ref_stats;
      const core::Solution ref =
          core::polish(problem, served.solution.centers, problem.points(),
                       {}, &ref_stats);
      throw_eval = slot == kAbort;
      eval_consults = 0;
      const PlacementView now = service.placement();
      throw_eval = false;
      const MetricsSnapshot after = service.metrics();
      ASSERT_EQ(now.population, rows.size()) << context;

      if (slot == kRestore) {
        EXPECT_EQ(after.full_solves, before.full_solves + 1) << context;
        EXPECT_GE(after.ls_gain_sums - before.ls_gain_sums, rows.size())
            << context;
      } else if (slot == kAbort) {
        // The polish threw: the served centers are the seed's, exactly
        // accounted, and the next polish sums every row again.
        EXPECT_EQ(after.incremental_solves, before.incremental_solves + 1)
            << context;
        const core::Solution seed =
            core::SwapEvaluator(problem, served.solution.centers).account();
        EXPECT_EQ(now.objective, seed.total_reward) << context;
        for (std::size_t i = 0; i < seed.centers.raw().size(); ++i) {
          EXPECT_EQ(now.solution.centers.raw()[i], seed.centers.raw()[i])
              << context;
        }
      } else {
        EXPECT_EQ(after.incremental_solves, before.incremental_solves + 1)
            << context;
        EXPECT_EQ(now.objective, ref.total_reward) << context;  // bitwise
        ASSERT_EQ(now.solution.centers.raw().size(),
                  ref.centers.raw().size())
            << context;
        for (std::size_t i = 0; i < ref.centers.raw().size(); ++i) {
          EXPECT_EQ(now.solution.centers.raw()[i], ref.centers.raw()[i])
              << context;
        }
        EXPECT_EQ(after.ls_evals - before.ls_evals, ref_stats.evals)
            << context;
        EXPECT_EQ(after.ls_far_evals - before.ls_far_evals,
                  ref_stats.far_evals)
            << context;
        EXPECT_EQ(after.ls_skipped - before.ls_skipped, ref_stats.skipped)
            << context;
        EXPECT_EQ(after.ls_moves - before.ls_moves, ref_stats.moves)
            << context;
        const std::uint64_t sums = after.ls_gain_sums - before.ls_gain_sums;
        if (slot == kAbort + 1) {
          EXPECT_EQ(sums, ref_stats.gain_sums) << context;
        } else {
          EXPECT_LT(sums, ref_stats.gain_sums) << context;
        }
        if (slot == kFarJoins + 1) {
          EXPECT_EQ(ref_stats.moves, 0u) << context;
          EXPECT_EQ(sums, 1u) << context << ": only the far user's row";
        }
      }
      served = now;
      before = after;
    }
  }
}

}  // namespace
}  // namespace mmph::serve
