// ShardedInstanceStore contract tests: region routing is a pure function
// of the interest point, cross-region moves are remove+insert (two epoch
// ticks), the global epoch is the sum of shard epochs, shards == 1 is
// bit-identical to a plain InstanceStore fed the same call sequence, the
// global snapshot is the shards' rows concatenated in shard order, and the
// ownership queries (which ask the shards) agree with a scan of them.

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "mmph/random/pcg64.hpp"
#include "mmph/serve/instance_store.hpp"
#include "mmph/serve/sharded_store.hpp"
#include "mmph/spatial/region_map.hpp"
#include "mmph/support/error.hpp"

namespace mmph::serve {
namespace {

UserRecord user(std::uint64_t id, double weight, double x, double y) {
  UserRecord record;
  record.id = id;
  record.interest = {x, y};
  record.weight = weight;
  return record;
}

TEST(RegionMap, OneShardIsAlwaysZero) {
  const spatial::RegionMap map(2, 0.3, 1);
  const std::vector<double> p = {123.4, -567.8};
  EXPECT_EQ(map.shard_of(geo::ConstVec(p.data(), p.size())), 0u);
}

TEST(RegionMap, PureFunctionOfCellAcrossInstances) {
  const spatial::RegionMap a(2, 0.25, 4);
  const spatial::RegionMap b(2, 0.25, 4);
  // Same cell (points within one cell) -> same shard, on any instance.
  const std::vector<double> p1 = {0.26, 0.26};
  const std::vector<double> p2 = {0.49, 0.49};
  const geo::ConstVec v1(p1.data(), 2);
  const geo::ConstVec v2(p2.data(), 2);
  EXPECT_EQ(a.shard_of(v1), b.shard_of(v1));
  EXPECT_EQ(a.shard_of(v1), a.shard_of(v2));
  // Every result is in range.
  for (double x = -2.0; x < 2.0; x += 0.17) {
    const std::vector<double> p = {x, -x};
    EXPECT_LT(a.shard_of(geo::ConstVec(p.data(), 2)), 4u);
  }
}

TEST(RegionMap, SpreadsCellsAcrossShards) {
  // FNV over a grid of cells must actually use more than one shard.
  const spatial::RegionMap map(2, 0.1, 4);
  std::set<std::size_t> seen;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      const std::vector<double> p = {0.05 + 0.1 * i, 0.05 + 0.1 * j};
      seen.insert(map.shard_of(geo::ConstVec(p.data(), 2)));
    }
  }
  EXPECT_GT(seen.size(), 1u);
}

TEST(RegionMap, RejectsBadParameters) {
  EXPECT_THROW(spatial::RegionMap(0, 0.3, 2), InvalidArgument);
  EXPECT_THROW(spatial::RegionMap(2, 0.0, 2), InvalidArgument);
  EXPECT_THROW(spatial::RegionMap(2, 0.3, 0), InvalidArgument);
}

TEST(ShardedStore, OneShardMatchesPlainStoreBitwise) {
  InstanceStore plain(2);
  ShardedInstanceStore sharded(2, 1, 0.3);

  const std::vector<UserRecord> ops = {
      user(1, 1.0, 0.1, 0.2),  user(2, 2.0, 0.9, 0.8),
      user(3, 0.5, 0.5, 0.5),  user(1, 1.5, 0.7, 0.1),  // overwrite
      user(4, 1.0, -0.4, 0.3),
  };
  for (const UserRecord& u : ops) {
    const bool inserted_plain = plain.upsert(u);
    const auto route = sharded.upsert(u);
    EXPECT_EQ(route.to, 0u);
    EXPECT_FALSE(route.is_move());
    EXPECT_EQ(route.inserted, inserted_plain);
  }
  EXPECT_TRUE(plain.remove(2));
  EXPECT_EQ(sharded.remove(2), std::optional<std::size_t>(0));

  EXPECT_EQ(sharded.size(), plain.size());
  EXPECT_EQ(sharded.epoch(), plain.epoch());

  const StoreSnapshot expect = plain.snapshot();
  const StoreSnapshot got = sharded.global_snapshot();
  ASSERT_EQ(got.size(), expect.size());
  EXPECT_EQ(got.epoch, expect.epoch);
  EXPECT_EQ(got.ids, expect.ids);
  EXPECT_EQ(got.weights, expect.weights);
  for (std::size_t i = 0; i < expect.size(); ++i) {
    for (std::size_t d = 0; d < 2; ++d) {
      EXPECT_EQ(got.points[i][d], expect.points[i][d]) << i << "," << d;
    }
  }
}

TEST(ShardedStore, RoutesByRegionAndTracksOwnership) {
  ShardedInstanceStore store(2, 4, 0.3);
  for (std::uint64_t id = 1; id <= 40; ++id) {
    const double x = 0.07 * static_cast<double>(id);
    const auto route = store.upsert(user(id, 1.0, x, 1.0 - x));
    const std::vector<double> p = {x, 1.0 - x};
    EXPECT_EQ(route.to, store.shard_of_point(geo::ConstVec(p.data(), 2)));
    EXPECT_EQ(store.shard_of_id(id), std::optional<std::size_t>(route.to));
  }
  EXPECT_EQ(store.size(), 40u);
  EXPECT_EQ(store.epoch(), 40u);

  // Shard sizes partition the population.
  std::size_t total = 0;
  for (std::size_t s = 0; s < store.shard_count(); ++s) {
    total += store.shard(s).size();
  }
  EXPECT_EQ(total, 40u);

  // Removes come back with the owning shard; unknown ids with nullopt.
  const std::size_t owner = *store.shard_of_id(7);
  EXPECT_EQ(store.remove(7), std::optional<std::size_t>(owner));
  EXPECT_EQ(store.remove(7), std::nullopt);
  EXPECT_EQ(store.shard_of_id(7), std::nullopt);
}

TEST(ShardedStore, CrossRegionMoveIsRemovePlusInsert) {
  ShardedInstanceStore store(2, 4, 0.3);
  // Find two points the map routes to different shards.
  double x2 = 0.0;
  const std::vector<double> p1 = {0.05, 0.05};
  const std::size_t s1 = store.shard_of_point(geo::ConstVec(p1.data(), 2));
  std::size_t s2 = s1;
  for (double x = 0.35; s2 == s1; x += 0.3) {
    const std::vector<double> probe = {x, 0.05};
    s2 = store.shard_of_point(geo::ConstVec(probe.data(), 2));
    x2 = x;
  }

  store.upsert(user(1, 1.0, p1[0], p1[1]));
  EXPECT_EQ(store.epoch(), 1u);

  const auto route = store.upsert(user(1, 2.0, x2, 0.05));
  EXPECT_TRUE(route.is_move());
  EXPECT_EQ(*route.from, s1);
  EXPECT_EQ(route.to, s2);
  EXPECT_TRUE(route.inserted);
  // Two elements applied (remove + insert), matching two log records.
  EXPECT_EQ(store.epoch(), 3u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.shard(s1).size(), 0u);
  EXPECT_EQ(store.shard(s2).size(), 1u);
  EXPECT_EQ(store.shard_of_id(1), std::optional<std::size_t>(s2));
  const auto found = store.find(1);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->weight, 2.0);

  // An in-place update (same region) is one tick, not a move.
  const auto update = store.upsert(user(1, 3.0, x2 + 0.01, 0.05 + 0.01));
  EXPECT_FALSE(update.is_move());
  EXPECT_FALSE(update.inserted);
  EXPECT_EQ(store.epoch(), 4u);
}

TEST(ShardedStore, MoveWithBadWeightLeavesBothShardsUntouched) {
  ShardedInstanceStore store(2, 4, 0.05);
  store.upsert(user(1, 1.0, 0.01, 0.01));
  const std::uint64_t epoch = store.epoch();
  // A far-away point is (almost surely) another region; even when it is
  // not, the weight check fires before any mutation either way.
  EXPECT_THROW(store.upsert(user(1, 0.0, 7.77, 3.33)), InvalidArgument);
  EXPECT_EQ(store.epoch(), epoch);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.find(1)->weight, 1.0);
}

TEST(ShardedStore, GlobalSnapshotConcatenatesShardRanges) {
  ShardedInstanceStore store(2, 3, 0.2);
  for (std::uint64_t id = 1; id <= 30; ++id) {
    const double x = 0.11 * static_cast<double>(id);
    store.upsert(user(id, 1.0 + 0.1 * static_cast<double>(id), x, -x));
  }
  ASSERT_TRUE(store.remove(4).has_value());  // a swap-remove reorders rows
  const StoreSnapshot snap = store.global_snapshot();
  EXPECT_EQ(snap.epoch, store.epoch());
  ASSERT_EQ(snap.size(), 29u);
  EXPECT_EQ(snap.points.size(), 29u);

  // Shard s's rows, in its own row order, follow shards 0..s-1's.
  std::size_t row = 0;
  for (std::size_t s = 0; s < 3; ++s) {
    const StoreSnapshot part = store.shard(s).snapshot();
    EXPECT_EQ(part.epoch, store.shard(s).epoch());
    for (std::size_t i = 0; i < part.size(); ++i, ++row) {
      EXPECT_EQ(snap.ids[row], part.ids[i]) << "shard " << s << " row " << i;
      EXPECT_EQ(snap.weights[row], part.weights[i]);
      EXPECT_EQ(snap.points[row][0], part.points[i][0]);
      EXPECT_EQ(snap.points[row][1], part.points[i][1]);
    }
  }
  EXPECT_EQ(row, snap.size());
}

TEST(ShardedStore, RestoreShardRebuildsOwnershipAndRejectsForeignIds) {
  ShardedInstanceStore store(2, 2, 0.2);
  std::uint64_t id = 1;
  while (store.shard(0).size() < 2 || store.shard(1).size() < 2) {
    const double x = 0.13 * static_cast<double>(id);
    store.upsert(user(id, 1.0, x, x * 0.7));
    ++id;
  }

  // An id resident in shard 1 cannot be restored into shard 0.
  std::uint64_t foreign = 0;
  for (std::uint64_t i = 1; i < id; ++i) {
    if (store.shard_of_id(i) == std::optional<std::size_t>(1)) {
      foreign = i;
      break;
    }
  }
  ASSERT_NE(foreign, 0u);
  EXPECT_THROW(
      store.restore_shard(0, 1, {foreign}, {1.0}, {0.1, 0.1}),
      InvalidArgument);

  // A valid restore replaces shard 0's population and ownership entries.
  store.restore_shard(0, 2, {101, 102}, {1.0, 2.0}, {0.1, 0.1, 0.2, 0.2});
  EXPECT_EQ(store.shard(0).size(), 2u);
  EXPECT_EQ(store.shard_of_id(101), std::optional<std::size_t>(0));
  EXPECT_EQ(store.shard_of_id(102), std::optional<std::size_t>(0));
  // Old shard-0 residents are gone from the owner map; shard 1 is intact.
  EXPECT_EQ(store.size(), 2u + store.shard(1).size());
  EXPECT_EQ(store.shard_of_id(foreign), std::optional<std::size_t>(1));
}

TEST(ShardedStore, OwnershipQueriesAgreeWithAScanOfTheShards) {
  ShardedInstanceStore store(2, 4, 0.2);
  rnd::Pcg64 rng(42);
  // Inserts, then upserts at fresh points (many cross a region, so they
  // move shards), then removes, including unknown ids.
  for (std::uint64_t id = 1; id <= 60; ++id) {
    store.upsert(user(id, 1.0, 2.0 * rng.next_double(),
                      2.0 * rng.next_double()));
  }
  std::size_t moves = 0;
  for (std::uint64_t id = 1; id <= 60; id += 2) {
    moves += store.upsert(user(id, 2.0, 2.0 * rng.next_double(),
                               2.0 * rng.next_double()))
                 .is_move()
                 ? 1
                 : 0;
  }
  EXPECT_GT(moves, 0u);
  for (const std::uint64_t id : {5u, 6u, 500u, 5u}) (void)store.remove(id);

  // Replace shard 2 wholesale with ids of its own and one fresh id.
  const StoreSnapshot old_rows = store.shard(2).snapshot();
  std::vector<std::uint64_t> ids(old_rows.ids.begin(), old_rows.ids.end());
  ASSERT_FALSE(ids.empty());
  ids.pop_back();
  ids.push_back(1000);
  std::vector<double> weights(ids.size(), 1.5);
  std::vector<double> coords(ids.size() * 2, 0.05);
  store.restore_shard(2, store.shard(2).epoch() + 1, ids, weights, coords);

  const auto check = [&](std::uint64_t id) {
    std::optional<std::size_t> scanned;
    for (std::size_t s = 0; s < store.shard_count(); ++s) {
      if (store.shard(s).contains(id)) {
        EXPECT_FALSE(scanned.has_value()) << "id " << id << " in two shards";
        scanned = s;
      }
    }
    EXPECT_EQ(store.shard_of_id(id), scanned) << "id " << id;
    EXPECT_EQ(store.contains(id), scanned.has_value()) << "id " << id;
    EXPECT_EQ(store.find(id).has_value(), scanned.has_value()) << "id " << id;
  };
  for (std::uint64_t id = 1; id <= 60; ++id) check(id);
  check(500);
  check(1000);
  std::size_t rows = 0;
  for (std::size_t s = 0; s < store.shard_count(); ++s) {
    rows += store.shard(s).size();
  }
  EXPECT_EQ(store.size(), rows);
  EXPECT_TRUE(store.contains(1000));
}

}  // namespace
}  // namespace mmph::serve
