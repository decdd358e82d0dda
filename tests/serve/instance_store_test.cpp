// InstanceStore: churn semantics, swap-remove integrity, the epoch
// contract the serving layer relies on (snapshot epochs strictly increase
// across mutations, stay put without them), and row loans.

#include "mmph/serve/instance_store.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "mmph/support/error.hpp"

namespace mmph::serve {
namespace {

UserRecord user(std::uint64_t id, double x, double y, double w = 1.0) {
  return UserRecord{id, {x, y}, w};
}

TEST(InstanceStore, InsertFindRemove) {
  InstanceStore store(2);
  EXPECT_TRUE(store.empty());
  EXPECT_TRUE(store.upsert(user(7, 1.0, 2.0, 3.0)));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.contains(7));

  const auto found = store.find(7);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->id, 7u);
  EXPECT_EQ(found->interest, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(found->weight, 3.0);

  EXPECT_TRUE(store.remove(7));
  EXPECT_FALSE(store.contains(7));
  EXPECT_FALSE(store.remove(7));  // second remove is a no-op
  EXPECT_FALSE(store.find(7).has_value());
}

TEST(InstanceStore, UpsertOverwritesInPlace) {
  InstanceStore store(2);
  EXPECT_TRUE(store.upsert(user(1, 0.0, 0.0)));
  EXPECT_FALSE(store.upsert(user(1, 5.0, 6.0, 2.5)));  // update, not insert
  EXPECT_EQ(store.size(), 1u);
  const auto found = store.find(1);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->interest, (std::vector<double>{5.0, 6.0}));
  EXPECT_DOUBLE_EQ(found->weight, 2.5);
}

TEST(InstanceStore, SwapRemoveKeepsOtherRowsIntact) {
  InstanceStore store(2);
  for (std::uint64_t id = 0; id < 10; ++id) {
    store.upsert(user(id, static_cast<double>(id), 0.5));
  }
  // Remove from the middle; the last row is swapped into its slot.
  EXPECT_TRUE(store.remove(4));
  EXPECT_EQ(store.size(), 9u);
  for (std::uint64_t id = 0; id < 10; ++id) {
    if (id == 4) continue;
    const auto found = store.find(id);
    ASSERT_TRUE(found.has_value()) << "lost user " << id;
    EXPECT_DOUBLE_EQ(found->interest[0], static_cast<double>(id));
  }
}

TEST(InstanceStore, SnapshotMatchesContents) {
  InstanceStore store(2);
  store.upsert(user(1, 0.0, 1.0, 2.0));
  store.upsert(user(2, 3.0, 4.0, 5.0));
  StoreSnapshot snap = store.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.points.dim(), 2u);
  for (std::size_t i = 0; i < snap.size(); ++i) {
    const auto rec = store.find(snap.ids[i]);
    ASSERT_TRUE(rec.has_value());
    EXPECT_DOUBLE_EQ(snap.weights[i], rec->weight);
    EXPECT_DOUBLE_EQ(snap.points[i][0], rec->interest[0]);
    EXPECT_DOUBLE_EQ(snap.points[i][1], rec->interest[1]);
  }
}

TEST(InstanceStore, EpochsAreMonotoneAcrossSnapshots) {
  InstanceStore store(2);
  std::uint64_t last = store.snapshot().epoch;
  for (int round = 0; round < 5; ++round) {
    store.upsert(user(static_cast<std::uint64_t>(round), 0.1, 0.2));
    const std::uint64_t e = store.snapshot().epoch;
    EXPECT_GT(e, last) << "epoch must advance after a mutation";
    last = e;
  }
  // No mutation: epoch stays put (and never goes backwards).
  EXPECT_EQ(store.snapshot().epoch, last);
  store.remove(0);
  EXPECT_GT(store.snapshot().epoch, last);
}

TEST(InstanceStore, LendRowsHandsOutTheArraysUncopied) {
  InstanceStore store(2);
  for (std::uint64_t id = 0; id < 6; ++id) {
    const double x = static_cast<double>(id);
    store.upsert(user(id, x, 0.5 * x, 1.0 + x));
  }
  store.remove(2);
  const StoreSnapshot before = store.snapshot();
  const double* const coords = store.point(0).data();

  InstanceStore::Rows rows = store.lend_rows();
  EXPECT_EQ(rows.coords.data(), coords);
  EXPECT_EQ(rows.weights, before.weights);
  EXPECT_EQ(rows.coords, std::vector<double>(before.points.raw().begin(),
                                             before.points.raw().end()));
  // The ids and the epoch stay with the store while it lends its rows.
  EXPECT_EQ(store.size(), 5u);
  EXPECT_EQ(store.epoch(), before.epoch);
  store.return_rows(std::move(rows));

  EXPECT_EQ(store.point(0).data(), coords);
  const StoreSnapshot after = store.snapshot();
  EXPECT_EQ(after.ids, before.ids);
  EXPECT_EQ(after.weights, before.weights);
  EXPECT_EQ(std::vector<double>(after.points.raw().begin(),
                                after.points.raw().end()),
            std::vector<double>(before.points.raw().begin(),
                                before.points.raw().end()));
  // Mutations after the loan write the returned arrays.
  EXPECT_TRUE(store.remove(0));
  EXPECT_FALSE(store.upsert(user(5, 9.0, 9.5, 4.0)));
  const auto moved = store.find(5);
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(moved->interest, (std::vector<double>{9.0, 9.5}));
  EXPECT_EQ(store.row_of(5), std::optional<std::size_t>(2));
}

TEST(InstanceStore, RejectsBadInput) {
  InstanceStore store(2);
  EXPECT_THROW(store.upsert(UserRecord{1, {1.0}, 1.0}), Error);
  EXPECT_THROW(store.upsert(UserRecord{1, {1.0, 2.0}, 0.0}), Error);
  EXPECT_THROW(InstanceStore(0), Error);
}

}  // namespace
}  // namespace mmph::serve
