// Regression tests pinning the mutation atomicity contract: a mutation
// batch is applied fully or not at all. Historically a batch could
// partially apply when validation failed mid-loop (rows before the bad
// one were already upserted); validation now runs over the whole batch
// before the first store write, and the WAL append-before-apply path
// preserves the same contract when the log fails.

#include <cstdint>
#include <future>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "mmph/serve/instance_store.hpp"
#include "mmph/serve/placement_service.hpp"
#include "mmph/support/error.hpp"
#include "mmph/wal/file_ops.hpp"
#include "mmph/wal/writer.hpp"

namespace mmph::serve {
namespace {

UserRecord user(std::uint64_t id, double weight, double x, double y) {
  UserRecord record;
  record.id = id;
  record.interest = {x, y};
  record.weight = weight;
  return record;
}

ServiceConfig config_with(wal::WalWriter* writer) {
  ServiceConfig config;
  config.dim = 2;
  config.k = 2;
  config.radius = 0.3;
  config.full_solve_churn_fraction = 0.0;
  config.wal = writer;
  return config;
}

TEST(AtomicityTest, InvalidRowMidBatchLeavesStoreUntouched) {
  PlacementService service(config_with(nullptr));
  service.apply_add({user(1, 1.0, 0.1, 0.2)});
  const std::uint64_t epoch = service.epoch();

  // Row 2 of 3 is invalid (non-positive weight): the WHOLE batch must be
  // rejected — including row 1, which is itself valid.
  const std::vector<UserRecord> batch = {
      user(2, 1.0, 0.3, 0.4), user(3, 0.0, 0.5, 0.6), user(4, 1.0, 0.7, 0.8)};
  EXPECT_THROW(service.apply_add(batch), InvalidArgument);
  EXPECT_EQ(service.population(), 1u);
  EXPECT_EQ(service.epoch(), epoch);

  // Same for a dimension mismatch anywhere in the batch.
  std::vector<UserRecord> bad_dim = {user(2, 1.0, 0.3, 0.4)};
  bad_dim.push_back(user(3, 1.0, 0.5, 0.6));
  bad_dim.back().interest = {0.5};
  EXPECT_THROW(service.apply_add(bad_dim), InvalidArgument);
  EXPECT_EQ(service.population(), 1u);
  EXPECT_EQ(service.epoch(), epoch);
}

TEST(AtomicityTest, NonFiniteRowsAreRejectedOnBothPaths) {
  // The wire and log codecs refuse non-finite values; the service refuses
  // them too, on the direct and the batched path, before any store write.
  PlacementService service(config_with(nullptr));
  service.apply_add({user(1, 1.0, 0.1, 0.2)});
  const std::uint64_t epoch = service.epoch();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<UserRecord>> batches = {
      {user(2, 1.0, 0.3, 0.4), user(3, 1.0, nan, 0.6)},
      {user(2, inf, 0.3, 0.4)},
      {user(2, 1.0, 0.3, -inf)},
  };
  for (const std::vector<UserRecord>& batch : batches) {
    EXPECT_THROW(service.apply_add(batch), InvalidArgument);
    std::future<Response> reply = service.submit(Request::add_users(batch));
    EXPECT_EQ(service.pump(), 1u);
    EXPECT_EQ(reply.get().status, ResponseStatus::kBadRequest);
    EXPECT_EQ(service.population(), 1u);
    EXPECT_EQ(service.epoch(), epoch);
  }
}

TEST(AtomicityTest, FailedWalAppendLeavesStoreUntouched) {
  wal::MemFileOps mem;
  wal::WalConfig wal_config;
  wal_config.dir = "wal";
  wal_config.file_ops = &mem;
  wal::WalWriter writer(wal_config);
  PlacementService service(config_with(&writer));
  service.apply_add({user(1, 1.0, 0.1, 0.2)});
  const std::uint64_t epoch = service.epoch();

  // A dead log must reject the mutation BEFORE the store mutates: a kOk
  // ack promises "logged", so an unloggable op may not apply.
  writer.poison("simulated log failure");
  EXPECT_THROW(service.apply_add({user(2, 1.0, 0.3, 0.4)}), wal::WalError);
  EXPECT_EQ(service.population(), 1u);
  EXPECT_EQ(service.epoch(), epoch);
  EXPECT_THROW(service.apply_remove({1}), wal::WalError);
  EXPECT_EQ(service.population(), 1u);
  EXPECT_EQ(service.epoch(), epoch);
}

TEST(AtomicityTest, ReadOnlyServiceRejectsBothMutationPaths) {
  PlacementService service(config_with(nullptr));
  service.apply_add({user(1, 1.0, 0.1, 0.2)});
  service.set_read_only(true);

  EXPECT_THROW(service.apply_add({user(2, 1.0, 0.3, 0.4)}), StateError);
  EXPECT_THROW(service.apply_remove({1}), StateError);
  EXPECT_EQ(service.population(), 1u);

  service.set_read_only(false);
  service.apply_add({user(2, 1.0, 0.3, 0.4)});
  EXPECT_EQ(service.population(), 2u);
}

TEST(AtomicityTest, StoreUpsertDuplicateIdInBatchKeepsLastWrite) {
  // Duplicate ids inside one batch are two upserts in order: the second
  // overwrites the first, and each advances the epoch by one — exactly
  // how replaying the same record during recovery counts them.
  InstanceStore store(2);
  store.upsert(user(7, 1.0, 0.1, 0.2));
  store.upsert(user(7, 2.0, 0.5, 0.6));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.epoch(), 2u);
  const auto found = store.find(7);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->weight, 2.0);
  EXPECT_EQ(found->interest[0], 0.5);
}

TEST(AtomicityTest, RestoreRejectsInconsistentImages) {
  InstanceStore store(2);
  store.upsert(user(1, 1.0, 0.1, 0.2));

  // weights/ids size mismatch
  EXPECT_THROW(store.restore(3, {1, 2}, {1.0}, {0.1, 0.2, 0.3, 0.4}),
               InvalidArgument);
  // coords not ids.size() * dim
  EXPECT_THROW(store.restore(3, {1, 2}, {1.0, 2.0}, {0.1, 0.2, 0.3}),
               InvalidArgument);
  // epoch below the row count (each row took at least one epoch tick)
  EXPECT_THROW(store.restore(1, {1, 2}, {1.0, 2.0}, {0.1, 0.2, 0.3, 0.4}),
               InvalidArgument);
  // duplicate ids
  EXPECT_THROW(store.restore(4, {1, 1}, {1.0, 2.0}, {0.1, 0.2, 0.3, 0.4}),
               InvalidArgument);
  // non-positive weight
  EXPECT_THROW(store.restore(4, {1, 2}, {1.0, 0.0}, {0.1, 0.2, 0.3, 0.4}),
               InvalidArgument);

  // A failed restore must not have touched the store.
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_TRUE(store.contains(1));
}

}  // namespace
}  // namespace mmph::serve
