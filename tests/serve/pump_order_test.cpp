// Regression test for the multi-loop pump ordering bug: pop_batch and
// process_batch take different locks, so two event loops pumping the same
// service concurrently could historically pop batch N and N+1 and apply
// them in the opposite order — a store/WAL sequence no client submitted,
// which breaks group-commit ordering and replica.lag accounting. pump()
// now serializes the whole pop+process pass; this test drives two pumping
// threads over order-sensitive mutations and is in the TSan gate
// (tools/check.sh shards).

#include <atomic>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mmph/serve/placement_service.hpp"
#include "mmph/wal/file_ops.hpp"
#include "mmph/wal/recovery.hpp"
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

TEST(PumpOrder, ConcurrentPumpsApplySubmissionOrder) {
  wal::MemFileOps mem;
  wal::WalConfig wal_config;
  wal_config.dir = "wal";
  wal_config.file_ops = &mem;
  wal::WalWriter writer(wal_config);

  ServiceConfig config;
  config.dim = 2;
  config.k = 2;
  config.radius = 0.3;
  config.full_solve_churn_fraction = 0.0;
  config.queue_capacity = 4096;
  config.max_batch = 1;  // one submission per batch: order is observable
  config.wal = &writer;
  PlacementService service(config);

  // Every submission overwrites the SAME user: the final store row is the
  // last applied write, so any reordering of the apply sequence surfaces
  // as a wrong terminal weight; the WAL replay cross-checks the order
  // end to end.
  constexpr std::uint64_t kWrites = 200;
  std::vector<std::future<Response>> replies;
  replies.reserve(kWrites);
  for (std::uint64_t i = 1; i <= kWrites; ++i) {
    replies.push_back(service.submit(Request::add_users(
        {user(1, static_cast<double>(i), 0.1, 0.2)})));
  }

  std::atomic<std::uint64_t> handled{0};
  auto pump_loop = [&] {
    while (handled.load(std::memory_order_relaxed) < kWrites) {
      handled.fetch_add(service.pump(), std::memory_order_relaxed);
    }
  };
  std::thread a(pump_loop);
  std::thread b(pump_loop);
  a.join();
  b.join();

  for (auto& reply : replies) {
    EXPECT_EQ(reply.get().status, ResponseStatus::kOk);
  }
  EXPECT_EQ(service.population(), 1u);
  EXPECT_EQ(service.epoch(), kWrites);
  const auto found_weight = [&] {
    const wal::WalSnapshot snap = service.wal_snapshot();
    return snap.weights.at(0);
  }();
  EXPECT_EQ(found_weight, static_cast<double>(kWrites));

  // The log tells the same story: replaying it reproduces the exact
  // terminal state, which it only can if append order == apply order.
  writer.commit();
  const wal::RecoveryResult recovered = wal::recover("wal", 2, mem);
  EXPECT_TRUE(recovered.clean) << recovered.detail;
  EXPECT_EQ(recovered.store.epoch, kWrites);
  ASSERT_EQ(recovered.store.size(), 1u);
  EXPECT_EQ(recovered.store.weights[0], static_cast<double>(kWrites));
}

TEST(PumpOrder, ConcurrentPumpsHandleEachRequestExactlyOnce) {
  ServiceConfig config;
  config.dim = 2;
  config.k = 2;
  config.radius = 0.3;
  config.full_solve_churn_fraction = 0.0;
  config.queue_capacity = 4096;
  config.max_batch = 8;
  PlacementService service(config);

  constexpr std::uint64_t kUsers = 300;
  std::vector<std::future<Response>> replies;
  replies.reserve(kUsers);
  for (std::uint64_t i = 1; i <= kUsers; ++i) {
    const double x = 0.003 * static_cast<double>(i);
    replies.push_back(
        service.submit(Request::add_users({user(i, 1.0, x, 1.0 - x)})));
  }

  std::atomic<std::uint64_t> handled{0};
  auto pump_loop = [&] {
    while (handled.load(std::memory_order_relaxed) < kUsers) {
      handled.fetch_add(service.pump(), std::memory_order_relaxed);
    }
  };
  std::thread a(pump_loop);
  std::thread b(pump_loop);
  std::thread c(pump_loop);
  a.join();
  b.join();
  c.join();

  for (auto& reply : replies) {
    EXPECT_EQ(reply.get().status, ResponseStatus::kOk);
  }
  // Exactly once: every distinct user applied, the epoch counted each
  // exactly one time, and the pump tally matches the submission count.
  EXPECT_EQ(service.population(), kUsers);
  EXPECT_EQ(service.epoch(), kUsers);
  EXPECT_EQ(handled.load(), kUsers);
}

}  // namespace
}  // namespace mmph::serve
