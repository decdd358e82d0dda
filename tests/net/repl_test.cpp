// Primary -> replica streaming over a real loopback socket pair: live
// tail following (from either one-shard log input), snapshot install for
// a subscriber behind the retained window, read-only enforcement on the
// replica, lag reaching zero at convergence, and failover (a promoted
// replica answers the placement the primary would have).

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mmph/net/client.hpp"
#include "mmph/net/replica.hpp"
#include "mmph/net/server.hpp"
#include "mmph/random/pcg64.hpp"
#include "mmph/serve/placement_service.hpp"
#include "mmph/support/error.hpp"
#include "mmph/wal/file_ops.hpp"
#include "mmph/wal/sharded_wal.hpp"
#include "mmph/wal/snapshot.hpp"
#include "mmph/wal/writer.hpp"

namespace mmph::net {
namespace {

using std::chrono::milliseconds;

bool wait_until(const std::function<bool()>& pred,
                milliseconds timeout = milliseconds(10000)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(milliseconds(5));
  }
  return pred();
}

serve::UserRecord make_user(std::uint64_t id, rnd::Pcg64& rng) {
  serve::UserRecord user;
  user.id = id;
  user.interest = {rng.next_double(), rng.next_double()};
  user.weight = 0.5 + rng.next_double();
  return user;
}

serve::ServiceConfig base_config() {
  serve::ServiceConfig config;
  config.dim = 2;
  config.k = 3;
  config.radius = 0.3;
  config.full_solve_churn_fraction = 0.0;  // placement = f(store) exactly
  return config;
}

/// Which log input the primary is given; both are one shard.
enum class LogInput { kWriter, kShardWal };

struct Primary {
  explicit Primary(std::size_t tail_retain_bytes = 4u << 20,
                   LogInput input = LogInput::kWriter) {
    wal_config.dir = "wal";
    wal_config.fsync = wal::FsyncPolicy::kGroupCommit;
    wal_config.tail_retain_bytes = tail_retain_bytes;
    wal_config.file_ops = &mem;

    serve::ServiceConfig service_config = base_config();
    if (input == LogInput::kWriter) {
      writer = std::make_unique<wal::WalWriter>(wal_config);
      service_config.wal = writer.get();
    } else {
      shard_wal = std::make_unique<wal::ShardedWal>(wal_config, 1,
                                                    wal::ShardedRecovery{});
      service_config.shard_wal = shard_wal.get();
    }

    NetServerConfig net_config;
    net_config.poll_interval = milliseconds(2);
    server = std::make_unique<NetServer>(std::move(service_config),
                                         net_config);
    server->start();
  }
  ~Primary() { server->stop(); }

  wal::MemFileOps mem;
  wal::WalConfig wal_config;
  std::unique_ptr<wal::WalWriter> writer;
  std::unique_ptr<wal::ShardedWal> shard_wal;
  std::unique_ptr<NetServer> server;
};

void add_users(NetClient& client, std::uint64_t first_id, std::size_t count,
               rnd::Pcg64& rng) {
  std::vector<serve::UserRecord> batch;
  for (std::size_t i = 0; i < count; ++i) {
    batch.push_back(make_user(first_id + i, rng));
  }
  const ResponseFrame reply = client.add_users(std::move(batch));
  ASSERT_EQ(reply.status, WireStatus::kOk);
}

TEST(ReplTest, ReplicaFollowsLiveStreamBitwise) {
  Primary primary;
  NetClientConfig client_config;
  client_config.port = primary.server->port();
  NetClient client(client_config);

  rnd::Pcg64 rng(1);
  add_users(client, 1, 8, rng);

  serve::PlacementService replica(base_config());
  ReplicaAgentConfig agent_config;
  agent_config.port = primary.server->port();
  ReplicaAgent agent(replica, agent_config);
  agent.start();
  EXPECT_TRUE(replica.read_only());

  // Catch up with the pre-subscribe history...
  ASSERT_TRUE(wait_until([&] {
    return replica.epoch() == primary.server->service().epoch();
  }));
  // ...then follow live traffic, including removes.
  add_users(client, 100, 6, rng);
  ASSERT_EQ(client.remove_users({2, 4}).status, WireStatus::kOk);
  add_users(client, 200, 3, rng);
  ASSERT_TRUE(wait_until([&] {
    return replica.epoch() == primary.server->service().epoch();
  }));

  EXPECT_EQ(wal::snapshot_digest(replica.wal_snapshot()),
            wal::snapshot_digest(primary.server->service().wal_snapshot()));
  EXPECT_GT(agent.records_applied(), 0u);
  EXPECT_EQ(agent.lag_ops(), 0u);
  EXPECT_EQ(replica.metrics().repl_lag_ops, 0.0);

  // Read-only is enforced on both mutation paths.
  EXPECT_THROW(replica.apply_remove({1}), StateError);

  agent.stop();
}

TEST(ReplTest, ReplicaFollowsOneShardShardWalPrimaryBitwise) {
  // A one-shard shard_wal is the same log as ServiceConfig::wal, so the
  // primary streams it the same way: history, live adds and removes.
  Primary primary(4u << 20, LogInput::kShardWal);
  NetClientConfig client_config;
  client_config.port = primary.server->port();
  NetClient client(client_config);

  rnd::Pcg64 rng(5);
  add_users(client, 1, 8, rng);

  serve::PlacementService replica(base_config());
  ReplicaAgentConfig agent_config;
  agent_config.port = primary.server->port();
  ReplicaAgent agent(replica, agent_config);
  agent.start();
  ASSERT_TRUE(wait_until([&] {
    return replica.epoch() == primary.server->service().epoch();
  }));
  add_users(client, 100, 6, rng);
  ASSERT_EQ(client.remove_users({3, 5, 999}).status, WireStatus::kOk);
  add_users(client, 3, 2, rng);  // a removed id comes back
  ASSERT_TRUE(wait_until([&] {
    return replica.epoch() == primary.server->service().epoch();
  }));

  EXPECT_EQ(wal::snapshot_digest(replica.wal_snapshot()),
            wal::snapshot_digest(primary.server->service().wal_snapshot()));
  EXPECT_GT(agent.records_applied(), 0u);
  EXPECT_EQ(agent.snapshots_installed(), 0u);
  EXPECT_EQ(agent.lag_ops(), 0u);
  agent.stop();
}

TEST(ReplTest, BehindSubscriberInstallsSnapshot) {
  // A 64-byte tail window cannot retain even one record, so a subscriber
  // joining after the writes MUST be bootstrapped with a full snapshot.
  Primary primary(/*tail_retain_bytes=*/64);
  NetClientConfig client_config;
  client_config.port = primary.server->port();
  NetClient client(client_config);

  rnd::Pcg64 rng(2);
  for (std::uint64_t batch = 0; batch < 5; ++batch) {
    add_users(client, 1 + batch * 10, 4, rng);
  }

  serve::PlacementService replica(base_config());
  ReplicaAgentConfig agent_config;
  agent_config.port = primary.server->port();
  ReplicaAgent agent(replica, agent_config);
  agent.start();

  ASSERT_TRUE(wait_until([&] {
    return replica.epoch() == primary.server->service().epoch();
  }));
  EXPECT_GE(agent.snapshots_installed(), 1u);
  EXPECT_EQ(wal::snapshot_digest(replica.wal_snapshot()),
            wal::snapshot_digest(primary.server->service().wal_snapshot()));
  agent.stop();
}

TEST(ReplTest, SubscribeRejectedWithoutWal) {
  NetServerConfig net_config;
  net_config.poll_interval = milliseconds(2);
  NetServer server(base_config(), net_config);  // no WAL attached
  server.start();

  serve::PlacementService replica(base_config());
  ReplicaAgentConfig agent_config;
  agent_config.port = server.port();
  agent_config.retry_backoff = milliseconds(20);
  ReplicaAgent agent(replica, agent_config);
  agent.start();

  // Every subscribe attempt is answered kBadRequest and the session
  // drops; the agent keeps retrying without ever syncing anything.
  ASSERT_TRUE(wait_until([&] { return agent.resyncs() >= 2; }));
  EXPECT_EQ(agent.records_applied(), 0u);
  EXPECT_EQ(agent.snapshots_installed(), 0u);
  agent.stop();
  server.stop();
}

TEST(ReplTest, PromotedReplicaAnswersIdenticalPlacement) {
  Primary primary;
  NetClientConfig client_config;
  client_config.port = primary.server->port();
  NetClient client(client_config);

  rnd::Pcg64 rng(3);
  add_users(client, 1, 12, rng);
  ASSERT_EQ(client.remove_users({3, 7}).status, WireStatus::kOk);

  serve::PlacementService replica(base_config());
  ReplicaAgentConfig agent_config;
  agent_config.port = primary.server->port();
  ReplicaAgent agent(replica, agent_config);
  agent.start();
  ASSERT_TRUE(wait_until([&] {
    return replica.epoch() == primary.server->service().epoch();
  }));

  const serve::PlacementView primary_view =
      primary.server->service().placement();

  // Kill the primary, promote the replica.
  agent.stop();
  primary.server->stop();
  replica.set_read_only(false);

  const serve::PlacementView promoted = replica.placement();
  EXPECT_EQ(promoted.epoch, primary_view.epoch);
  EXPECT_EQ(promoted.population, primary_view.population);
  EXPECT_EQ(promoted.objective, primary_view.objective);
  ASSERT_EQ(promoted.solution.centers.size(),
            primary_view.solution.centers.size());
  for (std::size_t c = 0; c < promoted.solution.centers.size(); ++c) {
    for (std::size_t d = 0; d < promoted.solution.centers.dim(); ++d) {
      EXPECT_EQ(promoted.solution.centers[c][d],
                primary_view.solution.centers[c][d]);
    }
  }

  // The promoted service accepts writes again.
  rnd::Pcg64 rng2(4);
  replica.apply_add({make_user(999, rng2)});
  EXPECT_EQ(replica.population(), primary_view.population + 1);
}

}  // namespace
}  // namespace mmph::net
