// Multi-loop NetServer tests: the --loops 1 golden replay digest (pinned
// against the pre-refactor single-threaded poll(2) server), multi-loop
// equivalence to the direct service, accept distribution in both modes,
// connection-ownership coverage, per-loop metric conservation (also in
// scrapes taken while the loops record), and the client's bounded
// pipelining.

#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mmph/net/client.hpp"
#include "mmph/net/server.hpp"
#include "mmph/random/pcg64.hpp"
#include "mmph/serve/placement_service.hpp"
#include "mmph/support/error.hpp"

namespace mmph {
namespace {

// FNV-1a digest of every reply of the fixed workload below, computed once
// against the pre-refactor single-threaded poll(2) NetServer. The
// multi-loop server at --loops 1 must reproduce it bit-for-bit: same
// statuses, same epochs, same objective bits, same center coordinates.
constexpr std::uint64_t kGoldenReplayDigest = 0x03df0f1c230556daull;

class ReplyDigest {
 public:
  void mix_reply(const net::ResponseFrame& r) {
    mix_u64(static_cast<std::uint64_t>(r.status));
    mix_u64(r.epoch);
    mix_double(r.objective);
    if (r.centers.has_value()) {
      mix_u64(r.centers->size());
      for (std::size_t c = 0; c < r.centers->size(); ++c) {
        for (std::size_t d = 0; d < r.centers->dim(); ++d) {
          mix_double((*r.centers)[c][d]);
        }
      }
    }
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return fnv_; }

 private:
  void mix_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      fnv_ ^= (v >> (8 * i)) & 0xFF;
      fnv_ *= 1099511628211ull;
    }
  }
  void mix_double(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    mix_u64(bits);
  }

  std::uint64_t fnv_ = 1469598103934665603ull;
};

serve::ServiceConfig golden_service_config() {
  serve::ServiceConfig config;
  config.dim = 2;
  config.k = 4;
  config.radius = 0.3;
  // Full solves only: the placement is a pure function of store content
  // and row order, independent of churn history.
  config.full_solve_churn_fraction = 0.0;
  return config;
}

/// Runs the fixed golden workload (8 rounds of adds, periodic removes, a
/// query, and an evaluate probe) through \p client, digesting every reply.
std::uint64_t replay_golden_workload(net::NetClient& client) {
  ReplyDigest digest;
  rnd::Pcg64 rng(20260808);
  std::uint64_t next_id = 1;
  std::vector<std::uint64_t> live;
  const geo::PointSet probe =
      geo::PointSet::from_rows({{0.25, 0.25}, {0.75, 0.4}, {0.5, 0.85}});

  for (int round = 0; round < 8; ++round) {
    std::vector<serve::UserRecord> batch;
    for (int j = 0; j < 5; ++j) {
      serve::UserRecord user;
      user.id = next_id++;
      user.interest = {rng.next_double(), rng.next_double()};
      user.weight = 0.5 + rng.next_double();
      live.push_back(user.id);
      batch.push_back(user);
    }
    digest.mix_reply(client.add_users(batch));
    if (round % 3 == 2) {
      std::vector<std::uint64_t> victims;
      for (int j = 0; j < 2 && !live.empty(); ++j) {
        const std::size_t at = rng.next_below(live.size());
        victims.push_back(live[at]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
      }
      digest.mix_reply(client.remove_users(victims));
    }
    digest.mix_reply(client.query_placement());
    digest.mix_reply(client.evaluate(probe));
  }
  return digest.value();
}

net::NetServerConfig fast_net_config(std::size_t loops) {
  net::NetServerConfig config;
  config.loops = loops;
  config.poll_interval = std::chrono::milliseconds(2);
  return config;
}

TEST(MultiLoop, GoldenReplayDigestAtOneLoop) {
  net::NetServer server(golden_service_config(), fast_net_config(1));
  server.start();
  EXPECT_EQ(server.loop_count(), 1u);
  EXPECT_EQ(server.accept_mode(), net::AcceptMode::kHandoff);

  net::NetClientConfig client_config;
  client_config.port = server.port();
  net::NetClient client(client_config);

  EXPECT_EQ(replay_golden_workload(client), kGoldenReplayDigest)
      << "--loops 1 replay diverged from the pre-refactor golden";
  server.stop();
}

TEST(MultiLoop, GoldenReplayDigestAtFourLoops) {
  // One client connection lands on one loop, which keeps the historical
  // deterministic schedule over its own connections — so even at four
  // loops the single-connection replay must still match the golden.
  net::NetServer server(golden_service_config(), fast_net_config(4));
  server.start();
  EXPECT_EQ(server.loop_count(), 4u);
  EXPECT_EQ(server.accept_mode(), net::AcceptMode::kReusePort);

  net::NetClientConfig client_config;
  client_config.port = server.port();
  net::NetClient client(client_config);

  EXPECT_EQ(replay_golden_workload(client), kGoldenReplayDigest);
  server.stop();
}

TEST(MultiLoop, GoldenReplayDigestWithOneStoreShard) {
  // --store-shards 1 is the bit-identity mode: the sharded store must
  // push exactly the unsharded call sequence through shard 0, so the
  // golden digest holds through the whole net stack unchanged.
  serve::ServiceConfig config = golden_service_config();
  config.store_shards = 1;
  net::NetServer server(config, fast_net_config(1));
  server.start();

  net::NetClientConfig client_config;
  client_config.port = server.port();
  net::NetClient client(client_config);

  EXPECT_EQ(replay_golden_workload(client), kGoldenReplayDigest)
      << "--store-shards 1 replay diverged from the pre-refactor golden";
  server.stop();
}

TEST(MultiLoop, ShardedStoreReplayDigestIsStableAtFourShards) {
  // At four store shards the global row order is the shard concatenation,
  // so objective bits legitimately differ from the unsharded golden — but
  // the replay is still a deterministic function of the workload, loops,
  // and shard count. Two independent runs (fresh server, fresh client)
  // must produce the same digest; the loop count must not matter either,
  // since one connection serializes through one loop.
  std::uint64_t digests[3] = {};
  const std::size_t loop_counts[3] = {1, 1, 4};
  for (int run = 0; run < 3; ++run) {
    serve::ServiceConfig config = golden_service_config();
    config.store_shards = 4;
    net::NetServer server(config, fast_net_config(loop_counts[run]));
    server.start();
    net::NetClientConfig client_config;
    client_config.port = server.port();
    net::NetClient client(client_config);
    digests[run] = replay_golden_workload(client);
    server.stop();
  }
  EXPECT_EQ(digests[0], digests[1])
      << "--store-shards 4 replay is not deterministic";
  EXPECT_EQ(digests[0], digests[2])
      << "--store-shards 4 digest depends on the loop count";
  EXPECT_NE(digests[0], 0u);
}

TEST(MultiLoop, HandoffDistributesConnectionsRoundRobin) {
  net::NetServerConfig net_config = fast_net_config(4);
  net_config.accept_mode = net::AcceptMode::kHandoff;
  net::NetServer server(golden_service_config(), net_config);
  server.start();
  EXPECT_EQ(server.accept_mode(), net::AcceptMode::kHandoff);

  // Connections are held open so each stays counted on its owner loop.
  std::vector<std::unique_ptr<net::NetClient>> clients;
  for (int i = 0; i < 8; ++i) {
    net::NetClientConfig client_config;
    client_config.port = server.port();
    clients.push_back(std::make_unique<net::NetClient>(client_config));
    const net::ResponseFrame reply = clients.back()->query_placement();
    EXPECT_EQ(reply.status, net::WireStatus::kOk);
  }

  std::uint64_t total = 0;
  for (std::size_t i = 0; i < server.loop_count(); ++i) {
    const net::NetLoopSnapshot slice = server.loop_metrics(i);
    // Round-robin over 8 connections and 4 loops: exactly 2 each.
    EXPECT_EQ(slice.accepted, 2u) << "loop " << i;
    total += slice.accepted;
  }
  EXPECT_EQ(total, server.metrics().accepted);
  server.stop();
}

TEST(MultiLoop, ReusePortServesEveryConnection) {
  // The kernel decides SO_REUSEPORT placement, so the per-loop split is
  // not asserted — only that every connection lands somewhere, is owned
  // by exactly one loop, and the slices sum to the aggregate.
  net::NetServerConfig net_config = fast_net_config(4);
  net_config.accept_mode = net::AcceptMode::kReusePort;
  net::NetServer server(golden_service_config(), net_config);
  server.start();

  constexpr int kClients = 12;
  std::vector<std::unique_ptr<net::NetClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    net::NetClientConfig client_config;
    client_config.port = server.port();
    clients.push_back(std::make_unique<net::NetClient>(client_config));
    const net::ResponseFrame reply = clients.back()->query_placement();
    EXPECT_EQ(reply.status, net::WireStatus::kOk);
  }

  std::uint64_t accepted = 0;
  std::uint64_t requests = 0;
  std::size_t open = 0;
  for (std::size_t i = 0; i < server.loop_count(); ++i) {
    const net::NetLoopSnapshot slice = server.loop_metrics(i);
    accepted += slice.accepted;
    requests += slice.requests;
    open += slice.open_connections;
  }
  const net::NetMetricsSnapshot m = server.metrics();
  EXPECT_EQ(accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(accepted, m.accepted);
  EXPECT_EQ(requests, m.requests);
  EXPECT_EQ(open, static_cast<std::size_t>(kClients));
  server.stop();
}

TEST(MultiLoop, OwnershipChecksCoverTheRequestPath) {
  net::NetServer server(golden_service_config(), fast_net_config(2));
  server.start();

  net::NetClientConfig client_config;
  client_config.port = server.port();
  net::NetClient client(client_config);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(client.query_placement().status, net::WireStatus::kOk);
  }

  // Every read/collect/flush touch asserts ownership and bumps the
  // counter — a request cannot be served without several checks.
  const net::NetMetricsSnapshot m = server.metrics();
  EXPECT_GT(m.ownership_checks, 0u);
  std::uint64_t per_loop = 0;
  for (std::size_t i = 0; i < server.loop_count(); ++i) {
    per_loop += server.loop_metrics(i).ownership_checks;
  }
  EXPECT_EQ(per_loop, m.ownership_checks);
  server.stop();
}

TEST(MultiLoop, LoopLabeledSeriesAppearInStatsScrape) {
  net::NetServer server(golden_service_config(), fast_net_config(2));
  server.start();

  net::NetClientConfig client_config;
  client_config.port = server.port();
  net::NetClient client(client_config);
  EXPECT_EQ(client.query_placement().status, net::WireStatus::kOk);

  const net::ResponseFrame stats = client.stats();
  ASSERT_EQ(stats.status, net::WireStatus::kOk);
  ASSERT_TRUE(stats.stats.has_value());
  EXPECT_NE(stats.stats->find("mmph_net_loop_requests_total{loop=\"0\"}"),
            std::string::npos);
  EXPECT_NE(stats.stats->find("mmph_net_loop_requests_total{loop=\"1\"}"),
            std::string::npos);
  EXPECT_NE(stats.stats->find("mmph_net_ownership_checks_total"),
            std::string::npos);
  server.stop();
}

// Value of the sample line `series<SP>value` in an exposition; 0 if absent.
std::uint64_t sample(const std::string& text, const std::string& series) {
  const std::size_t at = text.find("\n" + series + " ");
  return at == std::string::npos
             ? 0
             : std::stoull(text.substr(at + series.size() + 2));
}

TEST(MultiLoop, ScrapesWhileLoopsRecordStayConsistent) {
  // Scrapes render from the event loops while other loops record (the
  // TSan gate runs this suite); each one writes every TYPE line once,
  // and the last one's totals are the sums of its per-loop series.
  net::NetServer server(golden_service_config(), fast_net_config(2));
  server.start();
  net::NetClientConfig client_config;
  client_config.port = server.port();

  constexpr int kClients = 3;
  constexpr int kRequests = 40;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&client_config] {
      net::NetClient client(client_config);
      for (int i = 0; i < kRequests; ++i) {
        EXPECT_EQ(client.query_placement().status, net::WireStatus::kOk);
      }
    });
  }
  net::NetClient scraper(client_config);
  std::uint64_t scrapes = 0;
  for (; scrapes < 20; ++scrapes) {
    const net::ResponseFrame reply = scraper.stats();
    ASSERT_EQ(reply.status, net::WireStatus::kOk);
    std::istringstream text(*reply.stats);
    std::set<std::string> types;
    for (std::string line; std::getline(text, line);) {
      if (line.rfind("# TYPE ", 0) == 0) {
        EXPECT_TRUE(types.insert(line).second) << "repeated: " << line;
      }
    }
  }
  for (std::thread& t : clients) t.join();

  const std::string text = *scraper.stats().stats;
  const std::uint64_t total = sample(text, "mmph_net_requests_total");
  EXPECT_EQ(total, kClients * kRequests + scrapes);
  EXPECT_EQ(sample(text, "mmph_net_loop_requests_total{loop=\"0\"}") +
                sample(text, "mmph_net_loop_requests_total{loop=\"1\"}"),
            total);
  server.stop();
}

TEST(MultiLoop, RejectsBadLoopConfigs) {
  net::NetServerConfig net_config = fast_net_config(0);
  EXPECT_THROW(net::NetServer(golden_service_config(), net_config),
               InvalidArgument);
  net_config = fast_net_config(2);
  net_config.loop_socket_ops = {nullptr, nullptr, nullptr};  // wrong arity
  EXPECT_THROW(net::NetServer(golden_service_config(), net_config),
               InvalidArgument);
}

TEST(Pipelining, PipelinedRepliesMatchBlockingFifo) {
  net::NetServer server(golden_service_config(), fast_net_config(2));
  server.start();

  net::NetClientConfig client_config;
  client_config.port = server.port();
  client_config.pipeline_window = 8;
  net::NetClient client(client_config);

  std::vector<serve::UserRecord> users;
  for (std::uint64_t id = 1; id <= 6; ++id) {
    serve::UserRecord user;
    user.id = id;
    user.interest = {0.1 * static_cast<double>(id),
                     0.9 - 0.1 * static_cast<double>(id)};
    user.weight = 1.0;
    users.push_back(user);
  }
  ASSERT_EQ(client.add_users(users).status, net::WireStatus::kOk);
  const net::ResponseFrame blocking = client.query_placement();
  ASSERT_EQ(blocking.status, net::WireStatus::kOk);

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(client.pipeline_query_placement());
  EXPECT_EQ(client.inflight(), 8u);
  // The window is full: one more pipelined send must refuse, and a
  // blocking call must refuse to interleave.
  EXPECT_THROW((void)client.pipeline_query_placement(), InvalidArgument);
  EXPECT_THROW((void)client.query_placement(), InvalidArgument);

  for (int i = 0; i < 8; ++i) {
    const net::ResponseFrame reply = client.drain_one();
    EXPECT_EQ(reply.request_id, ids[static_cast<std::size_t>(i)]);
    EXPECT_EQ(reply.status, net::WireStatus::kOk);
    EXPECT_EQ(reply.epoch, blocking.epoch);
    EXPECT_EQ(reply.objective, blocking.objective);
  }
  EXPECT_EQ(client.inflight(), 0u);
  EXPECT_THROW((void)client.drain_one(), InvalidArgument);

  // The pipeline drained cleanly; blocking calls work again.
  EXPECT_EQ(client.query_placement().status, net::WireStatus::kOk);
  server.stop();
}

TEST(Pipelining, MixedPipelineDrainsInOrderWithBatchSemantics) {
  serve::ServiceConfig service_config = golden_service_config();
  net::NetServer server(service_config, fast_net_config(1));
  server.start();

  net::NetClientConfig client_config;
  client_config.port = server.port();
  client_config.pipeline_window = 16;
  net::NetClient client(client_config);

  serve::UserRecord a;
  a.id = 1;
  a.interest = {0.2, 0.2};
  a.weight = 1.0;
  serve::UserRecord b;
  b.id = 2;
  b.interest = {0.8, 0.8};
  b.weight = 1.0;

  // All four frames arrive in one read pass and drain as ONE service
  // batch, so every reply reflects the post-batch store (documented
  // kQueryPlacement semantics): both adds applied, epoch 2, and both
  // queries identical.
  const std::uint64_t id_add1 = client.pipeline_add_users({a});
  const std::uint64_t id_q1 = client.pipeline_query_placement();
  const std::uint64_t id_add2 = client.pipeline_add_users({b});
  const std::uint64_t id_q2 = client.pipeline_query_placement();

  const net::ResponseFrame add1 = client.drain_one();
  const net::ResponseFrame query1 = client.drain_one();
  const net::ResponseFrame add2 = client.drain_one();
  const net::ResponseFrame query2 = client.drain_one();
  EXPECT_EQ(add1.request_id, id_add1);
  EXPECT_EQ(query1.request_id, id_q1);
  EXPECT_EQ(add2.request_id, id_add2);
  EXPECT_EQ(query2.request_id, id_q2);
  EXPECT_EQ(add1.status, net::WireStatus::kOk);
  EXPECT_EQ(add2.status, net::WireStatus::kOk);
  ASSERT_EQ(query1.status, net::WireStatus::kOk);
  ASSERT_EQ(query2.status, net::WireStatus::kOk);
  EXPECT_EQ(query1.epoch, 2u);
  EXPECT_EQ(query2.epoch, 2u);
  EXPECT_EQ(query1.objective, query2.objective);

  // A blocking query after the drain sees the same settled state.
  const net::ResponseFrame settled = client.query_placement();
  ASSERT_EQ(settled.status, net::WireStatus::kOk);
  EXPECT_EQ(settled.epoch, 2u);
  EXPECT_EQ(settled.objective, query2.objective);
  server.stop();
}

}  // namespace
}  // namespace mmph
