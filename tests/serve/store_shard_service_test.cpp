// PlacementService with a region-sharded InstanceStore: config
// validation, shards == 1 bit-identity against the unsharded service,
// content equivalence across shard counts, per-shard WAL crash recovery
// (restore_sharded round-trip, direct and batched), the
// store.shard.alloc_fail and wal.barrier.fsync_fail fault sites (direct and
// batched), replication rejection while sharded (at the server), the
// byte-identical one-shard log of either log input, the loop->shard
// affinity counters, the per-shard series' exposition, and full solves
// that return the one-shard centers at every store-shard count.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "mmph/core/exhaustive.hpp"
#include "mmph/core/kernels.hpp"
#include "mmph/core/objective.hpp"
#include "mmph/net/server.hpp"
#include "mmph/net/socket.hpp"
#include "mmph/net/wire.hpp"
#include "mmph/parallel/thread_pool.hpp"
#include "mmph/random/pcg64.hpp"
#include "mmph/random/workload.hpp"
#include "mmph/serve/placement_service.hpp"
#include "mmph/support/error.hpp"
#include "mmph/wal/file_ops.hpp"
#include "mmph/wal/sharded_wal.hpp"

namespace mmph::serve {
namespace {

UserRecord user(std::uint64_t id, double weight, double x, double y) {
  UserRecord record;
  record.id = id;
  record.interest = {x, y};
  record.weight = weight;
  return record;
}

/// The service's kStats series (serve and WAL) as exposition text.
std::string exposition(const PlacementService& service) {
  obs::Registry registry;
  service.describe_metrics(registry);
  return registry.exposition_text();
}

ServiceConfig sharded_config(std::size_t shards) {
  ServiceConfig config;
  config.dim = 2;
  config.k = 4;
  config.radius = 0.3;
  config.full_solve_churn_fraction = 0.0;
  config.store_shards = shards;
  return config;
}

/// Fixed mixed workload: adds, overwrites, removes. Deterministic.
void run_workload(PlacementService& service) {
  rnd::Pcg64 rng(20260808);
  std::vector<std::uint64_t> live;
  std::uint64_t next_id = 1;
  for (int round = 0; round < 6; ++round) {
    std::vector<UserRecord> batch;
    for (int j = 0; j < 7; ++j) {
      const std::uint64_t id = next_id++;
      batch.push_back(user(id, 0.5 + rng.next_double(), rng.next_double(),
                           rng.next_double()));
      live.push_back(id);
    }
    service.apply_add(batch);
    if (round % 2 == 1 && live.size() > 3) {
      std::vector<std::uint64_t> victims = {live[0], live[2]};
      live.erase(live.begin() + 2);
      live.erase(live.begin());
      service.apply_remove(victims);
    }
  }
}

/// Rows of \p snap sorted by id, flattened to comparable tuples.
std::vector<std::tuple<std::uint64_t, double, double, double>> sorted_rows(
    const wal::WalSnapshot& snap) {
  std::vector<std::tuple<std::uint64_t, double, double, double>> rows;
  for (std::size_t i = 0; i < snap.size(); ++i) {
    rows.emplace_back(snap.ids[i], snap.weights[i], snap.coords[2 * i],
                      snap.coords[2 * i + 1]);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(ShardServiceConfig, ValidatesShardWiring) {
  // wal requires store_shards == 1.
  wal::MemFileOps mem;
  wal::WalConfig wal_config;
  wal_config.dir = "wal";
  wal_config.file_ops = &mem;
  wal::WalWriter writer(wal_config);
  ServiceConfig bad = sharded_config(2);
  bad.wal = &writer;
  EXPECT_THROW(PlacementService{bad}, InvalidArgument);

  // shard_wal's shard count must match store_shards.
  wal::WalConfig base;
  base.dir = "swal";
  base.file_ops = &mem;
  wal::ShardedWal coordinator(base, 4, wal::ShardedRecovery{});
  ServiceConfig mismatch = sharded_config(2);
  mismatch.shard_wal = &coordinator;
  EXPECT_THROW(PlacementService{mismatch}, InvalidArgument);

  // wal and shard_wal are mutually exclusive.
  wal::WalConfig base1;
  base1.dir = "swal1";
  base1.file_ops = &mem;
  wal::ShardedWal single(base1, 1, wal::ShardedRecovery{});
  ServiceConfig both = sharded_config(1);
  both.wal = &writer;
  both.shard_wal = &single;
  EXPECT_THROW(PlacementService{both}, InvalidArgument);

  // store_shards == 0 is invalid.
  EXPECT_THROW(PlacementService{sharded_config(0)}, InvalidArgument);
}

TEST(ShardService, OneShardIsBitIdenticalToUnsharded) {
  ServiceConfig plain_config = sharded_config(1);
  plain_config.store_shards = 1;
  PlacementService plain(plain_config);

  // Same workload through a 1-shard store with a ShardedWal attached:
  // the --store-shards 1 golden discipline — identical responses,
  // identical epochs, identical placement bits, WAL or not.
  wal::MemFileOps mem;
  wal::WalConfig base;
  base.dir = "wal";
  base.file_ops = &mem;
  wal::ShardedWal coordinator(base, 1, wal::ShardedRecovery{});
  ServiceConfig logged_config = sharded_config(1);
  logged_config.shard_wal = &coordinator;
  PlacementService logged(logged_config);

  run_workload(plain);
  run_workload(logged);

  EXPECT_EQ(plain.epoch(), logged.epoch());
  EXPECT_EQ(plain.population(), logged.population());

  const PlacementView view_plain = plain.placement();
  const PlacementView view_logged = logged.placement();
  EXPECT_EQ(view_plain.epoch, view_logged.epoch);
  EXPECT_EQ(view_plain.objective, view_logged.objective);  // bitwise
  const geo::PointSet& c1 = view_plain.solution.centers;
  const geo::PointSet& c2 = view_logged.solution.centers;
  ASSERT_EQ(c1.size(), c2.size());
  for (std::size_t i = 0; i < c1.size(); ++i) {
    for (std::size_t d = 0; d < 2; ++d) EXPECT_EQ(c1[i][d], c2[i][d]);
  }

  // And the store images agree row for row (same order: one shard).
  const wal::WalSnapshot s1 = plain.wal_snapshot();
  const wal::WalSnapshot s2 = logged.wal_snapshot();
  EXPECT_EQ(s1.epoch, s2.epoch);
  EXPECT_EQ(s1.ids, s2.ids);
  EXPECT_EQ(s1.weights, s2.weights);
  EXPECT_EQ(s1.coords, s2.coords);
}

/// One-shard log script: add batches that repeat an id, removes with
/// unknown and repeated ids, checkpoint rolls (the caller's
/// snapshot_every_ops is small), batched mutations, and a restore_from that
/// jumps the epoch the way a replica's snapshot install does.
void run_log_script(PlacementService& service) {
  service.apply_add({user(1, 1.0, 0.1, 0.2), user(2, 2.0, 0.8, 0.7),
                     user(1, 1.5, 0.3, 0.4), user(3, 0.5, 0.5, 0.5)});
  service.apply_remove({2, 99, 2, 3, 3});
  rnd::Pcg64 rng(20261019);
  std::uint64_t next_id = 10;
  for (int round = 0; round < 5; ++round) {
    std::vector<UserRecord> batch;
    for (int j = 0; j < 4; ++j) {
      const std::uint64_t id = next_id++;
      batch.push_back(user(id, 0.5 + rng.next_double(), rng.next_double(),
                           rng.next_double()));
      if (j == 1) {  // the same id again, moved
        batch.push_back(user(id, 1.0, rng.next_double(), rng.next_double()));
      }
    }
    service.apply_add(batch);
    service.apply_remove({next_id - 4, 12345, next_id - 4, next_id - 2});
  }
  std::future<Response> add = service.submit(Request::add_users(
      {user(500, 1.0, 0.6, 0.6), user(501, 1.0, 0.2, 0.9),
       user(500, 2.0, 0.1, 0.1)}));
  std::future<Response> remove =
      service.submit(Request::remove_users({501, 777, 501}));
  (void)service.pump();
  ASSERT_EQ(add.get().status, ResponseStatus::kOk);
  ASSERT_EQ(remove.get().status, ResponseStatus::kOk);

  wal::WalSnapshot installed = service.wal_snapshot();
  installed.epoch += 5;
  installed.ids.pop_back();
  installed.weights.pop_back();
  installed.coords.resize(installed.coords.size() - 2);
  service.restore_from(installed);
  service.apply_add({user(600, 1.0, 0.4, 0.4), user(10, 3.0, 0.9, 0.1)});
  service.apply_remove({600, 600, 4242});
}

/// Every file of an in-memory filesystem, by path.
std::map<std::string, std::vector<std::uint8_t>> log_image(
    const wal::MemFileOps& fs) {
  std::map<std::string, std::vector<std::uint8_t>> image;
  for (const std::string& path : fs.all_paths()) {
    image[path] = *fs.file_bytes(path);
  }
  return image;
}

/// FNV-1a over each path and its bytes, in path order.
std::uint64_t image_digest(
    const std::map<std::string, std::vector<std::uint8_t>>& image) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  for (const auto& [path, bytes] : image) {
    for (const char c : path) mix(static_cast<std::uint8_t>(c));
    mix(0);
    for (const std::uint8_t byte : bytes) mix(byte);
    mix(0xff);
  }
  return h;
}

// The two one-shard inputs, ServiceConfig::wal and a one-shard shard_wal,
// write the same log bytes through the same path. The pin was taken from
// the same script at a build where the two inputs still had separate write
// paths, so it also fixes the on-disk format older logs were written in.
TEST(ShardService, OneShardLogInputsWriteByteIdenticalLogs) {
  constexpr std::uint64_t kPinnedImage = 0x2c2322b508f137d8;
  wal::WalConfig base;
  base.dir = "wal";
  base.snapshot_every_ops = 8;

  wal::MemFileOps writer_fs;
  wal::WalConfig writer_config = base;
  writer_config.file_ops = &writer_fs;
  wal::WalWriter writer(writer_config);
  ServiceConfig writer_service_config = sharded_config(1);
  writer_service_config.wal = &writer;
  PlacementService via_writer(writer_service_config);
  run_log_script(via_writer);

  wal::MemFileOps sharded_fs;
  wal::WalConfig sharded_config_1 = base;
  sharded_config_1.file_ops = &sharded_fs;
  wal::ShardedWal logs(sharded_config_1, 1, wal::ShardedRecovery{});
  ServiceConfig sharded_service_config = sharded_config(1);
  sharded_service_config.shard_wal = &logs;
  PlacementService via_sharded(sharded_service_config);
  run_log_script(via_sharded);

  const auto image = log_image(writer_fs);
  EXPECT_EQ(image, log_image(sharded_fs));
  EXPECT_EQ(image_digest(image), kPinnedImage);
  EXPECT_TRUE(std::any_of(image.begin(), image.end(), [](const auto& file) {
    return file.first.find("snap-") != std::string::npos &&
           file.first.find("snap-00000000000000000000") == std::string::npos;
  })) << "the script never rolled a checkpoint";

  const std::unique_ptr<wal::MemFileOps> crashed = writer_fs.clone();
  const wal::RecoveryResult recovered = wal::recover("wal", 2, *crashed);
  EXPECT_TRUE(recovered.clean);
  EXPECT_EQ(wal::snapshot_digest(recovered.store),
            wal::snapshot_digest(via_writer.wal_snapshot()));
}

TEST(ShardService, ShardCountsAgreeOnContent) {
  PlacementService one(sharded_config(1));
  PlacementService two(sharded_config(2));
  PlacementService four(sharded_config(4));
  run_workload(one);
  run_workload(two);
  run_workload(four);

  EXPECT_EQ(one.population(), two.population());
  EXPECT_EQ(one.population(), four.population());

  const auto rows1 = sorted_rows(one.wal_snapshot());
  const auto rows2 = sorted_rows(two.wal_snapshot());
  const auto rows4 = sorted_rows(four.wal_snapshot());
  EXPECT_EQ(rows1, rows2);
  EXPECT_EQ(rows1, rows4);

  // The objective of an explicit center set is a per-user sum — shard
  // layout only changes the summation order, so values agree to fp noise.
  const geo::PointSet probe =
      geo::PointSet::from_rows({{0.25, 0.25}, {0.75, 0.4}, {0.5, 0.85}});
  const double f1 = one.evaluate(probe);
  EXPECT_NEAR(one.evaluate(probe), two.evaluate(probe), 1e-9 * (1.0 + f1));
  EXPECT_NEAR(f1, four.evaluate(probe), 1e-9 * (1.0 + f1));

  // Sharded solves still produce a valid placement over everyone.
  const PlacementView view = four.placement();
  EXPECT_EQ(view.population, four.population());
  EXPECT_EQ(view.solution.centers.size(), 4u);
  EXPECT_GT(view.objective, 0.0);
}

TEST(ShardService, ShardedSolveIsDeterministic) {
  PlacementService a(sharded_config(4));
  PlacementService b(sharded_config(4));
  run_workload(a);
  run_workload(b);
  const PlacementView va = a.placement();
  const PlacementView vb = b.placement();
  EXPECT_EQ(va.epoch, vb.epoch);
  EXPECT_EQ(va.objective, vb.objective);  // bitwise
  ASSERT_EQ(va.solution.centers.size(), vb.solution.centers.size());
  for (std::size_t i = 0; i < va.solution.centers.size(); ++i) {
    for (std::size_t d = 0; d < 2; ++d) {
      EXPECT_EQ(va.solution.centers[i][d], vb.solution.centers[i][d]);
    }
  }
}

TEST(ShardService, CrashRecoveryRestoresEveryShardBitwise) {
  wal::MemFileOps mem;
  wal::WalConfig base;
  base.dir = "wal";
  base.file_ops = &mem;
  wal::ShardedWal coordinator(base, 4, wal::ShardedRecovery{});
  ServiceConfig config = sharded_config(4);
  config.shard_wal = &coordinator;
  PlacementService service(config);
  run_workload(service);
  const wal::WalSnapshot live = service.wal_snapshot();

  // Crash: clone the filesystem as-is and recover from the clone.
  const std::unique_ptr<wal::MemFileOps> crashed = mem.clone();
  const wal::ShardedRecovery recovered =
      wal::recover_sharded("wal", 4, 2, *crashed);
  EXPECT_TRUE(recovered.clean);
  EXPECT_TRUE(recovered.dir_found);
  EXPECT_EQ(recovered.global_epoch, service.epoch());
  EXPECT_EQ(recovered.rows, service.population());

  wal::ShardedWal resumed_wal(
      [&] {
        wal::WalConfig c;
        c.dir = "wal";
        c.file_ops = crashed.get();
        return c;
      }(),
      4, recovered);
  ServiceConfig resumed_config = sharded_config(4);
  resumed_config.shard_wal = &resumed_wal;
  PlacementService resumed(resumed_config);
  resumed.restore_sharded(recovered);

  // Bitwise identical: per shard (the global snapshot is the shard
  // concatenation, so equal globals at equal shard layout means equal
  // shards) and in the aggregate.
  const wal::WalSnapshot after = resumed.wal_snapshot();
  EXPECT_EQ(after.epoch, live.epoch);
  EXPECT_EQ(after.ids, live.ids);
  EXPECT_EQ(after.weights, live.weights);
  EXPECT_EQ(after.coords, live.coords);

  // The recovered service keeps serving: mutations chain onto the
  // restored per-shard epochs and queries solve.
  resumed.apply_add({user(9001, 1.0, 0.4, 0.6)});
  EXPECT_EQ(resumed.epoch(), live.epoch + 1);
  EXPECT_GT(resumed.placement().objective, 0.0);

  // Batched path (submit + pump) at every shard count: an acked mutation
  // implies the commit barrier ran, checkpoints still roll, and recovery
  // reproduces the rows.
  for (const std::size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("store_shards " + std::to_string(shards));
    wal::MemFileOps fs;
    wal::WalConfig cfg = base;
    cfg.file_ops = &fs;
    cfg.snapshot_every_ops = 4;
    wal::ShardedWal logs(cfg, shards, wal::ShardedRecovery{});
    ServiceConfig batched_config = sharded_config(shards);
    batched_config.shard_wal = &logs;
    PlacementService batched(batched_config);
    rnd::Pcg64 rng(shards);
    for (std::uint64_t round = 0; round < 4; ++round) {
      std::vector<UserRecord> users;
      for (std::uint64_t j = 1; j <= 5; ++j) {
        users.push_back(user(round * 5 + j, 0.5 + rng.next_double(),
                             rng.next_double(), rng.next_double()));
      }
      const std::uint64_t before = logs.commit_epoch();
      std::future<Response> add = batched.submit(Request::add_users(users));
      std::future<Response> remove =
          batched.submit(Request::remove_users({round * 5 + 1}));
      (void)batched.pump();
      ASSERT_EQ(add.get().status, ResponseStatus::kOk);
      ASSERT_EQ(remove.get().status, ResponseStatus::kOk);
      EXPECT_GT(logs.commit_epoch(), before);
    }
    const std::vector<std::string> paths = fs.all_paths();
    EXPECT_TRUE(std::any_of(paths.begin(), paths.end(), [](const auto& p) {
      return p.find("snap-") != std::string::npos &&
             p.find("snap-00000000000000000000") == std::string::npos;
    })) << "batched mutations never reached a checkpoint";
    const std::unique_ptr<wal::MemFileOps> image = fs.clone();
    const wal::ShardedRecovery got =
        wal::recover_sharded("wal", shards, 2, *image);
    EXPECT_EQ(got.global_epoch, batched.epoch());
    EXPECT_EQ(got.rows, batched.population());
    PlacementService restored(sharded_config(shards));
    restored.restore_sharded(got);
    EXPECT_EQ(sorted_rows(restored.wal_snapshot()),
              sorted_rows(batched.wal_snapshot()));
  }
}

TEST(ShardService, ShardAllocFaultFiresBeforeAnyMutation) {
  ServiceConfig config = sharded_config(2);
  bool armed = true;
  config.fault_hook = [&](std::string_view site) {
    return armed && site == kFaultStoreShardAllocFail;
  };
  PlacementService service(config);
  armed = false;
  service.apply_add({user(1, 1.0, 0.1, 0.2)});
  const std::uint64_t epoch = service.epoch();

  armed = true;
  EXPECT_THROW(service.apply_add({user(2, 1.0, 0.3, 0.4)}), std::bad_alloc);
  EXPECT_THROW(service.apply_remove({1}), std::bad_alloc);
  EXPECT_EQ(service.population(), 1u);
  EXPECT_EQ(service.epoch(), epoch);

  // Batched path: the request is answered kInternalError, batch intact.
  std::future<Response> reply =
      service.submit(Request::add_users({user(3, 1.0, 0.5, 0.5)}));
  (void)service.pump();
  EXPECT_EQ(reply.get().status, ResponseStatus::kInternalError);
  EXPECT_EQ(service.population(), 1u);
  armed = false;
}

TEST(ShardService, BarrierFaultPoisonsTheWholeLogSet) {
  wal::MemFileOps mem;
  bool armed = false;
  wal::BarrierFaultHook hook = [&](std::string_view) { return armed; };
  wal::WalConfig base;
  base.dir = "wal";
  base.file_ops = &mem;
  wal::ShardedWal coordinator(base, 2, wal::ShardedRecovery{}, hook);
  ServiceConfig config = sharded_config(2);
  config.shard_wal = &coordinator;
  PlacementService service(config);
  service.apply_add({user(1, 1.0, 0.1, 0.2)});

  // The barrier dies: the batch is applied in memory but its durability
  // is unknown — the call surfaces WalError (batch path: kInternalError)
  // and every shard's writer is poisoned.
  armed = true;
  EXPECT_THROW(service.apply_add({user(2, 1.0, 0.9, 0.8)}), wal::WalError);
  EXPECT_TRUE(coordinator.failed());
  armed = false;
  // Poisoned log set: later mutations refuse before touching the store.
  const std::uint64_t epoch = service.epoch();
  EXPECT_THROW(service.apply_add({user(3, 1.0, 0.5, 0.5)}), wal::WalError);
  EXPECT_EQ(service.epoch(), epoch);

  // Batched path (submit + pump) at every shard count: the failed barrier
  // turns the batch's kOk into kInternalError.
  for (const std::size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("store_shards " + std::to_string(shards));
    wal::MemFileOps fs;
    wal::WalConfig cfg = base;
    cfg.file_ops = &fs;
    wal::ShardedWal logs(cfg, shards, wal::ShardedRecovery{}, hook);
    ServiceConfig batched_config = sharded_config(shards);
    batched_config.shard_wal = &logs;
    PlacementService batched(batched_config);
    std::future<Response> ok =
        batched.submit(Request::add_users({user(1, 1.0, 0.1, 0.2)}));
    (void)batched.pump();
    EXPECT_EQ(ok.get().status, ResponseStatus::kOk);

    armed = true;
    std::future<Response> lost =
        batched.submit(Request::add_users({user(2, 1.0, 0.9, 0.8)}));
    (void)batched.pump();
    EXPECT_EQ(lost.get().status, ResponseStatus::kInternalError);
    EXPECT_TRUE(logs.failed());
    armed = false;

    const std::uint64_t poisoned_epoch = batched.epoch();
    std::future<Response> refused =
        batched.submit(Request::add_users({user(3, 1.0, 0.5, 0.5)}));
    (void)batched.pump();
    EXPECT_EQ(refused.get().status, ResponseStatus::kInternalError);
    EXPECT_EQ(batched.epoch(), poisoned_epoch);
  }
}

/// Sends one kReplSubscribe to a server on \p port and decodes the first
/// frame it answers with.
net::FrameDecoder::Result subscribe_once(std::uint16_t port) {
  using Clock = std::chrono::steady_clock;
  const net::Socket sock =
      net::tcp_connect("127.0.0.1", port, std::chrono::seconds(5));
  net::RequestFrame subscribe;
  subscribe.type = net::FrameType::kReplSubscribe;
  subscribe.request_id = 7;
  std::vector<std::uint8_t> bytes;
  net::encode_request(subscribe, bytes);
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  EXPECT_TRUE(net::send_all(sock, bytes.data(), bytes.size(), deadline));
  net::FrameDecoder decoder;
  std::uint8_t chunk[4096];
  while (Clock::now() < deadline) {
    const net::IoResult r =
        net::recv_some(sock, chunk, sizeof(chunk), deadline);
    if (r.status == net::IoStatus::kClosed ||
        r.status == net::IoStatus::kError) {
      break;
    }
    decoder.feed(chunk, r.bytes);
    net::FrameDecoder::Result decoded = decoder.next();
    if (decoded.status != net::DecodeStatus::kNeedMoreData) return decoded;
  }
  ADD_FAILURE() << "no answer to kReplSubscribe";
  return {};
}

TEST(ShardService, ReplicationEndpointsRejectedWhileSharded) {
  // A 2-shard log has no single epoch chain to stream: the server answers
  // kReplSubscribe with kBadRequest even though the primary is durable.
  wal::MemFileOps mem;
  wal::WalConfig base;
  base.dir = "wal";
  base.file_ops = &mem;
  wal::ShardedWal logs(base, 2, wal::ShardedRecovery{});
  ServiceConfig primary_config = sharded_config(2);
  primary_config.shard_wal = &logs;
  net::NetServer primary(primary_config, net::NetServerConfig{});
  primary.start();
  primary.service().apply_add({user(1, 1.0, 0.1, 0.2)});
  const net::FrameDecoder::Result answer = subscribe_once(primary.port());
  ASSERT_EQ(answer.status, net::DecodeStatus::kOk);
  ASSERT_TRUE(answer.is_response);
  EXPECT_EQ(answer.response.request_id, 7u);
  EXPECT_EQ(answer.response.status, net::WireStatus::kBadRequest);
  EXPECT_EQ(answer.response.epoch, primary.service().epoch());
  primary.stop();

  PlacementService service(sharded_config(2));
  service.apply_add({user(1, 1.0, 0.1, 0.2)});

  wal::WalSnapshot snapshot;
  snapshot.epoch = 1;
  snapshot.dim = 2;
  snapshot.ids = {7};
  snapshot.weights = {1.0};
  snapshot.coords = {0.3, 0.3};
  EXPECT_THROW(service.restore_from(snapshot), StateError);

  wal::WalRecord record;
  record.type = wal::RecordType::kUpsert;
  record.dim = 2;
  record.epoch = 2;
  record.ids = {8};
  record.weights = {1.0};
  record.coords = {0.4, 0.4};
  EXPECT_THROW(service.apply_replicated(record, record.epoch), StateError);
}

TEST(ShardService, AffinityCountersTrackTheHintShardMatch) {
  ServiceConfig config = sharded_config(2);
  PlacementService service(config);

  // Route one user whose shard we know, once with the matching hint and
  // once with the off-by-one hint.
  Request hit = Request::add_users({user(1, 1.0, 0.1, 0.2)});
  // Compute the true shard by asking a throwaway store with the same map.
  ShardedInstanceStore probe(2, 2, 0.3);
  const std::vector<double> p = {0.1, 0.2};
  const std::uint32_t shard = static_cast<std::uint32_t>(
      probe.shard_of_point(geo::ConstVec(p.data(), 2)));
  hit.shard_hint = shard;
  std::future<Response> r1 = service.submit(std::move(hit));
  (void)service.pump();
  EXPECT_EQ(r1.get().status, ResponseStatus::kOk);

  Request miss = Request::add_users({user(2, 1.0, 0.1, 0.2)});
  miss.shard_hint = shard + 1;  // wraps to the other shard via % 2
  std::future<Response> r2 = service.submit(std::move(miss));
  (void)service.pump();
  EXPECT_EQ(r2.get().status, ResponseStatus::kOk);

  const std::string text = exposition(service);
  EXPECT_NE(text.find("mmph_store_shard_affinity_hits_total 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("mmph_store_shard_affinity_misses_total 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("mmph_store_shard_mutations_total{shard="),
            std::string::npos);
}

TEST(ShardService, PerShardRowGaugesPublishAfterSolves) {
  PlacementService service(sharded_config(4));
  run_workload(service);
  (void)service.placement();
  const std::string text = exposition(service);
  EXPECT_NE(text.find("mmph_store_shard_rows{shard=\"0\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("mmph_store_shard_rows{shard=\"3\"}"),
            std::string::npos);
}

// The text format allows one TYPE line per metric family, with the
// family's samples grouped under it; a strict parser rejects a scrape that
// repeats one.
TEST(ShardService, ExpositionWritesEachFamilyHeaderOnce) {
  PlacementService service(sharded_config(4));
  run_workload(service);
  (void)service.placement();
  std::istringstream text(exposition(service));
  std::set<std::string> families;
  std::size_t type_lines = 0;
  for (std::string line; std::getline(text, line);) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    ++type_lines;
    const std::string family = line.substr(7, line.find(' ', 7) - 7);
    EXPECT_TRUE(families.insert(family).second) << "repeated: " << line;
  }
  EXPECT_EQ(families.count("mmph_store_shard_mutations_total"), 1u);
  EXPECT_EQ(families.count("mmph_store_shard_rows"), 1u);
  EXPECT_EQ(type_lines, families.size());
}

/// A store shard is a storage layout, not a solve unit: every full solve
/// splits the global rows by the sharded solver's own median split, so the
/// same users solve to the same centers at any store-shard count. The rows
/// arrive in a different order (shard by shard), which moves nothing but
/// the objective's summation order. One instance scans, one indexes.
TEST(ShardService, FullSolveIsIndependentOfStoreShardCount) {
  const core::kernels::ScopedIndexMode mode(core::kernels::IndexMode::kAuto);
  par::ThreadPool pool(2);
  for (const std::size_t n : {std::size_t{2500}, std::size_t{20000}}) {
    rnd::WorkloadSpec spec;
    spec.n = n;
    spec.box_side = std::sqrt(static_cast<double>(n) / 10.0);  // 10 / unit²
    spec.weights = rnd::WeightScheme::kUniformInt;               // 1..5
    rnd::Rng rng(1);
    const rnd::Workload workload = rnd::generate_workload(spec, rng);
    std::vector<UserRecord> users;
    users.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      users.push_back(user(static_cast<std::uint64_t>(i + 1),
                           workload.weights[i], workload.points[i][0],
                           workload.points[i][1]));
    }
    const core::Problem problem =
        core::Problem::from_workload(workload, 1.0, geo::l2_metric());
    EXPECT_EQ(core::kernels::should_index(problem), n == 20000) << "n=" << n;

    std::optional<PlacementView> one;
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      ServiceConfig config;
      config.dim = 2;
      config.k = 8;
      config.radius = 1.0;
      config.store_shards = shards;
      PlacementService service(config, &pool);
      service.apply_add(users);
      const PlacementView view = service.placement();
      EXPECT_EQ(service.metrics().full_solves, 1u);
      ASSERT_EQ(view.solution.centers.size(), 8u);
      if (!one.has_value()) {
        one = view;
        continue;
      }
      const std::string context = "n=" + std::to_string(n) +
                                  " shards=" + std::to_string(shards);
      EXPECT_NEAR(view.objective, one->objective, 1e-12 * one->objective)
          << context << " objective " << view.objective << " vs 1 shard "
          << one->objective;
      EXPECT_TRUE(std::equal(view.solution.centers.raw().begin(),
                             view.solution.centers.raw().end(),
                             one->solution.centers.raw().begin()))
          << context;
    }
  }
}

/// The core differential corpus (same ~210 seeded paper-box instances as
/// tests/core/differential_test.cpp), pushed through PlacementService at
/// store shards {2, 4}. Per instance: the sharded store holds exactly
/// the input rows, the global epoch equals the mutation count, the
/// region-partitioned solve-and-merge never exceeds the exhaustive
/// optimum over input points, stays above the paper's Theorem 2 floor,
/// and is bitwise deterministic across shard counts run twice.
TEST(ShardService, DifferentialCorpusHoldsAtShards2And4) {
  struct Variant {
    geo::Metric metric;
    rnd::WeightScheme weights;
    const char* label;
  };
  // 2-D only (the service's UserRecord workload); both norms, both
  // paper weight schemes.
  const Variant variants[] = {
      {geo::l2_metric(), rnd::WeightScheme::kSame, "l2-unweighted"},
      {geo::l1_metric(), rnd::WeightScheme::kUniformInt, "l1-weighted"},
  };

  int instances = 0;
  for (std::uint64_t seed = 1; seed <= 70; ++seed) {
    const Variant& variant = variants[seed % 2];
    rnd::WorkloadSpec spec;
    spec.n = 6 + seed % 7;  // 6..12 — exhaustive stays feasible
    spec.dim = 2;
    spec.weights = variant.weights;
    rnd::Rng rng(seed);
    const rnd::Workload workload = rnd::generate_workload(spec, rng);

    std::vector<UserRecord> users;
    for (std::size_t i = 0; i < workload.size(); ++i) {
      users.push_back(user(static_cast<std::uint64_t>(i + 1),
                           workload.weights[i], workload.points[i][0],
                           workload.points[i][1]));
    }
    const core::Problem problem = core::Problem::from_workload(
        workload, 1.0, variant.metric);

    for (const std::size_t k :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
      ++instances;
      const std::string context = "seed=" + std::to_string(seed) + " " +
                                  variant.label + " n=" +
                                  std::to_string(spec.n) + " k=" +
                                  std::to_string(k);
      // The upper bound must be the *multiset* optimum: the paper's
      // reward min(sum_j u_ij, y_i) pays for duplicate centers until a
      // point saturates, and re-picking a chosen point is explicitly
      // legal (see lazy_greedy.cpp) — so the sharded merge may beat
      // ExhaustiveSolver::over_points, which enumerates distinct
      // subsets only. n <= 12, k <= 3 keeps C(n+k-1, k) tiny.
      double optimum = core::ExhaustiveSolver::over_points(problem)
                           .solve(problem, k)
                           .total_reward;
      {
        std::vector<std::size_t> pick(k, 0);
        const std::size_t n = problem.size();
        const auto sweep = [&](auto&& self, std::size_t slot,
                               std::size_t from) -> void {
          if (slot == k) {
            optimum = std::max(
                optimum, core::objective_value(problem, problem.points(),
                                               pick));
            return;
          }
          for (std::size_t i = from; i < n; ++i) {
            pick[slot] = i;
            self(self, slot + 1, i);  // non-decreasing: allows repeats
          }
        };
        sweep(sweep, 0, 0);
      }
      const double floor =
          (1.0 - std::pow(1.0 - 1.0 / static_cast<double>(spec.n),
                          static_cast<double>(k))) *
          optimum;
      const double slack = 1e-9 * std::max(1.0, optimum);

      std::optional<PlacementView> prev;
      for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
        ServiceConfig config;
        config.dim = 2;
        config.k = k;
        config.radius = 1.0;  // paper box: cell 1.0 spans several regions
        config.metric = variant.metric;
        config.full_solve_churn_fraction = 0.0;
        config.store_shards = shards;
        PlacementService service(config);
        service.apply_add(users);
        EXPECT_EQ(service.epoch(), users.size()) << context;
        EXPECT_EQ(service.population(), users.size()) << context;

        const PlacementView view = service.placement();
        // The reported objective is the value of the reported centers —
        // re-derive it from scratch on the reference problem.
        EXPECT_NEAR(core::objective_value(problem, view.solution.centers),
                    view.objective, slack)
            << context << " shards=" << shards
            << " centers=" << view.solution.centers.size();
        EXPECT_LE(view.objective, optimum + slack)
            << context << " shards=" << shards;
        EXPECT_GE(view.objective, floor - slack)
            << context << " shards=" << shards;

        // Bitwise deterministic: a second identical service agrees.
        PlacementService again(config);
        again.apply_add(users);
        const PlacementView view2 = again.placement();
        EXPECT_EQ(view.objective, view2.objective)
            << context << " shards=" << shards;

        // Store content is shard-layout independent.
        if (prev.has_value()) {
          EXPECT_EQ(sorted_rows(service.wal_snapshot()),
                    sorted_rows(again.wal_snapshot()))
              << context;
        }
        prev = view;
      }
    }
  }
  EXPECT_GE(instances, 200) << "sweep shrank — differential coverage lost";
}

}  // namespace
}  // namespace mmph::serve
