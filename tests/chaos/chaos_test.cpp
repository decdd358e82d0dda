// mmph::chaos unit + sweep coverage. The unit half pins the determinism
// contract of the Injector and the errno shapes of FaultySocketOps at
// probability 1/0 (no randomness in the assertion); the sweep half runs
// seeded schedules through run_serve_chaos / run_net_chaos and requires
// every one to hold the harness invariants. Failures print the seed, and
// `chaos_runner --mode serve --seed N` (or --mode net) reproduces one
// schedule exactly.

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <sys/socket.h>
#include <unistd.h>

#include <vector>

#include "mmph/chaos/fault_plan.hpp"
#include "mmph/chaos/faulty_socket_ops.hpp"
#include "mmph/chaos/harness.hpp"
#include "mmph/chaos/injector.hpp"
#include "mmph/core/kernels.hpp"
#include "mmph/random/pcg64.hpp"
#include "mmph/serve/placement_service.hpp"

namespace mmph::chaos {
namespace {

bool same_placement_centers(const serve::PlacementView& got,
                            const serve::PlacementView& want) {
  const geo::PointSet& a = got.solution.centers;
  const geo::PointSet& b = want.solution.centers;
  if (a.size() != b.size() || a.dim() != b.dim()) return false;
  for (std::size_t c = 0; c < a.size(); ++c) {
    for (std::size_t d = 0; d < a.dim(); ++d) {
      if (a[c][d] != b[c][d]) return false;
    }
  }
  return true;
}

TEST(FaultPlan, WithOverwritesAndProbabilityOf) {
  FaultPlan plan;
  plan.with("a", 0.5).with("b", 0.25).with("a", 0.75);
  EXPECT_DOUBLE_EQ(plan.probability_of("a"), 0.75);
  EXPECT_DOUBLE_EQ(plan.probability_of("b"), 0.25);
  EXPECT_DOUBLE_EQ(plan.probability_of("absent"), 0.0);
  EXPECT_EQ(plan.sites.size(), 2u);
}

TEST(Injector, SameSeedSameDecisions) {
  FaultPlan plan;
  plan.seed = 42;
  plan.with("x", 0.5).with("y", 0.5);
  Injector a(plan);
  Injector b(plan);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.fire("x"), b.fire("x")) << "consult " << i;
    EXPECT_EQ(a.fire("y"), b.fire("y")) << "consult " << i;
  }
}

TEST(Injector, SiteStreamsAreIndependent) {
  // The decision sequence at "x" must not depend on how often other
  // sites are consulted — that is what makes schedules reproducible
  // even when timing varies the interleaving.
  FaultPlan plan;
  plan.seed = 7;
  plan.with("x", 0.5).with("noise", 0.5);
  Injector quiet(plan);
  Injector noisy(plan);
  for (int i = 0; i < 200; ++i) {
    for (int j = 0; j < 3; ++j) (void)noisy.fire("noise");
    EXPECT_EQ(quiet.fire("x"), noisy.fire("x")) << "consult " << i;
  }
}

TEST(Injector, ProbabilityEndpointsAndDisarm) {
  FaultPlan plan;
  plan.seed = 3;
  plan.with("always", 1.0).with("never", 0.0);
  Injector injector(plan);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(injector.fire("always"));
    EXPECT_FALSE(injector.fire("never"));
    EXPECT_FALSE(injector.fire("unplanned"));
  }
  injector.set_armed(false);
  EXPECT_FALSE(injector.armed());
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(injector.fire("always"));
  injector.set_armed(true);
  EXPECT_TRUE(injector.fire("always"));

  const std::vector<SiteReport> report = injector.report();
  ASSERT_EQ(report.size(), 3u);  // sorted: always, never, unplanned
  EXPECT_EQ(report[0].site, "always");
  EXPECT_EQ(report[0].consulted, 101u);
  EXPECT_EQ(report[0].fired, 51u);
  EXPECT_EQ(report[1].fired, 0u);
}

TEST(Injector, HookAdaptsToServeFaultHook) {
  FaultPlan plan;
  plan.with(serve::kFaultQueueFull, 1.0);
  Injector injector(plan);
  const serve::FaultHook hook = injector.hook();
  EXPECT_TRUE(hook(serve::kFaultQueueFull));
  EXPECT_FALSE(hook(serve::kFaultSolverThrow));
}

class FaultySocketOpsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  int fds_[2] = {-1, -1};
};

TEST_F(FaultySocketOpsTest, InjectedErrnosAndShortIo) {
  FaultPlan plan;
  plan.seed = 5;
  plan.with("t.read_eintr", 1.0);
  Injector injector(plan);
  FaultySocketOps ops(injector, "t.");

  std::uint8_t buf[16] = {};
  errno = 0;
  EXPECT_EQ(ops.read(fds_[0], buf, sizeof(buf)), -1);
  EXPECT_EQ(errno, EINTR);

  // Only the planned site fires: writes pass straight through...
  const std::uint8_t payload[4] = {1, 2, 3, 4};
  EXPECT_EQ(ops.write(fds_[1], payload, sizeof(payload)), 4);

  // ...and with a short-read plan the next read is capped to one byte.
  FaultPlan short_plan;
  short_plan.with("t.read_short", 1.0);
  Injector short_injector(short_plan);
  FaultySocketOps short_ops(short_injector, "t.");
  EXPECT_EQ(short_ops.read(fds_[0], buf, sizeof(buf)), 1);
  EXPECT_EQ(buf[0], 1);
}

TEST_F(FaultySocketOpsTest, WriteFaults) {
  FaultPlan plan;
  plan.with("t.write_reset", 1.0);
  Injector injector(plan);
  FaultySocketOps ops(injector, "t.");
  const std::uint8_t payload[2] = {9, 9};
  errno = 0;
  EXPECT_EQ(ops.write(fds_[1], payload, sizeof(payload)), -1);
  EXPECT_EQ(errno, EPIPE);

  FaultPlan short_plan;
  short_plan.with("t.write_short", 1.0);
  Injector short_injector(short_plan);
  FaultySocketOps short_ops(short_injector, "t.");
  EXPECT_EQ(short_ops.write(fds_[1], payload, sizeof(payload)), 1);
}

// --- forced serve fault sites (probability 1, no sweep randomness) ---------

TEST(ServeFaultSites, AllocFailAnswersInternalErrorWithoutMutating) {
  FaultPlan plan;
  plan.with(serve::kFaultAllocFail, 1.0);
  Injector injector(plan);
  serve::ServiceConfig config;
  config.dim = 2;
  config.fault_hook = injector.hook();
  serve::PlacementService service(config);

  auto future = service.submit(
      serve::Request::add_users({serve::UserRecord{1, {0.5, 0.5}, 1.0}}));
  while (service.pump() > 0) {
  }
  EXPECT_EQ(future.get().status, serve::ResponseStatus::kInternalError);
  EXPECT_EQ(service.population(), 0u) << "store must stay untouched";
}

TEST(ServeFaultSites, SolverThrowFailsQueryButNotBatchmates) {
  FaultPlan plan;
  plan.with(serve::kFaultSolverThrow, 1.0);
  Injector injector(plan);
  serve::ServiceConfig config;
  config.dim = 2;
  config.fault_hook = injector.hook();
  serve::PlacementService service(config);

  auto add = service.submit(
      serve::Request::add_users({serve::UserRecord{1, {0.5, 0.5}, 1.0}}));
  auto query = service.submit(serve::Request::query_placement());
  while (service.pump() > 0) {
  }
  EXPECT_EQ(add.get().status, serve::ResponseStatus::kOk);
  EXPECT_EQ(query.get().status, serve::ResponseStatus::kInternalError);
  EXPECT_EQ(service.population(), 1u);
}

TEST(ServeFaultSites, QueueFullRejectsAtSubmit) {
  FaultPlan plan;
  plan.with(serve::kFaultQueueFull, 1.0);
  Injector injector(plan);
  serve::ServiceConfig config;
  config.dim = 2;
  config.fault_hook = injector.hook();
  serve::PlacementService service(config);

  auto future = service.submit(serve::Request::query_placement());
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "a forced-full queue must answer immediately";
  EXPECT_EQ(future.get().status, serve::ResponseStatus::kRejected);
}

TEST(ServeFaultSites, DeadlineSkewAnswersTimeoutAndDropsMutation) {
  FaultPlan plan;
  plan.with(serve::kFaultDeadlineSkew, 1.0);
  Injector injector(plan);
  serve::ServiceConfig config;
  config.dim = 2;
  config.fault_hook = injector.hook();
  serve::PlacementService service(config);

  auto future = service.submit(
      serve::Request::add_users({serve::UserRecord{1, {0.5, 0.5}, 1.0}}));
  while (service.pump() > 0) {
  }
  EXPECT_EQ(future.get().status, serve::ResponseStatus::kTimeout);
  EXPECT_EQ(service.population(), 0u) << "skewed mutation must not apply";
  EXPECT_GE(service.metrics().timeouts, 1u);
}

// --- forced spatial-index fault sites --------------------------------------
//
// The coverage grid is an accelerator, never truth: a mirror failure or a
// corruption detection drops/rebuilds the index, but every response stays
// kOk and the placement must match a fault-free service bit for bit.

TEST(SpatialFaultSites, AllocFailDuringMirrorIsOutputInvisible) {
  const core::kernels::ScopedIndexMode mode(core::kernels::IndexMode::kGrid);
  FaultPlan plan;
  plan.with(serve::kFaultSpatialAllocFail, 1.0);
  Injector injector(plan);
  serve::ServiceConfig config;
  config.dim = 2;
  config.full_solve_churn_fraction = 0.0;
  config.fault_hook = injector.hook();
  serve::PlacementService faulty(config);
  serve::ServiceConfig clean = config;
  clean.fault_hook = {};
  serve::PlacementService reference(clean);

  rnd::Pcg64 rng(11);
  std::vector<serve::UserRecord> users;
  for (std::uint64_t id = 1; id <= 48; ++id) {
    users.push_back(serve::UserRecord{
        id,
        {static_cast<double>(rng.next_below(400)) / 100.0,
         static_cast<double>(rng.next_below(400)) / 100.0},
        1.0});
  }
  faulty.apply_add(users);
  reference.apply_add(users);
  (void)faulty.placement();  // builds the index; the mirror is now live
  (void)reference.placement();

  // Churn with the mirror failing on every mutation: the index goes
  // dirty, the next solve rebuilds it, and nothing observable moves.
  for (int epoch = 0; epoch < 4; ++epoch) {
    const std::vector<serve::UserRecord> add = {serve::UserRecord{
        100u + static_cast<std::uint64_t>(epoch), {1.0 + 0.1 * epoch, 2.0},
        1.0}};
    const std::vector<std::uint64_t> remove = {
        static_cast<std::uint64_t>(2 * epoch + 1)};
    faulty.apply_add(add);
    faulty.apply_remove(remove);
    reference.apply_add(add);
    reference.apply_remove(remove);

    const serve::PlacementView got = faulty.placement();
    const serve::PlacementView want = reference.placement();
    ASSERT_EQ(faulty.population(), reference.population());
    EXPECT_EQ(got.objective, want.objective) << "epoch " << epoch;  // bitwise
    ASSERT_TRUE(same_placement_centers(got, want)) << "epoch " << epoch;
  }
  // The injected mirror failures forced rebuilds beyond the initial one.
  EXPECT_GT(faulty.metrics().spatial_rebuilds, 1u);
  EXPECT_EQ(reference.metrics().spatial_rebuilds, 1u);
}

TEST(SpatialFaultSites, CorruptDetectionRebuildsWithSamePlacement) {
  const core::kernels::ScopedIndexMode mode(core::kernels::IndexMode::kGrid);
  FaultPlan plan;
  plan.with(serve::kFaultSpatialCorrupt, 1.0);
  Injector injector(plan);
  serve::ServiceConfig config;
  config.dim = 2;
  config.full_solve_churn_fraction = 0.0;
  config.fault_hook = injector.hook();
  serve::PlacementService faulty(config);
  serve::ServiceConfig clean = config;
  clean.fault_hook = {};
  serve::PlacementService reference(clean);

  std::vector<serve::UserRecord> users;
  for (std::uint64_t id = 1; id <= 32; ++id) {
    users.push_back(serve::UserRecord{
        id, {0.13 * static_cast<double>(id), 0.29 * static_cast<double>(id)},
        1.0});
  }
  faulty.apply_add(users);
  reference.apply_add(users);

  for (int round = 0; round < 3; ++round) {
    const std::vector<serve::UserRecord> add = {serve::UserRecord{
        200u + static_cast<std::uint64_t>(round), {2.0, 0.5 * round}, 1.0}};
    faulty.apply_add(add);
    reference.apply_add(add);
    const serve::PlacementView got = faulty.placement();
    const serve::PlacementView want = reference.placement();
    EXPECT_EQ(got.objective, want.objective) << "round " << round;  // bitwise
    ASSERT_TRUE(same_placement_centers(got, want)) << "round " << round;
  }
  // Every solve after the first found its carried index "corrupt" and
  // rebuilt; the reference reused its grid throughout.
  EXPECT_GE(faulty.metrics().spatial_rebuilds, 3u);
  EXPECT_EQ(reference.metrics().spatial_rebuilds, 1u);
}

// --- seeded schedule sweeps ------------------------------------------------

TEST(ChaosSweep, ServeSchedulesHoldInvariants) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    ServeChaosOptions options;
    options.seed = seed;
    const ChaosResult result = run_serve_chaos(options);
    ASSERT_TRUE(result.ok) << result.message;
    EXPECT_EQ(result.requests, options.operations);
  }
}

TEST(ChaosSweep, NetSchedulesHoldInvariants) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    NetChaosOptions options;
    options.seed = seed;
    const ChaosResult result = run_net_chaos(options);
    ASSERT_TRUE(result.ok) << result.message;
    EXPECT_EQ(result.requests, options.operations);
  }
}

TEST(ChaosSweep, StoreShardSchedulesHoldInvariants) {
  // A pinned slice of the chaos_runner --mode shards sweep: both the
  // legacy single-shard layout and the per-shard-dir layout must keep the
  // bitwise crash-recovery invariant under fire.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      StoreShardChaosOptions options;
      options.seed = seed;
      options.shards = shards;
      const ChaosResult result = run_store_shard_chaos(options);
      ASSERT_TRUE(result.ok) << result.message << " (shards=" << shards
                             << ")";
    }
  }
}

TEST(ChaosSweep, ScheduleActuallyInjects) {
  // Guard against a silently disconnected seam: across a handful of
  // seeds, faults must actually fire.
  std::uint64_t fired = 0;
  for (std::uint64_t seed = 101; seed <= 105; ++seed) {
    ServeChaosOptions options;
    options.seed = seed;
    const ChaosResult result = run_serve_chaos(options);
    ASSERT_TRUE(result.ok) << result.message;
    fired += result.faults_fired;
  }
  EXPECT_GT(fired, 0u) << "no fault ever fired — seam disconnected?";
}

}  // namespace
}  // namespace mmph::chaos
