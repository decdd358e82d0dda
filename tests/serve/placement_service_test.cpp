// PlacementService: static-population parity with the direct lazy greedy,
// churn-driven incremental re-solves (never worse than their warm start,
// epoch-monotone), and the batched request path end to end.

#include "mmph/serve/placement_service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <vector>

#include "mmph/core/lazy_greedy.hpp"
#include "mmph/core/problem.hpp"
#include "mmph/random/rng.hpp"
#include "mmph/random/workload.hpp"

namespace mmph::serve {
namespace {

using std::chrono::milliseconds;

/// Workload + aligned UserRecords with ids 0..n-1.
struct Population {
  std::vector<UserRecord> users;
  core::Problem problem;
};

Population make_population(std::size_t n, std::uint64_t seed,
                           double radius = 1.0) {
  rnd::WorkloadSpec spec;
  spec.n = n;
  rnd::Rng rng(seed);
  rnd::Workload workload = rnd::generate_workload(spec, rng);
  std::vector<UserRecord> users;
  users.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    UserRecord rec;
    rec.id = i;
    rec.weight = workload.weights[i];
    rec.interest.assign(workload.points[i].begin(), workload.points[i].end());
    users.push_back(std::move(rec));
  }
  core::Problem problem(workload.points, workload.weights, radius,
                        geo::l2_metric());
  return Population{std::move(users), std::move(problem)};
}

UserRecord fresh_user(std::uint64_t id, rnd::Rng& rng) {
  UserRecord rec;
  rec.id = id;
  rec.weight = 1.0 + static_cast<double>(rng.uniform_int(0, 4));
  rec.interest = {rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)};
  return rec;
}

TEST(PlacementService, StaticParityWithLazyGreedyExactSingleShard) {
  Population pop = make_population(150, 2011);
  ServiceConfig config;
  config.k = 4;
  config.shard.max_shards = 1;
  PlacementService service(config);
  service.apply_add(pop.users);

  const PlacementView view = service.placement();
  const core::Solution direct =
      core::LazyGreedySolver().solve(pop.problem, config.k);
  EXPECT_EQ(view.population, pop.users.size());
  EXPECT_NEAR(view.objective, direct.total_reward, 1e-9);
  EXPECT_EQ(service.metrics().full_solves, 1u);
  EXPECT_EQ(service.metrics().incremental_solves, 0u);
}

TEST(PlacementService, StaticParityWithLazyGreedyMultiShard) {
  Population pop = make_population(600, 4);
  ServiceConfig config;
  config.k = 5;
  config.shard.max_shards = 6;
  config.shard.min_shard_size = 32;
  PlacementService service(config);
  service.apply_add(pop.users);

  const PlacementView view = service.placement();
  const core::Solution direct =
      core::LazyGreedySolver().solve(pop.problem, config.k);
  EXPECT_GE(view.objective, 0.95 * direct.total_reward);
  EXPECT_LE(view.objective, pop.problem.total_weight() + 1e-9);
}

TEST(PlacementService, PlacementIsCachedUntilChurn) {
  Population pop = make_population(100, 8);
  PlacementService service(ServiceConfig{});
  service.apply_add(pop.users);
  (void)service.placement();
  (void)service.placement();
  (void)service.placement();
  EXPECT_EQ(service.metrics().full_solves + service.metrics().incremental_solves,
            1u);
}

TEST(PlacementService, SmallChurnRefinesIncrementallyAndNeverRegresses) {
  Population pop = make_population(400, 77);
  ServiceConfig config;
  config.k = 4;
  config.full_solve_churn_fraction = 0.05;
  PlacementService service(config);
  service.apply_add(pop.users);
  PlacementView previous = service.placement();
  EXPECT_EQ(service.metrics().full_solves, 1u);

  rnd::Rng rng(99);
  std::uint64_t next_id = pop.users.size();
  std::uint64_t last_epoch = previous.epoch;
  for (int slot = 0; slot < 5; ++slot) {
    // 1% churn: well under the 5% full-solve threshold.
    service.apply_remove({static_cast<std::uint64_t>(slot * 3)});
    service.apply_add({fresh_user(next_id++, rng), fresh_user(next_id++, rng),
                       fresh_user(next_id++, rng)});

    // The warm start's value on the *new* population: the previous centers
    // re-evaluated. Incremental refinement must never end below it.
    const double warm_start_value = service.evaluate(previous.solution.centers);
    const PlacementView view = service.placement();
    EXPECT_GE(view.objective, warm_start_value - 1e-9)
        << "incremental re-solve regressed below its warm start";
    EXPECT_GT(view.epoch, last_epoch) << "snapshot epochs must be monotone";
    last_epoch = view.epoch;
    previous = view;
  }
  EXPECT_EQ(service.metrics().full_solves, 1u);
  EXPECT_EQ(service.metrics().incremental_solves, 5u);
  EXPECT_GT(service.metrics().incremental_ratio(), 0.8);
}

TEST(PlacementService, LargeChurnForcesFullSolve) {
  Population pop = make_population(200, 13);
  ServiceConfig config;
  config.full_solve_churn_fraction = 0.05;
  PlacementService service(config);
  service.apply_add(pop.users);
  (void)service.placement();
  EXPECT_EQ(service.metrics().full_solves, 1u);

  // Replace a third of the population: far over the threshold.
  rnd::Rng rng(5);
  std::vector<std::uint64_t> to_remove;
  std::vector<UserRecord> to_add;
  for (std::uint64_t i = 0; i < 66; ++i) {
    to_remove.push_back(i);
    to_add.push_back(fresh_user(1000 + i, rng));
  }
  service.apply_remove(to_remove);
  service.apply_add(to_add);
  (void)service.placement();
  EXPECT_EQ(service.metrics().full_solves, 2u);
  EXPECT_EQ(service.metrics().incremental_solves, 0u);
}

TEST(PlacementService, EmptyAndRepopulatedStore) {
  PlacementService service(ServiceConfig{});
  const PlacementView empty = service.placement();
  EXPECT_EQ(empty.population, 0u);
  EXPECT_DOUBLE_EQ(empty.objective, 0.0);
  EXPECT_TRUE(empty.solution.centers.empty());
  EXPECT_DOUBLE_EQ(service.evaluate(geo::PointSet(2)), 0.0);

  Population pop = make_population(50, 3);
  service.apply_add(pop.users);
  const PlacementView refilled = service.placement();
  EXPECT_EQ(refilled.population, 50u);
  EXPECT_GT(refilled.objective, 0.0);
}

TEST(PlacementService, BatchedRequestsRoundTrip) {
  Population pop = make_population(80, 21);
  ServiceConfig config;
  config.k = 3;
  PlacementService service(config);

  std::future<Response> add_reply =
      service.submit(Request::add_users(pop.users));
  std::future<Response> query_reply =
      service.submit(Request::query_placement());
  EXPECT_EQ(service.queue_depth(), 2u);

  // One pump handles both: the mutation applies before the query answers.
  EXPECT_EQ(service.pump(), 2u);
  const Response add_response = add_reply.get();
  EXPECT_EQ(add_response.status, ResponseStatus::kOk);
  EXPECT_GT(add_response.epoch, 0u);

  const Response query_response = query_reply.get();
  EXPECT_EQ(query_response.status, ResponseStatus::kOk);
  ASSERT_TRUE(query_response.solution.has_value());
  EXPECT_EQ(query_response.solution->centers.size(), config.k);
  EXPECT_GT(query_response.objective, 0.0);

  // Evaluate the returned centers through the batch path: must match the
  // query's objective on the unchanged population.
  std::future<Response> eval_reply =
      service.submit(Request::evaluate(query_response.solution->centers));
  EXPECT_EQ(service.pump(), 1u);
  EXPECT_NEAR(eval_reply.get().objective, query_response.objective, 1e-9);

  const MetricsSnapshot snap = service.metrics();
  EXPECT_EQ(snap.batches, 2u);
  EXPECT_EQ(snap.mutations, pop.users.size());
  EXPECT_EQ(snap.queries, 2u);
}

TEST(PlacementService, ExpiredDeadlineIsNotApplied) {
  Population pop = make_population(30, 6);
  PlacementService service(ServiceConfig{});
  service.apply_add(pop.users);

  Request late = Request::add_users({UserRecord{9999, {1.0, 1.0}, 1.0}});
  late.deadline = std::chrono::steady_clock::now() - milliseconds(5);
  std::future<Response> late_reply = service.submit(std::move(late));
  (void)service.pump();
  const ResponseStatus status = late_reply.get().status;
  EXPECT_EQ(status, ResponseStatus::kTimeout) << "got " << to_string(status);
  EXPECT_EQ(service.population(), 30u) << "expired mutation must not apply";
  EXPECT_EQ(service.metrics().timeouts, 1u);
}

TEST(PlacementService, WorkerThreadDrainsQueue) {
  Population pop = make_population(60, 9);
  PlacementService service(ServiceConfig{});
  std::future<Response> add_reply =
      service.submit(Request::add_users(pop.users));
  std::future<Response> query_reply =
      service.submit(Request::query_placement());
  EXPECT_EQ(service.pump(), 2u);
  EXPECT_EQ(service.pump(), 0u);  // drained: an empty queue never waits
  EXPECT_EQ(add_reply.get().status, ResponseStatus::kOk);
  const Response query_response = query_reply.get();
  EXPECT_EQ(query_response.status, ResponseStatus::kOk);
  EXPECT_GT(query_response.objective, 0.0);
  service.stop();

  // stop() is terminal: new submissions are answered immediately, and as
  // a shutdown — not as queue-full backpressure.
  std::future<Response> after = service.submit(Request::query_placement());
  EXPECT_EQ(after.get().status, ResponseStatus::kShutdown);
}

TEST(PlacementService, EvaluateBadCentersAnswersBadRequest) {
  Population pop = make_population(40, 17);
  PlacementService service(ServiceConfig{});
  service.apply_add(pop.users);

  // Dimension mismatch (service dim is 2).
  geo::PointSet wrong_dim(3);
  const std::vector<double> p3 = {0.5, 0.5, 0.5};
  wrong_dim.push_back(geo::ConstVec(p3.data(), p3.size()));
  std::future<Response> mismatch_reply =
      service.submit(Request::evaluate(std::move(wrong_dim)));

  // Empty center set, correct dimension.
  std::future<Response> empty_reply =
      service.submit(Request::evaluate(geo::PointSet(2)));

  // A valid evaluate in the same batch must be unaffected.
  geo::PointSet good(2);
  const std::vector<double> p2 = {1.0, 1.0};
  good.push_back(geo::ConstVec(p2.data(), p2.size()));
  std::future<Response> good_reply =
      service.submit(Request::evaluate(std::move(good)));

  EXPECT_EQ(service.pump(), 3u);
  const Response mismatch = mismatch_reply.get();
  EXPECT_EQ(mismatch.status, ResponseStatus::kBadRequest)
      << "got " << to_string(mismatch.status);
  const Response empty = empty_reply.get();
  EXPECT_EQ(empty.status, ResponseStatus::kBadRequest)
      << "got " << to_string(empty.status);
  const Response valid = good_reply.get();
  EXPECT_EQ(valid.status, ResponseStatus::kOk);
  EXPECT_GT(valid.objective, 0.0);
  EXPECT_EQ(service.metrics().bad_requests, 2u);
}

TEST(PlacementService, MidBatchThrowStillFulfillsEveryPromise) {
  Population pop = make_population(40, 23);
  PlacementService service(ServiceConfig{});
  service.apply_add(pop.users);

  // A wrong-dimension user makes InstanceStore::upsert throw inside
  // process_batch's mutation phase. Before the reply-loop hardening this
  // escaped the worker, broke every later promise in the batch, and left
  // blocking clients hung on std::future_error.
  Request poison = Request::add_users({UserRecord{777, {1.0, 2.0, 3.0}, 1.0}});
  std::future<Response> poison_reply = service.submit(std::move(poison));
  std::future<Response> query_reply =
      service.submit(Request::query_placement());

  EXPECT_EQ(service.pump(), 2u);
  const Response poisoned = poison_reply.get();
  EXPECT_EQ(poisoned.status, ResponseStatus::kBadRequest)
      << "got " << to_string(poisoned.status);
  const Response query = query_reply.get();
  EXPECT_EQ(query.status, ResponseStatus::kOk)
      << "a bad request must not poison the rest of its batch";
  EXPECT_GT(query.objective, 0.0);
  EXPECT_EQ(service.population(), 40u)
      << "failed mutation must not partially apply a later epoch";
  EXPECT_GE(service.metrics().bad_requests, 1u);
}

}  // namespace
}  // namespace mmph::serve
