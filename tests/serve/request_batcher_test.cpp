// RequestBatcher: bounded-queue backpressure, FIFO batching, deadline
// expiry at dequeue, and shutdown draining.

#include "mmph/serve/request_batcher.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>

#include "mmph/serve/metrics.hpp"

namespace mmph::serve {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

TEST(RequestBatcher, BatchesInFifoOrder) {
  RequestBatcher batcher(8);
  for (std::uint64_t id = 0; id < 3; ++id) {
    EXPECT_TRUE(batcher.push(Request::remove_users({id})));
  }
  EXPECT_EQ(batcher.depth(), 3u);
  const std::vector<Request> batch = batcher.pop_batch(8);
  ASSERT_EQ(batch.size(), 3u);
  for (std::uint64_t id = 0; id < 3; ++id) {
    EXPECT_EQ(batch[id].ids, std::vector<std::uint64_t>{id});
  }
  EXPECT_EQ(batcher.depth(), 0u);
}

TEST(RequestBatcher, MaxBatchLimitsDrain) {
  RequestBatcher batcher(8);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(batcher.push(Request::query_placement()));
  }
  EXPECT_EQ(batcher.pop_batch(2).size(), 2u);
  EXPECT_EQ(batcher.depth(), 3u);
  EXPECT_EQ(batcher.pop_batch(8).size(), 3u);
}

TEST(RequestBatcher, FullQueueRejectsWithReadyFuture) {
  ServeMetrics metrics;
  RequestBatcher batcher(2, &metrics);
  EXPECT_TRUE(batcher.push(Request::query_placement()));
  EXPECT_TRUE(batcher.push(Request::query_placement()));

  Request overflow = Request::query_placement();
  std::future<Response> future = overflow.reply.get_future();
  EXPECT_FALSE(batcher.push(std::move(overflow)));
  ASSERT_EQ(future.wait_for(milliseconds(0)), std::future_status::ready);
  EXPECT_EQ(future.get().status, ResponseStatus::kRejected);

  const MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.submitted, 3u);
  EXPECT_EQ(snap.rejected_full, 1u);
  EXPECT_EQ(snap.queue_depth, 2u);
}

TEST(RequestBatcher, ExpiredRequestsAreAnsweredNotBatched) {
  ServeMetrics metrics;
  RequestBatcher batcher(8, &metrics);

  Request expired = Request::query_placement();
  expired.deadline = steady_clock::now() - milliseconds(10);
  std::future<Response> expired_future = expired.reply.get_future();
  EXPECT_TRUE(batcher.push(std::move(expired)));
  EXPECT_TRUE(batcher.push(Request::query_placement()));

  const std::vector<Request> batch = batcher.pop_batch(8);
  ASSERT_EQ(batch.size(), 1u);  // only the live request survives
  ASSERT_EQ(expired_future.wait_for(milliseconds(0)),
            std::future_status::ready);
  const ResponseStatus status = expired_future.get().status;
  EXPECT_EQ(status, ResponseStatus::kTimeout) << "got " << to_string(status);
  EXPECT_EQ(metrics.snapshot().timeouts, 1u);
}

// Pins the contract the net layer relies on: a *mutation* whose deadline
// passes while it sits in the queue must be answered kTimeout and must
// NOT appear in any drained batch (it would otherwise be silently applied
// to the store after its deadline).
TEST(RequestBatcher, DeadlinePassingWhileQueuedTimesOutMutation) {
  ServeMetrics metrics;
  RequestBatcher batcher(8, &metrics);

  Request add = Request::add_users({UserRecord{7, {0.5, 0.5}, 1.0}});
  add.deadline = steady_clock::now() + milliseconds(10);
  std::future<Response> add_future = add.reply.get_future();
  EXPECT_TRUE(batcher.push(std::move(add)));  // live at submit time

  std::this_thread::sleep_for(milliseconds(30));  // deadline passes queued
  const std::vector<Request> batch = batcher.pop_batch(8);
  EXPECT_TRUE(batch.empty()) << "expired mutation must not be drained";
  ASSERT_EQ(add_future.wait_for(milliseconds(0)), std::future_status::ready);
  const Response response = add_future.get();
  EXPECT_EQ(response.status, ResponseStatus::kTimeout)
      << "got " << to_string(response.status);
  EXPECT_EQ(metrics.snapshot().timeouts, 1u);
  EXPECT_EQ(batcher.depth(), 0u);
}

TEST(RequestBatcher, CloseAnswersQueuedAndShutsDownNewPushes) {
  ServeMetrics metrics;
  RequestBatcher batcher(8, &metrics);
  Request queued = Request::query_placement();
  std::future<Response> queued_future = queued.reply.get_future();
  EXPECT_TRUE(batcher.push(std::move(queued)));

  batcher.close();
  EXPECT_TRUE(batcher.closed());
  ASSERT_EQ(queued_future.wait_for(milliseconds(0)),
            std::future_status::ready);
  EXPECT_EQ(queued_future.get().status, ResponseStatus::kShutdown);

  // A push racing close() is a shutdown, not backpressure: it must not
  // read as kRejected (queue-full) nor count as submitted.
  Request late = Request::query_placement();
  std::future<Response> late_future = late.reply.get_future();
  EXPECT_FALSE(batcher.push(std::move(late)));
  EXPECT_EQ(late_future.get().status, ResponseStatus::kShutdown);
  EXPECT_TRUE(batcher.pop_batch(8).empty());

  const MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.submitted, 1u) << "late push must not count as submitted";
  EXPECT_EQ(snap.rejected_full, 0u);
  EXPECT_EQ(snap.shutdown, 2u) << "one drained + one late push";
}

TEST(RequestBatcher, PushCloseRaceAlwaysFulfillsEveryPromise) {
  // Hammer push against close from another thread: every push must get
  // exactly one answer (kOk-queued-then-drained-kShutdown, or immediate
  // kShutdown), never a broken promise and never kRejected while the
  // queue has room.
  for (int round = 0; round < 20; ++round) {
    RequestBatcher batcher(1024);
    std::vector<std::future<Response>> futures;
    futures.reserve(64);
    std::thread closer([&batcher] { batcher.close(); });
    for (int i = 0; i < 64; ++i) {
      Request request = Request::query_placement();
      futures.push_back(request.reply.get_future());
      batcher.push(std::move(request));
    }
    closer.join();
    batcher.close();  // answer anything that slipped in after the race
    for (auto& future : futures) {
      ASSERT_EQ(future.wait_for(milliseconds(1000)),
                std::future_status::ready)
          << "push/close race left a promise unfulfilled";
      const ResponseStatus status = future.get().status;
      EXPECT_TRUE(status == ResponseStatus::kOk ||
                  status == ResponseStatus::kShutdown)
          << "got " << to_string(status);
    }
  }
}

}  // namespace
}  // namespace mmph::serve
