// Tests for parallel_for / parallel_reduce: coverage, exceptions, results
// identical to serial execution.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "mmph/parallel/parallel_for.hpp"

namespace mmph::par {
namespace {

TEST(DefaultGrain, NeverZero) {
  EXPECT_GE(default_grain(0, 4), 1u);
  EXPECT_GE(default_grain(1, 4), 1u);
  EXPECT_GE(default_grain(1000000, 0), 1u);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 100000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(pool, 0, kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(pool, 5, 5, [&](std::size_t) { ++calls; });
  parallel_for(pool, 7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SingleElementRange) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  parallel_for(pool, 41, 42, [&](std::size_t i) {
    EXPECT_EQ(i, 41u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelFor, ExplicitGrainStillCoversRange) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1003;  // deliberately not a grain multiple
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(pool, 0, kN, [&](std::size_t i) { hits[i].fetch_add(1); }, 64);
  int total = 0;
  for (auto& h : hits) total += h.load();
  EXPECT_EQ(total, static_cast<int>(kN));
}

TEST(ParallelFor, ExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(pool, 0, 1000,
                   [](std::size_t i) {
                     if (i == 513) throw std::runtime_error("bad index");
                   }),
      std::runtime_error);
}

TEST(ParallelForChunks, ChunksAreDisjointAndCover) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 5000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for_chunks(pool, 0, kN, [&](std::size_t lo, std::size_t hi) {
    EXPECT_LT(lo, hi);
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ParallelForChunks, CallerExceptionWaitsForHelperChunks) {
  // The calling thread's chunk throws while the helper is still inside its
  // own chunk. The helper reads the loop's frame until it finishes, so the
  // exception must not reach the caller before then.
  std::atomic<bool> helper_started{false};
  std::atomic<bool> caller_threw{false};
  std::atomic<bool> helper_finished{false};
  const std::thread::id caller = std::this_thread::get_id();
  const auto body = [&](std::size_t, std::size_t) {
    if (std::this_thread::get_id() == caller) {
      while (!helper_started.load()) std::this_thread::yield();
      caller_threw.store(true);
      throw std::runtime_error("caller chunk");
    }
    helper_started.store(true);
    while (!caller_threw.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    helper_finished.store(true);
  };
  ThreadPool pool(2);  // one helper; two chunks of one index
  EXPECT_THROW(parallel_for_chunks(pool, 0, 2, body, 1), std::runtime_error);
  EXPECT_TRUE(helper_finished.load());
}

TEST(ParallelReduce, SumMatchesSerial) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 200000;
  const std::uint64_t got = parallel_reduce(
      pool, 0, kN, std::uint64_t{0},
      [](std::size_t i) { return static_cast<std::uint64_t>(i); },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(got, static_cast<std::uint64_t>(kN) * (kN - 1) / 2);
}

TEST(ParallelReduce, EmptyRangeGivesIdentity) {
  ThreadPool pool(2);
  const int got = parallel_reduce(
      pool, 3, 3, -7, [](std::size_t) { return 1; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(got, -7);
}

TEST(ParallelReduce, MaxReduction) {
  ThreadPool pool(4);
  std::vector<double> data(10000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<double>((i * 2654435761u) % 10007);
  }
  const double got = parallel_reduce(
      pool, 0, data.size(), -1.0, [&](std::size_t i) { return data[i]; },
      [](double a, double b) { return a > b ? a : b; });
  EXPECT_DOUBLE_EQ(got, *std::max_element(data.begin(), data.end()));
}

TEST(ParallelFor, WorksOnSingleThreadPool) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  parallel_for(pool, 0, 1000, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1000);
}

TEST(ParallelFor, NestedParallelismDoesNotDeadlock) {
  // Outer loop on the global pool, inner loops on a private pool.
  ThreadPool inner(2);
  std::atomic<int> count{0};
  parallel_for(ThreadPool::global(), 0, 8, [&](std::size_t) {
    parallel_for(inner, 0, 100, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 800);
}

}  // namespace
}  // namespace mmph::par
