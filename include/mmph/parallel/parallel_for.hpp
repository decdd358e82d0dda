#pragma once

/// \file parallel_for.hpp
/// \brief Data-parallel loop and reduction primitives on top of ThreadPool.
///
/// Scheduling is dynamic: workers claim fixed-size index chunks from a
/// shared atomic counter, so uneven per-iteration cost (e.g. branch-and-
/// bound subtrees in the exhaustive solver) load-balances automatically.
/// Exceptions thrown by the body are rethrown at the call site, after every
/// chunk already claimed has finished.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "mmph/parallel/thread_pool.hpp"
#include "mmph/support/assert.hpp"

namespace mmph::par {

/// Picks a chunk size targeting ~8 chunks per worker when the caller does
/// not specify a grain.
[[nodiscard]] inline std::size_t default_grain(std::size_t range,
                                               std::size_t workers) {
  const std::size_t target_chunks = workers * 8;
  std::size_t grain = range / (target_chunks == 0 ? 1 : target_chunks);
  return grain == 0 ? 1 : grain;
}

/// Runs body(lo, hi) over disjoint chunks covering [begin, end).
/// Chunks are claimed dynamically; the calling thread also participates,
/// so the primitive works even on a pool of one worker under contention.
template <typename ChunkBody>
void parallel_for_chunks(ThreadPool& pool, std::size_t begin, std::size_t end,
                         ChunkBody&& body, std::size_t grain = 0) {
  if (begin >= end) return;
  const std::size_t range = end - begin;
  const std::size_t workers = pool.thread_count();
  if (grain == 0) grain = default_grain(range, workers);
  if (range <= grain || workers <= 1) {
    body(begin, end);
    return;
  }

  // Shared cursor lives on the heap: worker tasks may still observe it
  // between their final claim-check and returning.
  auto next = std::make_shared<std::atomic<std::size_t>>(begin);
  auto run_chunks = [next, end, grain, &body] {
    for (;;) {
      const std::size_t lo = next->fetch_add(grain, std::memory_order_relaxed);
      if (lo >= end) return;
      const std::size_t hi = lo + grain < end ? lo + grain : end;
      body(lo, hi);
    }
  };

  const std::size_t helpers =
      std::min(workers, (range + grain - 1) / grain) - 1;
  TaskGroup group;
  for (std::size_t i = 0; i < helpers; ++i) {
    pool.submit(group.wrap(run_chunks));
  }
  // The caller works too. Its exception waits for the helpers, which read
  // body and group on this frame until they finish; workers' exceptions
  // come through the group.
  try {
    run_chunks();
  } catch (...) {
    try {
      group.wait();
    } catch (...) {
    }
    throw;
  }
  group.wait();
}

/// Runs body(i) for every i in [begin, end).
template <typename IndexBody>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  IndexBody&& body, std::size_t grain = 0) {
  parallel_for_chunks(
      pool, begin, end,
      [&body](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      },
      grain);
}

/// Parallel reduction: acc = combine(acc, body(i)) over [begin, end),
/// starting from \p identity. `combine` must be associative and commutative;
/// `body` may be called from any worker.
template <typename T, typename IndexBody, typename Combine>
[[nodiscard]] T parallel_reduce(ThreadPool& pool, std::size_t begin,
                                std::size_t end, T identity, IndexBody&& body,
                                Combine&& combine, std::size_t grain = 0) {
  if (begin >= end) return identity;
  std::mutex merge_mutex;
  T result = identity;
  parallel_for_chunks(
      pool, begin, end,
      [&](std::size_t lo, std::size_t hi) {
        T local = identity;
        for (std::size_t i = lo; i < hi; ++i) {
          local = combine(std::move(local), body(i));
        }
        std::lock_guard<std::mutex> lock(merge_mutex);
        result = combine(std::move(result), std::move(local));
      },
      grain);
  return result;
}

}  // namespace mmph::par
