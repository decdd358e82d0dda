#pragma once

/// \file request_batcher.hpp
/// \brief Bounded MPMC queue that hands the service request batches.
///
/// Producers (client threads, event loops) push requests; consumers drain
/// up to max_batch at a time through PlacementService::pump(), which
/// serializes whole pop-and-process passes, so the queue never blocks a
/// consumer: an empty queue pops an empty batch. The queue is bounded: a
/// full queue rejects at submit time (the request's promise is fulfilled
/// with kRejected immediately), which gives backpressure instead of
/// unbounded memory growth. Deadlines are enforced at dequeue: expired
/// requests are answered kTimeout and excluded from the batch. close()
/// answers everything still queued, and every later push, kShutdown.

#include <cstddef>
#include <deque>
#include <mutex>
#include <span>
#include <vector>

#include "mmph/serve/fault.hpp"
#include "mmph/serve/request.hpp"

namespace mmph::serve {

class ServeMetrics;

class RequestBatcher {
 public:
  /// \p capacity bounds the queued requests (>= 1). \p metrics may be
  /// null; when set, queue events are counted there. \p fault_hook (may
  /// be empty) is consulted at kFaultQueueFull / kFaultDeadlineSkew.
  explicit RequestBatcher(std::size_t capacity, ServeMetrics* metrics = nullptr,
                          FaultHook fault_hook = {});

  ~RequestBatcher();

  RequestBatcher(const RequestBatcher&) = delete;
  RequestBatcher& operator=(const RequestBatcher&) = delete;

  /// Enqueues; returns false (after answering the promise kRejected) when
  /// the queue is full or closed. A one-request push_batch().
  bool push(Request&& request);

  /// Enqueues a whole batch under one lock — the event loops' submit path
  /// (N pushes would pay N lock round-trips on the hottest edge of the
  /// funnel). Each request, in order, is individually admitted or answered
  /// kRejected/kShutdown.
  void push_batch(std::vector<Request>&& requests);

  /// Dequeues up to \p max_batch non-expired requests without waiting.
  /// Expired requests are answered kTimeout and skipped. Returns an empty
  /// batch when the queue is empty.
  [[nodiscard]] std::vector<Request> pop_batch(std::size_t max_batch);

  [[nodiscard]] std::size_t depth() const;

  /// Rejects future pushes and answers every queued request kShutdown.
  void close();

  [[nodiscard]] bool closed() const;

 private:
  /// The one admission path (push and push_batch): admits each request
  /// in order or answers it kRejected / kShutdown outside the lock.
  /// Returns how many were admitted.
  std::size_t admit(std::span<Request> requests);

  const std::size_t capacity_;
  ServeMetrics* metrics_;
  FaultHook fault_hook_;
  mutable std::mutex mutex_;
  std::deque<Request> queue_;
  bool closed_ = false;
};

}  // namespace mmph::serve
