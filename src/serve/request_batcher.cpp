#include "mmph/serve/request_batcher.hpp"

#include <chrono>
#include <utility>

#include "mmph/serve/metrics.hpp"
#include "mmph/support/assert.hpp"

namespace mmph::serve {

const char* to_string(RequestType type) noexcept {
  switch (type) {
    case RequestType::kAddUsers: return "kAddUsers";
    case RequestType::kRemoveUsers: return "kRemoveUsers";
    case RequestType::kQueryPlacement: return "kQueryPlacement";
    case RequestType::kEvaluate: return "kEvaluate";
  }
  return "RequestType(?)";
}

const char* to_string(ResponseStatus status) noexcept {
  switch (status) {
    case ResponseStatus::kOk: return "kOk";
    case ResponseStatus::kTimeout: return "kTimeout";
    case ResponseStatus::kRejected: return "kRejected";
    case ResponseStatus::kShutdown: return "kShutdown";
    case ResponseStatus::kBadRequest: return "kBadRequest";
    case ResponseStatus::kInternalError: return "kInternalError";
  }
  return "ResponseStatus(?)";
}

Request Request::add_users(std::vector<UserRecord> users) {
  Request r;
  r.type = RequestType::kAddUsers;
  r.users = std::move(users);
  return r;
}

Request Request::remove_users(std::vector<std::uint64_t> ids) {
  Request r;
  r.type = RequestType::kRemoveUsers;
  r.ids = std::move(ids);
  return r;
}

Request Request::query_placement() {
  Request r;
  r.type = RequestType::kQueryPlacement;
  return r;
}

Request Request::evaluate(geo::PointSet centers) {
  Request r;
  r.type = RequestType::kEvaluate;
  r.centers = std::move(centers);
  return r;
}

RequestBatcher::RequestBatcher(std::size_t capacity, ServeMetrics* metrics,
                               FaultHook fault_hook)
    : capacity_(capacity),
      metrics_(metrics),
      fault_hook_(std::move(fault_hook)) {
  MMPH_REQUIRE(capacity_ >= 1, "RequestBatcher: capacity must be >= 1");
}

RequestBatcher::~RequestBatcher() { close(); }

bool RequestBatcher::push(Request&& request) {
  return admit(std::span<Request>(&request, 1)) == 1;
}

void RequestBatcher::push_batch(std::vector<Request>&& requests) {
  (void)admit(requests);
}

std::size_t RequestBatcher::admit(std::span<Request> requests) {
  std::vector<Request*> full;  // answered outside the lock
  std::size_t admitted = 0;
  bool was_closed = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    was_closed = closed_;
    if (!was_closed) {
      // A push racing close() is a shutdown, not backpressure: it never
      // entered the queue, so it is not "submitted" and must not read as
      // queue-full to callers tuning capacity.
      for (Request& request : requests) {
        if (metrics_ != nullptr) metrics_->count_submitted();
        const bool forced_full = fault_hook_ && fault_hook_(kFaultQueueFull);
        if (!forced_full && queue_.size() < capacity_) {
          queue_.push_back(std::move(request));
          ++admitted;
        } else {
          full.push_back(&request);
        }
      }
      if (metrics_ != nullptr) metrics_->set_queue_depth(queue_.size());
    }
  }
  const auto answer = [](Request& request, ResponseStatus status) {
    Response response;
    response.status = status;
    request.reply.set_value(std::move(response));
  };
  if (was_closed) {
    for (Request& request : requests) {
      if (metrics_ != nullptr) metrics_->count_shutdown();
      answer(request, ResponseStatus::kShutdown);
    }
  }
  for (Request* request : full) {
    if (metrics_ != nullptr) metrics_->count_rejected();
    answer(*request, ResponseStatus::kRejected);
  }
  return admitted;
}

std::vector<Request> RequestBatcher::pop_batch(std::size_t max_batch) {
  std::vector<Request> batch;
  if (max_batch == 0) return batch;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto now = std::chrono::steady_clock::now();
  while (!queue_.empty() && batch.size() < max_batch) {
    Request request = std::move(queue_.front());
    queue_.pop_front();
    const bool skewed = fault_hook_ && fault_hook_(kFaultDeadlineSkew);
    if (skewed || request.deadline < now) {
      if (metrics_ != nullptr) metrics_->count_timeout();
      Response response;
      response.status = ResponseStatus::kTimeout;
      request.reply.set_value(std::move(response));
      continue;
    }
    batch.push_back(std::move(request));
  }
  if (metrics_ != nullptr) metrics_->set_queue_depth(queue_.size());
  return batch;
}

std::size_t RequestBatcher::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void RequestBatcher::close() {
  std::deque<Request> drained;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ && queue_.empty()) return;
    closed_ = true;
    drained.swap(queue_);
  }
  for (Request& request : drained) {
    if (metrics_ != nullptr) metrics_->count_shutdown();
    Response response;
    response.status = ResponseStatus::kShutdown;
    request.reply.set_value(std::move(response));
  }
  if (metrics_ != nullptr) metrics_->set_queue_depth(0);
}

bool RequestBatcher::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

}  // namespace mmph::serve
