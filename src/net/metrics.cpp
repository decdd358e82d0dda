#include "mmph/net/metrics.hpp"

#include <algorithm>
#include <string>

namespace mmph::net {

NetMetrics::NetMetrics(std::size_t loops)
    : loops_(std::max<std::size_t>(loops, 1)) {}

void NetMetrics::sum_loops(Loop& totals) const {
  for (const Loop& loop : loops_) {
    totals.accepted.add(loop.accepted.value());
    totals.frames_in.add(loop.frames_in.value());
    totals.frames_out.add(loop.frames_out.value());
    totals.requests.add(loop.requests.value());
    totals.bytes_in.add(loop.bytes_in.value());
    totals.bytes_out.add(loop.bytes_out.value());
    totals.ownership_checks.add(loop.ownership_checks.value());
  }
}

void NetMetrics::describe(obs::Registry& registry) const {
  Loop totals;
  sum_loops(totals);
  registry.add("mmph_net_accepted_total", "connections accepted",
               totals.accepted);
  registry.add("mmph_net_rejected_overloaded_total",
               "connections shed by max-connections", rejected_overloaded_);
  registry.add("mmph_net_closed_idle_total", "connections reaped idle",
               closed_idle_);
  registry.add("mmph_net_closed_error_total", "connections closed after error",
               closed_error_);
  registry.add("mmph_net_bytes_in_total", "bytes read from peers",
               totals.bytes_in);
  registry.add("mmph_net_bytes_out_total", "bytes written to peers",
               totals.bytes_out);
  registry.add("mmph_net_frames_in_total", "request frames decoded",
               totals.frames_in);
  registry.add("mmph_net_frames_out_total", "response frames encoded",
               totals.frames_out);
  registry.add("mmph_net_frame_errors_total", "typed decode failures",
               frame_errors_);
  registry.add("mmph_net_requests_total", "requests submitted to the service",
               totals.requests);
  registry.add("mmph_net_timeouts_total", "requests answered kTimeout",
               timeouts_);
  registry.add("mmph_net_ownership_checks_total",
               "loop-affinity assertions passed", totals.ownership_checks);
  registry.add("mmph_net_open_connections", "currently open connections",
               open_connections_);
  registry.add("mmph_net_request_latency_seconds",
               "request latency, decode to encode", latency_seconds_);
  for (std::size_t i = 0; i < loops_.size(); ++i) {
    const Loop& loop = loops_[i];
    const obs::Labels labels = {{"loop", std::to_string(i)}};
    registry.add("mmph_net_loop_accepted_total",
                 "connections accepted, by owning loop", loop.accepted, labels);
    registry.add("mmph_net_loop_frames_in_total",
                 "request frames decoded, by loop", loop.frames_in, labels);
    registry.add("mmph_net_loop_frames_out_total",
                 "response frames encoded, by loop", loop.frames_out, labels);
    registry.add("mmph_net_loop_requests_total", "requests submitted, by loop",
                 loop.requests, labels);
    registry.add("mmph_net_loop_bytes_in_total", "bytes read, by loop",
                 loop.bytes_in, labels);
    registry.add("mmph_net_loop_bytes_out_total", "bytes written, by loop",
                 loop.bytes_out, labels);
    registry.add("mmph_net_loop_ownership_checks_total",
                 "loop-affinity assertions passed, by loop",
                 loop.ownership_checks, labels);
    registry.add("mmph_net_loop_open_connections",
                 "open connections owned, by loop", loop.open_connections,
                 labels);
  }
}

NetMetricsSnapshot NetMetrics::snapshot() const {
  Loop totals;
  sum_loops(totals);
  NetMetricsSnapshot snap;
  snap.accepted = totals.accepted.value();
  snap.rejected_overloaded = rejected_overloaded_.value();
  snap.closed_idle = closed_idle_.value();
  snap.closed_error = closed_error_.value();
  snap.bytes_in = totals.bytes_in.value();
  snap.bytes_out = totals.bytes_out.value();
  snap.frames_in = totals.frames_in.value();
  snap.frames_out = totals.frames_out.value();
  snap.frame_errors = frame_errors_.value();
  snap.requests = totals.requests.value();
  snap.timeouts = timeouts_.value();
  snap.ownership_checks = totals.ownership_checks.value();
  snap.open_connections = static_cast<std::size_t>(open_connections_.value());
  const obs::HistogramSnapshot hist = latency_seconds_.snapshot();
  snap.latency_p50_seconds = hist.quantile(0.50);
  snap.latency_p99_seconds = hist.quantile(0.99);
  return snap;
}

NetLoopSnapshot NetMetrics::loop_snapshot(std::size_t index) const {
  const Loop& loop = loops_.at(index);
  NetLoopSnapshot snap;
  snap.accepted = loop.accepted.value();
  snap.frames_in = loop.frames_in.value();
  snap.frames_out = loop.frames_out.value();
  snap.requests = loop.requests.value();
  snap.bytes_in = loop.bytes_in.value();
  snap.bytes_out = loop.bytes_out.value();
  snap.ownership_checks = loop.ownership_checks.value();
  snap.open_connections =
      static_cast<std::size_t>(loop.open_connections.value());
  return snap;
}

}  // namespace mmph::net
