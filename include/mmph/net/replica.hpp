#pragma once

/// \file replica.hpp
/// \brief Replica-side replication agent: subscribe, ingest, lag, promote.
///
/// A ReplicaAgent connects a local read-only PlacementService to a
/// primary's NetServer and keeps it in sync:
///
///   1. connect, send kReplSubscribe carrying the local store epoch;
///   2. ingest the stream — kReplSnapshot chunks are reassembled and
///      installed via service.restore_from(), kReplOps blobs are decoded
///      record-by-record (each CRC-checked by the wal codec) and applied
///      via service.apply_replicated();
///   3. publish lag: every stream frame carries the primary's epoch, so
///      `primary_epoch - local_epoch` is the exact op count the replica
///      trails by — exported as the mmph_repl_lag_ops gauge, which
///      apply_replicated() sets with each record it applies;
///   4. on any transport error, chain break, or decode failure: drop the
///      connection, back off, reconnect, and resubscribe from the current
///      local epoch (the primary answers with tail ops or a fresh
///      snapshot, whichever its retained window allows).
///
/// Failover is the caller's decision, not the agent's: stop() the agent,
/// then service.set_read_only(false) — the replica's store is a bitwise
/// copy of the primary's at its last synced epoch, so a promoted replica
/// answers exactly what the primary would have.
///
/// Thread model: one owned thread runs the whole loop; the public
/// accessors read atomics.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "mmph/net/socket.hpp"
#include "mmph/net/wire.hpp"
#include "mmph/serve/fault.hpp"
#include "mmph/serve/placement_service.hpp"

namespace mmph::net {

struct ReplicaAgentConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::chrono::milliseconds connect_timeout{1000};
  std::chrono::milliseconds send_timeout{1000};
  /// How long one receive waits before re-checking the stop flag.
  std::chrono::milliseconds poll_interval{20};
  /// Pause before reconnecting after a failed or dropped session.
  std::chrono::milliseconds retry_backoff{100};
  /// Syscall hook table (null = SocketOps::system()); must outlive the
  /// agent. Tests point this at chaos::FaultySocketOps.
  SocketOps* socket_ops = nullptr;
  /// Fault seam; consulted at replica.lag before applying each stream
  /// frame (firing delays the apply by retry_backoff, inflating lag).
  serve::FaultHook fault_hook{};
};

class ReplicaAgent {
 public:
  /// \p service is the local store to keep in sync; the agent puts it in
  /// read-only mode on start(). Must outlive the agent.
  ReplicaAgent(serve::PlacementService& service, ReplicaAgentConfig config);
  ~ReplicaAgent();

  ReplicaAgent(const ReplicaAgent&) = delete;
  ReplicaAgent& operator=(const ReplicaAgent&) = delete;

  void start();
  /// Stops the ingest thread (idempotent; also run by the destructor).
  /// The service stays read-only — promotion is an explicit caller step.
  void stop();

  [[nodiscard]] bool connected() const noexcept {
    return connected_.load(std::memory_order_relaxed);
  }
  /// Highest primary epoch any stream frame announced (0 before the
  /// first frame).
  [[nodiscard]] std::uint64_t primary_epoch() const noexcept {
    return primary_epoch_.load(std::memory_order_relaxed);
  }
  /// Ops the local store trails the announced primary epoch by.
  [[nodiscard]] std::uint64_t lag_ops() const;
  [[nodiscard]] std::uint64_t snapshots_installed() const noexcept {
    return installs_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t records_applied() const noexcept {
    return records_applied_.load(std::memory_order_relaxed);
  }
  /// Sessions that ended in an error/disconnect (diagnostics).
  [[nodiscard]] std::uint64_t resyncs() const noexcept {
    return resyncs_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] SocketOps& ops() const noexcept {
    return config_.socket_ops != nullptr ? *config_.socket_ops
                                         : SocketOps::system();
  }
  void run();
  /// One connection lifetime: subscribe + ingest until error or stop().
  void session();
  /// Applies one decoded stream frame. Returns false when the session
  /// must be abandoned (chain break, malformed payload).
  [[nodiscard]] bool ingest(const ReplFrame& frame);
  void publish_lag();

  serve::PlacementService& service_;
  ReplicaAgentConfig config_;

  std::atomic<bool> running_{false};
  std::atomic<bool> connected_{false};
  std::atomic<std::uint64_t> primary_epoch_{0};
  std::atomic<std::uint64_t> installs_{0};
  std::atomic<std::uint64_t> records_applied_{0};
  std::atomic<std::uint64_t> resyncs_{0};

  /// Snapshot chunk reassembly (session-local, owned by the thread).
  std::vector<std::uint8_t> snapshot_buf_;
  bool snapshot_open_ = false;

  std::thread thread_;
};

}  // namespace mmph::net
